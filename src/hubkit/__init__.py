"""Hubness-aware normalization for cross-modal retrieval similarity matrices.

Query/target embedding sets produce a cosine similarity matrix; hubs are
targets that crowd the top ranks of many queries.  This package removes that
crowding either by probabilistic scaling (inverted softmax and its dynamic
and two-bank variants) or by entropic optimal transport over the matrix
(Sinkhorn normalization, with a dual-bank form for the query-free setting),
plus exact-marginal, Euclidean, and assignment-based alternatives used as
reference points.  Diagnostics quantify hubness before and after.

hubkit owns its threads: see "Threads" in README.md.  scipy is imported by
the few functions that call it, not by the package.
"""

from .core import (
    EmbeddingSet,
    RankMatrix,
    Role,
    SimilarityMatrix,
    _pin_blas,
    cosine_similarity_matrix,
    l2_normalize,
    row_argsort_desc,
    row_topk_desc,
)
from .diagnostics import EmdConfig, KOccurrence, emd, k_occurrence, skewness
from .errors import (
    BadMagic,
    ColMismatch,
    DataError,
    DimMismatch,
    EmptyPlan,
    FileFormatError,
    HubkitError,
    IndexOutOfRange,
    IoFailure,
    KOutOfRange,
    LengthMismatch,
    NonFiniteInput,
    NonPositiveTau,
    RowMismatch,
    ShapeMismatch,
    SizeMismatch,
    TruncatedFile,
    ZeroMarginalEntry,
    ZeroVarianceWarning,
    ZeroVectorRow,
)
from .io import (
    norm_deviation,
    read_embeddings,
    read_ground_truth,
    read_similarity,
    write_embeddings,
    write_ground_truth,
    write_report,
    write_similarity,
)
from .retrieval import GroundTruth, RetrievalReport, best_rank, evaluate
from .scaling import (
    DISConfig,
    DualISConfig,
    HubnessVector,
    apply_hubness,
    dis_subset,
    dual_inverted_softmax,
    dual_is_compensations,
    dynamic_inverted_softmax,
    inverted_softmax,
    is_hubness,
)
from .sinkhorn import (
    Marginals,
    SinkhornConfig,
    TransportPlan,
    dbsn,
    dbsn_hubness,
    estimate_target_hubness,
    marginal_violation,
    plan_entropy,
    sinkhorn,
    sn_normalize,
)
from .synth import SynthConfig, generate_banks, generate_paired
from .variants import hn, hn_normalize, l2n, otn, sparsity

_pin_blas()

__version__ = "0.1.0"

__all__ = [
    "BadMagic",
    "ColMismatch",
    "DISConfig",
    "DataError",
    "DimMismatch",
    "DualISConfig",
    "EmbeddingSet",
    "EmdConfig",
    "EmptyPlan",
    "FileFormatError",
    "GroundTruth",
    "HubkitError",
    "HubnessVector",
    "IndexOutOfRange",
    "IoFailure",
    "KOccurrence",
    "KOutOfRange",
    "LengthMismatch",
    "Marginals",
    "NonFiniteInput",
    "NonPositiveTau",
    "RankMatrix",
    "RetrievalReport",
    "Role",
    "RowMismatch",
    "ShapeMismatch",
    "SimilarityMatrix",
    "SinkhornConfig",
    "SizeMismatch",
    "SynthConfig",
    "TransportPlan",
    "TruncatedFile",
    "ZeroMarginalEntry",
    "ZeroVarianceWarning",
    "ZeroVectorRow",
    "apply_hubness",
    "best_rank",
    "cosine_similarity_matrix",
    "dbsn",
    "dbsn_hubness",
    "dis_subset",
    "dual_inverted_softmax",
    "dual_is_compensations",
    "dynamic_inverted_softmax",
    "emd",
    "estimate_target_hubness",
    "evaluate",
    "generate_banks",
    "generate_paired",
    "hn",
    "hn_normalize",
    "inverted_softmax",
    "is_hubness",
    "k_occurrence",
    "l2_normalize",
    "l2n",
    "marginal_violation",
    "norm_deviation",
    "otn",
    "plan_entropy",
    "read_embeddings",
    "read_ground_truth",
    "read_similarity",
    "row_argsort_desc",
    "row_topk_desc",
    "sinkhorn",
    "skewness",
    "sn_normalize",
    "sparsity",
    "write_embeddings",
    "write_ground_truth",
    "write_report",
    "write_similarity",
]
