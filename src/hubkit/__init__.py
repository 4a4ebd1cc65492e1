"""Hubness-aware normalization for cross-modal retrieval similarity matrices.

Query/target embedding sets produce a cosine similarity matrix; hubs are
targets that crowd the top ranks of many queries.  This package removes that
crowding either by probabilistic scaling (inverted softmax and its dynamic
and two-bank variants) or by entropic optimal transport over the matrix
(Sinkhorn normalization, with a dual-bank form for the query-free setting),
plus exact-marginal, Euclidean, and assignment-based alternatives used as
reference points.  Diagnostics quantify hubness before and after.

Importing the package applies ``HUBKIT_THREADS`` (a positive integer) as the
default thread count of the BLAS/OpenMP pools before numpy loads; a pool
variable that is already set wins.  Once numpy has been imported the pools
are fixed, so the cap reaches BLAS only when hubkit is imported first.
scipy is imported by the few functions that call it, not by the package.
"""


def _thread_cap() -> int:
    """``HUBKIT_THREADS`` as a positive integer, or 0 when it is unset or
    anything else.  Needs no numpy, so the cap can be applied before numpy
    loads; ``core`` reads it on every ranking call."""
    import os

    try:
        return max(int(os.environ.get("HUBKIT_THREADS", "0")), 0)
    except ValueError:
        return 0


def _apply_thread_cap() -> None:
    import os

    cap = _thread_cap()
    if cap > 0:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ.setdefault(var, str(cap))


_apply_thread_cap()

from .core import (
    EmbeddingSet,
    RankMatrix,
    Role,
    SimilarityMatrix,
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
