"""Hubness measurement: k-occurrence counts, their skewness, and an EMD
estimator for distribution gaps between embedding sets.

``N_k(t_j)`` counts how many queries retrieve target j inside their top-k.
Under hub-free retrieval the counts are near-uniform; hubs concentrate mass
on a few targets and push the distribution's skewness up.  The EMD estimator
quantifies how far apart two embedding clouds sit, which is what decides
whether a bank is a usable stand-in for unavailable queries.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import core
from .core import EmbeddingSet, RankMatrix, _freeze, l2_normalize
from .errors import DataError, DimMismatch, KOutOfRange, ZeroVarianceWarning, ZeroVectorRow, _as_index


@dataclass(frozen=True)
class KOccurrence:
    """Per-target retrieval counts at neighborhood size k."""

    k: int
    counts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "counts", _freeze(self.counts, 1, "counts", dtype=np.int64))
        if np.any(self.counts < 0):
            raise DataError("counts must be nonnegative")
        if _as_index("k", self.k) < 1:
            raise KOutOfRange(self.k, self.counts.size)


@dataclass(frozen=True)
class EmdConfig:
    """Subsampled-assignment EMD estimator settings.

    Each repeat draws equal-size subsamples from both sets (without
    replacement), solves the assignment exactly, and reports cost per point;
    the estimate is the mean over repeats.  Per-repeat RNG streams are
    derived from (seed, repeat index), so the estimate is deterministic.
    """

    subsample: int = 256
    repeats: int = 8
    seed: int = 0
    ground_cost: str = "euclidean"

    def __post_init__(self):
        if _as_index("subsample", self.subsample) < 1:
            raise DataError(f"subsample must be >= 1, got {self.subsample}")
        if _as_index("repeats", self.repeats) < 1:
            raise DataError(f"repeats must be >= 1, got {self.repeats}")
        if _as_index("seed", self.seed) < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")
        if self.ground_cost not in ("euclidean", "one_minus_cosine"):
            raise DataError(f"unknown ground cost {self.ground_cost!r}")


def k_occurrence(ranks: RankMatrix, k: int) -> KOccurrence:
    """Count, per target, the queries whose top-k contains it.

    ``ranks`` may hold only the first columns of each row's order (see
    :func:`~hubkit.core.row_topk_desc`); every one of its ``targets`` gets a
    count.
    """
    if not 1 <= _as_index("k", k) <= ranks.cols:
        raise KOutOfRange(k, ranks.cols)
    counts = np.bincount(ranks.order[:, :k].ravel(), minlength=ranks.targets)
    return KOccurrence(k=k, counts=counts)


def skewness(occ: KOccurrence) -> float:
    """Third standardized moment of the counts (population convention).

    A constant distribution has no defined skewness; by convention it is
    reported as 0 with a ZeroVarianceWarning.
    """
    x = occ.counts.astype(np.float64)
    mean = x.mean()
    centered = x - mean
    m2 = np.mean(centered**2)
    if m2 == 0.0:
        warnings.warn("constant k-occurrence counts; skewness reported as 0", ZeroVarianceWarning)
        return 0.0
    # ``centered**3`` calls pow once per count; cube each distinct count once
    values, inverse = np.unique(occ.counts, return_inverse=True)
    m3 = np.mean(((values - mean) ** 3)[inverse])
    return float(m3 / m2**1.5)


def _ground_cost(X: np.ndarray, Y: np.ndarray, kind: str) -> np.ndarray:
    """Cost between the rows of X and Y; for the cosine cost both are unit rows."""
    if kind == "euclidean":
        from scipy.spatial.distance import cdist

        return cdist(X, Y)
    return 1.0 - X @ Y.T


def _unit_rows(E: EmbeddingSet, name: str) -> np.ndarray:
    """E's rows scaled to unit norm; a zero row is refused as a row of ``name``."""
    try:
        return l2_normalize(E.data).data
    except ZeroVectorRow as exc:
        raise ZeroVectorRow(exc.row, name) from None


def emd(X: EmbeddingSet, Y: EmbeddingSet, cfg: EmdConfig = EmdConfig()) -> float:
    """Average per-point optimal-assignment cost between subsamples of X and Y.

    Each assignment is solved exactly by scipy's ``linear_sum_assignment``.
    The repeats run on the block pool, each from its own ``(seed, repeat)``
    stream, and their costs are added in repeat order, so the value does not
    depend on the thread count.  The cosine ground cost has no value at a
    zero row: one in X or Y is refused (ZeroVectorRow, naming the set)
    before any draw.
    """
    from scipy.optimize import linear_sum_assignment

    if X.dim != Y.dim:
        raise DimMismatch(X.dim, Y.dim)
    Xs, Ys = X.data, Y.data
    if cfg.ground_cost == "one_minus_cosine":
        # a row's norm does not depend on the rows drawn with it: normalize once
        Xs, Ys = _unit_rows(X, "X"), _unit_rows(Y, "Y")
    size = min(cfg.subsample, X.count, Y.count)
    costs = [0.0] * cfg.repeats

    def repeat(r):
        rng = np.random.default_rng((cfg.seed, r))
        xi = rng.choice(X.count, size=size, replace=False)
        yi = rng.choice(Y.count, size=size, replace=False)
        cost = _ground_cost(Xs[xi], Ys[yi], cfg.ground_cost)
        rows, cols = linear_sum_assignment(cost)
        costs[r] = float(cost[rows, cols].sum()) / size

    core._run_blocks(repeat, range(cfg.repeats))
    total = 0.0
    for c in costs:  # in repeat order, one rounding each (sum() compensates from Python 3.12)
        total += c
    return total / cfg.repeats
