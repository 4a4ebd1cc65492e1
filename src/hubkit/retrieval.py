"""Retrieval evaluation: R@K, median rank, mean rank.

All statistics are functions of each query's best (lowest) rank over its
correct targets, which makes them invariant under any strictly increasing
rescaling of the similarity scores.
"""

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .core import RankMatrix, SimilarityMatrix
from .errors import DataError, IndexOutOfRange, ShapeMismatch


@dataclass(frozen=True)
class GroundTruth:
    """For each query, the set of correct target indices.

    Synthetic data uses singletons; multi-target sets cover datasets with
    several captions per item, scored by the best-ranked one.
    """

    pairs: tuple[frozenset[int], ...]

    def __post_init__(self):
        pairs = tuple(frozenset(int(j) for j in p) for p in self.pairs)
        if not pairs:
            raise DataError("ground truth must cover at least one query")
        for i, p in enumerate(pairs):
            if not p:
                raise DataError(f"query {i} has no correct targets")
            if min(p) < 0:
                raise IndexOutOfRange(f"query {i} has a negative target index")
        object.__setattr__(self, "pairs", pairs)

    @classmethod
    def identity(cls, m: int) -> "GroundTruth":
        return cls(tuple(frozenset((i,)) for i in range(m)))

    @classmethod
    def from_indices(cls, indices) -> "GroundTruth":
        return cls(tuple(frozenset((int(i),)) for i in indices))

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class RetrievalReport:
    """Metrics bundle for one normalization run."""

    r_at: dict[int, float]
    mdr: float
    mnr: float
    skew: float | None = None
    normalization: str = "none"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        ks = sorted(self.r_at)
        values = [self.r_at[k] for k in ks]
        if any(not 0.0 <= v <= 100.0 for v in values):
            raise DataError("recall values must lie in [0, 100]")
        if any(lo > hi for lo, hi in zip(values, values[1:])):
            raise DataError("recall must be non-decreasing in K")
        if self.mdr < 1 or self.mnr < 1:
            raise DataError("ranks are 1-based; mdr and mnr must be >= 1")


def best_rank(ranks: RankMatrix, gt: GroundTruth) -> np.ndarray:
    """1-based position of each query's highest-ranked correct target."""
    if len(gt) != ranks.rows:
        raise ShapeMismatch(f"{len(gt)} ground-truth rows vs {ranks.rows} rank rows")
    n = ranks.cols
    positions = np.empty_like(ranks.order)
    row_index = np.arange(ranks.rows)[:, None]
    positions[row_index, ranks.order] = np.arange(n)[None, :]
    out = np.empty(ranks.rows, dtype=np.int64)
    for i, targets in enumerate(gt.pairs):
        idx = np.fromiter(targets, dtype=np.int64)
        if idx.max() >= n:
            raise IndexOutOfRange(f"query {i} references target {idx.max()} of {n}")
        out[i] = positions[i, idx].min() + 1
    return out


#: Target size of one row block of :func:`_count_best_ranks`, in float64 values.
_COUNT_BLOCK_VALUES = 1 << 18


def _count_best_ranks(V: np.ndarray, gt: GroundTruth) -> np.ndarray:
    """:func:`best_rank` of the descending, index-tie-broken order of V's
    rows, found by counting instead of sorting.

    The rank of target j in row i is 1 + #(scores above V[i, j]) + #(scores
    equal to it at a column below j).  Multi-target ground truth is handled
    as flattened (row, target) pairs, minimised per row.
    """
    m, n = V.shape
    if len(gt) != m:
        raise ShapeMismatch(f"{len(gt)} ground-truth rows vs {m} similarity rows")
    sizes = np.fromiter((len(p) for p in gt.pairs), dtype=np.int64, count=m)
    cols = np.fromiter(chain.from_iterable(gt.pairs), dtype=np.int64, count=int(sizes.sum()))
    starts = np.concatenate(([0], np.cumsum(sizes)))
    bad = np.flatnonzero(cols >= n)
    if bad.size:
        i = int(np.searchsorted(starts, bad[0], side="right")) - 1
        raise IndexOutOfRange(f"query {i} references target {max(gt.pairs[i])} of {n}")
    pair_rows = np.repeat(np.arange(m), sizes)
    ranks = np.empty(cols.size, dtype=np.int64)
    step = max(1, _COUNT_BLOCK_VALUES // n)
    for lo in range(0, m, step):
        hi = min(lo + step, m)
        plo, phi = starts[lo], starts[hi]
        r, c = pair_rows[plo:phi], cols[plo:phi]
        B = V[lo:hi] if phi - plo == hi - lo else V[r]
        s = V[r, c][:, None]
        above = np.count_nonzero(B > s, axis=1)
        equal = B == s
        tied = np.flatnonzero(np.count_nonzero(equal, axis=1) > 1)
        if tied.size:
            above[tied] += np.count_nonzero(equal[tied] & (np.arange(n) < c[tied, None]), axis=1)
        ranks[plo:phi] = above + 1
    return np.minimum.reduceat(ranks, starts[:-1])


def evaluate(
    S: SimilarityMatrix,
    gt: GroundTruth,
    Ks: list[int],
    skew: float | None = None,
    normalization: str = "none",
    params: dict | None = None,
) -> RetrievalReport:
    """R@K for each K, plus median and mean best rank.

    Best ranks are those :func:`best_rank` reads off :func:`row_argsort_desc`,
    counted without sorting.  The median for even query counts is the lower
    median, so the reported MdR is always an attained rank.
    """
    if not Ks:
        raise DataError("Ks must be nonempty")
    if any(k < 1 or k > S.cols for k in Ks):
        raise DataError(f"each K must lie in 1..{S.cols}, got {Ks}")
    br = _count_best_ranks(S.values, gt)
    r_at = {int(k): float(100.0 * np.mean(br <= k)) for k in Ks}
    mdr = float(np.sort(br)[(br.size - 1) // 2])
    mnr = float(br.mean())
    return RetrievalReport(
        r_at=r_at,
        mdr=mdr,
        mnr=mnr,
        skew=skew,
        normalization=normalization,
        params=dict(params or {}),
    )
