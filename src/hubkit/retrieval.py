"""Retrieval evaluation: R@K, median rank, mean rank.

All statistics are functions of each query's best (lowest) rank over its
correct targets, which makes them invariant under any strictly increasing
rescaling of the similarity scores.
"""

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import core
from .core import RankMatrix, SimilarityMatrix
from .errors import DataError, IndexOutOfRange, ShapeMismatch

#: Largest target index a ground truth can hold: its pairs are indexed in int64.
_MAX_INDEX = np.iinfo(np.int64).max


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
            if max(p) > _MAX_INDEX:
                raise IndexOutOfRange(f"query {i} references target {max(p)}, beyond int64")
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


def _truth_pairs(gt: GroundTruth, m: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``gt`` against an m x n score matrix as flattened (row, target) pairs:
    ``(pair_rows, cols, starts)``, row i's pairs at ``starts[i]:starts[i + 1]``."""
    if len(gt) != m:
        raise ShapeMismatch(f"{len(gt)} ground-truth rows vs {m} score rows")
    sizes = np.fromiter((len(p) for p in gt.pairs), dtype=np.int64, count=m)
    cols = np.fromiter(chain.from_iterable(gt.pairs), dtype=np.int64, count=int(sizes.sum()))
    starts = np.concatenate(([0], np.cumsum(sizes)))
    bad = np.flatnonzero(cols >= n)
    if bad.size:
        i = int(np.searchsorted(starts, bad[0], side="right")) - 1
        raise IndexOutOfRange(f"query {i} references target {max(gt.pairs[i])} of {n}")
    return np.repeat(np.arange(m), sizes), cols, starts


def best_rank(ranks: RankMatrix, gt: GroundTruth) -> np.ndarray:
    """1-based position of each query's highest-ranked correct target.

    ``ranks`` must hold full row permutations, as from
    :func:`row_argsort_desc`; a top-k ranking is refused with ShapeMismatch.
    """
    order = ranks.order
    if ranks.cols != ranks.targets:
        raise ShapeMismatch(
            f"best_rank needs full row permutations, but rank rows hold {ranks.cols} "
            f"of {ranks.targets} targets (a top-k ranking)"
        )
    if order.size and (order.min() < 0 or order.max() >= ranks.cols):
        raise ShapeMismatch(
            f"best_rank needs full row permutations, but rank rows of {ranks.cols} columns "
            f"hold column indices {order.min()}..{order.max()}"
        )
    pair_rows, cols, starts = _truth_pairs(gt, ranks.rows, ranks.cols)
    positions = np.empty_like(order)
    np.put_along_axis(positions, order, np.arange(ranks.cols, dtype=order.dtype)[None, :], axis=1)
    return np.minimum.reduceat(positions[pair_rows, cols], starts[:-1]).astype(np.int64) + 1


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
    pair_rows, cols, starts = _truth_pairs(gt, m, n)
    ranks = np.empty(cols.size, dtype=np.int64)
    step = max(1, _COUNT_BLOCK_VALUES // n)

    def count(lo):
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

    # the blocks write disjoint slices of ranks, on the ranking pool
    core._run_blocks(count, range(0, m, step), core._ranking_threads())
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
