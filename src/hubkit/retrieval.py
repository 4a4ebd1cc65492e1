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
from .errors import DataError, IndexOutOfRange, ShapeMismatch, _as_index

#: Largest target index a ground truth can hold: its pairs are indexed in int64.
_MAX_INDEX = np.iinfo(np.int64).max


def _iterate(p, rule: str):
    """An iterator over ``p``, or DataError stating ``rule``."""
    try:
        return iter(p)
    except TypeError:
        raise DataError(f"{rule}, got {p!r}") from None


def _targets(i: int, p) -> frozenset[int]:
    """Query i's entry as a set of target indices, or DataError naming the query."""
    targets = _iterate(p, f"query {i}'s targets must be a collection of indices")
    return frozenset(_as_index(f"query {i}'s target", j) for j in targets)


@dataclass(frozen=True)
class GroundTruth:
    """For each query, the set of correct target indices.

    Synthetic data uses singletons; multi-target sets cover datasets with
    several captions per item, scored by the best-ranked one.
    """

    pairs: tuple[frozenset[int], ...]

    def __post_init__(self):
        entries = _iterate(self.pairs, "ground truth must be a collection of per-query target sets")
        pairs = tuple(_targets(i, p) for i, p in enumerate(entries))
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
        return cls(tuple(frozenset((i,)) for i in range(_as_index("m", m))))

    @classmethod
    def from_indices(cls, indices) -> "GroundTruth":
        return cls(tuple((i,) for i in indices))

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
    """:func:`best_rank` of V's descending, index-tie-broken row order, by
    counting: the rank of the correct target a row orders first (top score
    s, lowest column c scoring s) is 1 + #(scores above s) + #(scores equal
    to s at a column below c), one count per query."""
    m, n = V.shape
    pair_rows, cols, starts = _truth_pairs(gt, m, n)
    scores = V[pair_rows, cols]
    top = np.maximum.reduceat(scores, starts[:-1])
    first = np.minimum.reduceat(np.where(scores == top[pair_rows], cols, n), starts[:-1])
    ranks = np.empty(m, dtype=np.int64)

    def count(rows):
        B, s = V[rows], top[rows, None]
        above = np.count_nonzero(B > s, axis=1)
        equal = B == s
        tied = np.flatnonzero(np.count_nonzero(equal, axis=1) > 1)
        if tied.size:
            above[tied] += np.count_nonzero(equal[tied] & (np.arange(n) < first[rows][tied, None]), axis=1)
        ranks[rows] = above + 1

    # the blocks write disjoint slices of ranks
    core._in_row_blocks(m, max(1, _COUNT_BLOCK_VALUES // n), count)
    return ranks


def evaluate(
    S: SimilarityMatrix,
    gt: GroundTruth,
    Ks: list[int],
    skew: float | None = None,
    normalization: str = "none",
    params: dict | None = None,
) -> RetrievalReport:
    """R@K for each K, plus median and mean best rank.

    A query's best rank is that of the correct target its row orders first,
    as :func:`best_rank` reads it off :func:`row_argsort_desc`, counted
    without sorting.  The median for even query counts is the lower median,
    so the reported MdR is always an attained rank.
    """
    Ks = [_as_index("K", k) for k in _iterate(Ks, "Ks must be a collection of integers")]
    if not Ks:
        raise DataError("Ks must be nonempty")
    if any(k < 1 or k > S.cols for k in Ks):
        raise DataError(f"each K must lie in 1..{S.cols}, got {Ks}")
    br = _count_best_ranks(S.values, gt)
    r_at = {k: float(100.0 * np.mean(br <= k)) for k in Ks}
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
