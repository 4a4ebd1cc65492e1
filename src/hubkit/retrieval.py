"""Retrieval evaluation: R@K, median rank, mean rank.

All statistics are functions of each query's best (lowest) rank over its
correct targets, which makes them invariant under any strictly increasing
rescaling of the similarity scores.
"""

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from . import core
from .core import RankMatrix, SimilarityMatrix
from .errors import DataError, IndexOutOfRange, KOutOfRange, ShapeMismatch, _as_index

#: Largest target index a ground truth can hold: its targets are stored in int64.
_MAX_INDEX = np.iinfo(np.int64).max


def _iterate(p, rule: str):
    """An iterator over ``p``, or DataError stating ``rule``."""
    try:
        return iter(p)
    except TypeError:
        raise DataError(f"{rule}, got {p!r}") from None


def _targets(i: int, p) -> list[int]:
    """Query i's entry as its distinct target indices, ascending, or DataError naming the query."""
    targets = _iterate(p, f"query {i}'s targets must be a collection of indices")
    return sorted({_as_index(f"query {i}'s target", j) for j in targets})


@dataclass(frozen=True, init=False, eq=False)
class GroundTruth:
    """For each query, the set of correct target indices.

    Synthetic data uses singletons; multi-target sets cover datasets with
    several captions per item, scored by the best-ranked one.

    The sets are stored as two read-only int64 arrays, built once when the
    ground truth is made: ``targets`` holds every query's targets, each
    query's ascending and without duplicates, and query i's are
    ``targets[starts[i]:starts[i + 1]]``.  ``pairs``, the sets themselves,
    is built from them on first read; scoring reads only the arrays.
    """

    targets: np.ndarray
    starts: np.ndarray

    def __init__(self, pairs):
        entries = _iterate(pairs, "ground truth must be a collection of per-query target sets")
        rows = [_targets(i, p) for i, p in enumerate(entries)]
        if not rows:
            raise DataError("ground truth must cover at least one query")
        for i, row in enumerate(rows):
            if not row:
                raise DataError(f"query {i} has no correct targets")
            if row[0] < 0:
                raise IndexOutOfRange(f"query {i} has a negative target index")
            if row[-1] > _MAX_INDEX:
                raise IndexOutOfRange(f"query {i} references target {row[-1]}, beyond int64")
        sizes = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        targets = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=int(sizes.sum()))
        self._hold(targets, np.concatenate(([0], np.cumsum(sizes))))

    def _hold(self, targets: np.ndarray, starts: np.ndarray) -> "GroundTruth":
        object.__setattr__(self, "targets", core._freeze(targets, dtype=np.int64, adopt=True))
        object.__setattr__(self, "starts", core._freeze(starts, dtype=np.int64, adopt=True))
        return self

    @classmethod
    def identity(cls, m: int) -> "GroundTruth":
        """Query i's one correct target is target i, for i < m."""
        return cls.from_indices(np.arange(_as_index("m", m)))

    @classmethod
    def from_indices(cls, indices) -> "GroundTruth":
        """Query i's one correct target is ``indices[i]``.

        A 1-D integer array is checked whole; any other collection is taken
        element by element by the generic constructor, and anything else is
        refused with DataError.
        """
        if not (isinstance(indices, np.ndarray) and indices.ndim == 1 and indices.dtype.kind in "iu"):
            return cls(tuple((j,) for j in _iterate(indices, "indices must be a collection of target indices")))
        if indices.size == 0:
            raise DataError("ground truth must cover at least one query")
        bad = np.flatnonzero((indices < 0) | (indices > _MAX_INDEX))
        if bad.size:
            i = int(bad[0])
            if indices[i] < 0:
                raise IndexOutOfRange(f"query {i} has a negative target index")
            raise IndexOutOfRange(f"query {i} references target {indices[i]}, beyond int64")
        return cls.__new__(cls)._hold(indices.astype(np.int64), np.arange(indices.size + 1))

    def _rows(self) -> list[list[int]]:
        """Each query's targets, ascending, as a list of Python ints."""
        values, starts = self.targets.tolist(), self.starts.tolist()
        return [values[lo:hi] for lo, hi in zip(starts, starts[1:])]

    @cached_property
    def pairs(self) -> tuple[frozenset[int], ...]:
        """Each query's set of correct target indices."""
        return tuple(map(frozenset, self._rows()))

    def __len__(self) -> int:
        return self.starts.size - 1

    def __eq__(self, other):
        if not isinstance(other, GroundTruth):
            return NotImplemented
        return np.array_equal(self.starts, other.starts) and np.array_equal(self.targets, other.targets)

    def __hash__(self):
        return hash((self.starts.tobytes(), self.targets.tobytes()))


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
    cols, starts = gt.targets, gt.starts
    # each query's targets ascend, so its last is its largest
    last = cols[starts[1:] - 1]
    bad = np.flatnonzero(last >= n)
    if bad.size:
        raise IndexOutOfRange(f"query {bad[0]} references target {last[bad[0]]} of {n}")
    return np.repeat(np.arange(m), np.diff(starts)), cols, starts


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
    for k in Ks:
        if not 1 <= k <= S.cols:
            raise KOutOfRange(k, S.cols)
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
