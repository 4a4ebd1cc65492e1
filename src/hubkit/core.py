"""Embedding sets, cosine similarity, and rank extraction.

All numeric work is done in float64 regardless of on-disk precision; the
Sinkhorn solver at temperature 0.01 needs the headroom.  Arrays stored in the
domain types are made read-only so every operation stays a pure function of
immutable inputs.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DimMismatch, NonFiniteInput, ZeroVectorRow


class Role(Enum):
    """What a set of embeddings (or a matrix axis) stands for."""

    QUERY = "query"
    TARGET = "target"
    QUERY_BANK = "query_bank"
    TARGET_BANK = "target_bank"


def _freeze(arr: np.ndarray, dtype=np.float64) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=dtype)
    if out is arr:
        out = out.copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class EmbeddingSet:
    """A set of d-dimensional vectors, one per row.

    Rows are expected to be unit-normalized (see :func:`l2_normalize`);
    nothing here enforces that so raw features can be carried to the
    normalizer.
    """

    data: np.ndarray
    role: Role = Role.QUERY
    ids: tuple[str, ...] | None = None

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] < 1:
            raise NonFiniteInput(f"embedding data must be a nonempty 2-D matrix, got shape {data.shape}")
        if not np.all(np.isfinite(data)):
            raise NonFiniteInput("embedding data contains NaN or Inf")
        object.__setattr__(self, "data", _freeze(data))
        if self.ids is not None and len(self.ids) != data.shape[0]:
            raise NonFiniteInput(f"{len(self.ids)} ids for {data.shape[0]} rows")

    @property
    def count(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class SimilarityMatrix:
    """An m x n matrix of scores; rows are queries, columns are targets.

    ``row_role`` / ``col_role`` record which embedding sets produced it
    (e.g. query-bank rows against target columns for hubness estimation).
    """

    values: np.ndarray
    row_role: Role = Role.QUERY
    col_role: Role = Role.TARGET

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise NonFiniteInput(f"similarity values must be a nonempty 2-D matrix, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise NonFiniteInput("similarity values contain NaN or Inf")
        object.__setattr__(self, "values", _freeze(values))

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    def with_values(self, values: np.ndarray) -> "SimilarityMatrix":
        """Same axis roles, new scores."""
        return SimilarityMatrix(values, row_role=self.row_role, col_role=self.col_role)


@dataclass(frozen=True)
class RankMatrix:
    """Per-row permutations of column indices, best score first.

    Ties are broken by ascending column index, so the order is deterministic
    for any input.
    """

    order: np.ndarray = field()

    def __post_init__(self):
        order = np.asarray(self.order, dtype=np.int64)
        if order.ndim != 2:
            raise NonFiniteInput(f"rank order must be 2-D, got shape {order.shape}")
        object.__setattr__(self, "order", _freeze(order, dtype=np.int64))

    @property
    def rows(self) -> int:
        return self.order.shape[0]

    @property
    def cols(self) -> int:
        return self.order.shape[1]


def l2_normalize(raw: np.ndarray, role: Role = Role.QUERY) -> EmbeddingSet:
    """Scale every row of ``raw`` to unit L2 norm.

    Zero rows are a hard error (ZeroVectorRow); silently keeping them would
    corrupt every similarity they touch.
    """
    data = np.asarray(raw, dtype=np.float64)
    if data.ndim != 2:
        raise NonFiniteInput(f"expected a 2-D matrix, got shape {data.shape}")
    if not np.all(np.isfinite(data)):
        raise NonFiniteInput("input contains NaN or Inf")
    norms = np.linalg.norm(data, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ZeroVectorRow(int(zero[0]))
    return EmbeddingSet(data / norms[:, None], role=role)


def cosine_similarity_matrix(Q: EmbeddingSet, T: EmbeddingSet) -> SimilarityMatrix:
    """Inner products of every Q row with every T row (cosine for unit rows)."""
    if Q.dim != T.dim:
        raise DimMismatch(Q.dim, T.dim)
    return SimilarityMatrix(Q.data @ T.data.T, row_role=Q.role, col_role=T.role)


#: Target size of one row block of :func:`row_argsort_desc`, in float64 values.
_SORT_BLOCK_VALUES = 1 << 17


def _ranking_threads() -> int:
    """Threads the row-block ranking uses: ``HUBKIT_THREADS`` if positive,
    capped at the CPUs this process may run on (all of them when unset)."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    try:
        cap = int(os.environ.get("HUBKIT_THREADS", "0"))
    except ValueError:
        cap = 0
    return min(cap, cpus) if cap > 0 else cpus


def _argsort_block(V: np.ndarray, out: np.ndarray) -> None:
    """Stable descending argsort of the rows of V into ``out``.

    numpy's default (unstable, vectorized) sort orders the rows; only rows
    that hold two equal scores, which is where the unstable sort may leave
    ties out of column order, are sorted again with the stable sort.
    """
    neg = np.negative(V)
    order = np.argsort(neg, axis=1)
    keys = np.take_along_axis(neg, order, axis=1)
    tied = np.flatnonzero((keys[:, 1:] == keys[:, :-1]).any(axis=1))
    if tied.size:
        order[tied] = np.argsort(neg[tied], axis=1, kind="stable")
    out[:] = order


def row_argsort_desc(S: SimilarityMatrix) -> RankMatrix:
    """Sort each row's column indices by descending score.

    The result equals a stable sort of the negated scores, so equal scores
    (``0.0`` and ``-0.0`` included) stay in ascending column-index order.
    Rows are sorted in blocks; a matrix of more than one block's worth of
    values is spread over up to :func:`_ranking_threads` threads, with at
    least one block each (numpy's sort releases the GIL).
    """
    V = S.values
    m, n = V.shape
    # no more threads than blocks' worth of values: starting a thread costs
    # more than sorting a small matrix
    threads = min(_ranking_threads(), m, -(-m * n // _SORT_BLOCK_VALUES))
    rows = max(1, min(_SORT_BLOCK_VALUES // n, -(-m // threads)))
    order = np.empty((m, n), dtype=np.int64)
    blocks = [slice(lo, lo + rows) for lo in range(0, m, rows)]
    if threads == 1:
        for b in blocks:
            _argsort_block(V[b], order[b])
    else:
        with ThreadPoolExecutor(threads) as pool:
            list(pool.map(lambda b: _argsort_block(V[b], order[b]), blocks))
    return RankMatrix(order)
