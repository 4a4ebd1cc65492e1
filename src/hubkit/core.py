"""Embedding sets, cosine similarity, rank extraction, and the block pool.

SIM1 values stay float32; every kernel computes in float64.  A
:class:`SimilarityMatrix` keeps float32 scores (a SIM1 file's) at that
precision and stores any other dtype as float64; each kernel widens what it
reads before any arithmetic, so a float32-stored matrix gives the same bits
as its float64 widening, and the Sinkhorn solver at temperature 0.01 keeps
its headroom.  Embeddings are float64.

Every domain type takes its array through one intake rule,
:func:`_freeze`: a wrong rank or an empty array is ShapeMismatch, NaN or
Inf in a float array is NonFiniteInput, and the stored array is read-only,
copied only if the caller may still hold it, so every operation stays a
pure function of immutable inputs.  Each type adds only its own range rule.

Every m x n pass that runs in parts, ranking and evaluation as well as the
normalizers' passes, is split here into row blocks or column slabs for one
process-wide block pool (:func:`_in_row_blocks`, :func:`_in_column_slabs`),
by the shape alone, so every result is the same for any thread count.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import InitVar, dataclass, field
from enum import Enum

import numpy as np

# The package defines the HUBKIT_THREADS parser before it imports numpy.
from . import _thread_cap
from .errors import DimMismatch, KOutOfRange, NonFiniteInput, ShapeMismatch, ZeroVectorRow, _as_index


class Role(Enum):
    """What a set of embeddings (or a matrix axis) stands for."""

    QUERY = "query"
    TARGET = "target"
    QUERY_BANK = "query_bank"
    TARGET_BANK = "target_bank"


#: Values per slice of :func:`_all_finite`; its mask takes one byte a value.
_FINITE_BLOCK_VALUES = 1 << 16


def _all_finite(arr: np.ndarray) -> bool:
    """No NaN or infinity in ``arr``, checked a slice of its first axis at a
    time, so the mask never spans a matrix."""
    rows = max(1, _FINITE_BLOCK_VALUES // max(1, arr[:1].size))
    return all(np.isfinite(arr[lo:lo + rows]).all() for lo in range(0, arr.shape[0], rows))


def _freeze(arr, ndim: int | None = None, name: str = "", dtype=np.float64, adopt: bool = False) -> np.ndarray:
    """A read-only, C-contiguous ``dtype`` array with the contents of ``arr``:
    the one intake rule of the domain types.

    Given a rank ``ndim``, anything but a nonempty array of that rank is
    refused with ShapeMismatch, and a float array holding NaN or Inf with
    NonFiniteInput; ``name`` names the array in the message.  The array is
    copied while the caller may still hold it: ``arr`` itself, a view of
    it, or the buffer of any array-like but a list or tuple.  A fresh
    conversion of an ndarray, list or tuple (a new dtype or layout) is
    frozen in place, and so is a result the library has just computed and
    holds no other reference to (``adopt``).
    """
    out = np.asarray(arr, dtype=dtype, order="C")
    if ndim is not None:
        if out.ndim != ndim or out.size == 0:
            raise ShapeMismatch(f"{name} must be a nonempty {ndim}-D array, got shape {out.shape}")
        if out.dtype.kind == "f" and not _all_finite(out):
            raise NonFiniteInput(f"NaN or Inf in {name}")
    fresh = out is not arr and out.base is None and isinstance(arr, (np.ndarray, list, tuple))
    if not (adopt or fresh):
        out = out.copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class EmbeddingSet:
    """A set of d-dimensional vectors, one per row.

    Rows are expected to be unit-normalized (see :func:`l2_normalize`);
    nothing here enforces that so raw features can be carried to the
    normalizer.  ``_adopt`` is as for :class:`SimilarityMatrix`.
    """

    data: np.ndarray
    role: Role = Role.QUERY
    _adopt: InitVar[bool] = False

    def __post_init__(self, _adopt):
        object.__setattr__(self, "data", _freeze(self.data, 2, "embedding data", adopt=_adopt))

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
    float32 values stay float32; any other dtype is stored as float64.
    ``_adopt=True`` is for the library's own fresh results: it freezes them
    in place instead of copying (see :func:`_freeze`).
    """

    values: np.ndarray
    row_role: Role = Role.QUERY
    col_role: Role = Role.TARGET
    _adopt: InitVar[bool] = False

    def __post_init__(self, _adopt):
        dtype = np.float32 if np.asarray(self.values).dtype == np.float32 else np.float64
        object.__setattr__(self, "values", _freeze(self.values, 2, "similarity values", dtype=dtype, adopt=_adopt))

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    def with_values(self, values: np.ndarray) -> "SimilarityMatrix":
        """Same axis roles, new scores."""
        return SimilarityMatrix(values, row_role=self.row_role, col_role=self.col_role)

    def _adopt_values(self, values: np.ndarray) -> "SimilarityMatrix":
        """:meth:`with_values` for scores the library has just computed:
        takes them over without the defensive copy."""
        return SimilarityMatrix(values, self.row_role, self.col_role, _adopt=True)


#: Largest column index an int32 rank order holds.
_MAX_TARGETS = np.iinfo(np.int32).max


@dataclass(frozen=True)
class RankMatrix:
    """Per-row permutations of column indices, best score first.

    Ties are broken by ascending column index, so the order is deterministic
    for any input.  ``order`` is int32: more than 2^31 - 1 targets, or an
    order whose values do not fit int32, is refused with ShapeMismatch
    rather than wrapped.  ``targets`` is the number of columns ranked over
    (by default the row length); a top-k ranking holds only the first k of
    them.  ``_adopt`` is as for :class:`SimilarityMatrix`.
    """

    order: np.ndarray = field()
    targets: int | None = None
    _adopt: InitVar[bool] = False

    def __post_init__(self, _adopt):
        order = np.asarray(self.order)
        if order.ndim != 2:
            raise ShapeMismatch(f"rank order must be 2-D, got shape {order.shape}")
        targets = order.shape[1] if self.targets is None else int(self.targets)
        if targets < order.shape[1]:
            raise ShapeMismatch(f"rank rows of {order.shape[1]} columns over {targets} targets")
        if targets > _MAX_TARGETS:
            raise ShapeMismatch(f"{targets} targets is more than an int32 rank order holds")
        if order.dtype != np.int32 and order.size:
            lo, hi = order.min(), order.max()
            if lo < -_MAX_TARGETS - 1 or hi > _MAX_TARGETS:
                raise ShapeMismatch(f"rank order values {lo}..{hi} do not fit int32")
        object.__setattr__(self, "order", _freeze(order, dtype=np.int32, adopt=_adopt))
        object.__setattr__(self, "targets", targets)

    @property
    def rows(self) -> int:
        return self.order.shape[0]

    @property
    def cols(self) -> int:
        return self.order.shape[1]


def l2_normalize(raw: np.ndarray) -> EmbeddingSet:
    """Scale every row of ``raw`` to unit L2 norm.

    Zero rows are a hard error (ZeroVectorRow); silently keeping them would
    corrupt every similarity they touch.
    """
    data = np.asarray(raw, dtype=np.float64)
    if data.ndim != 2 or data.size == 0:
        raise ShapeMismatch(f"expected a nonempty 2-D matrix, got shape {data.shape}")
    if not _all_finite(data):
        raise NonFiniteInput("input contains NaN or Inf")
    norms = np.linalg.norm(data, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ZeroVectorRow(int(zero[0]))
    return EmbeddingSet(data / norms[:, None], _adopt=True)


def cosine_similarity_matrix(Q: EmbeddingSet, T: EmbeddingSet) -> SimilarityMatrix:
    """Inner products of every Q row with every T row (cosine for unit rows)."""
    if Q.dim != T.dim:
        raise DimMismatch(Q.dim, T.dim)
    return SimilarityMatrix(Q.data @ T.data.T, row_role=Q.role, col_role=T.role, _adopt=True)


#: Target size of one row block of the ranking functions, in values; also
#: the size of each thread's key scratch (512 KiB, which stays in L2).
_SORT_BLOCK_VALUES = 1 << 16

#: Least rows, and least values, of one block of the normalizers' m x n
#: passes (the Sinkhorn kernel, column sums and plan, ``S + h``, the inverted
#: softmax's slabs): about a millisecond of their work, which a handoff to
#: the pool costs a small share of.
_PASS_BLOCK_ROWS = 256
_PASS_BLOCK_VALUES = 1 << 20


def _pass_rows(n: int) -> int:
    """Rows per block of a normalizer's pass over n columns."""
    return max(_PASS_BLOCK_ROWS, _PASS_BLOCK_VALUES // n)


def _ranking_threads() -> int:
    """Block groups that ranking and the normalizers' m x n passes run at
    once: ``HUBKIT_THREADS`` if positive, capped at the CPUs this process may
    run on (all of them when unset)."""
    cap, cpus = _thread_cap(), _cpus()
    return min(cap, cpus) if cap > 0 else cpus


def _cpus() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


_pool = None
_pool_lock = threading.Lock()


def _ranking_pool() -> ThreadPoolExecutor:
    """The process's one block pool, started on first use with a thread per
    CPU the process may run on.  Named for its first user: it runs every
    block and slab of :func:`_in_row_blocks` and :func:`_in_column_slabs`."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_cpus(), thread_name_prefix="hubkit-rank")
        return _pool


def _forget_pool() -> None:
    """In a forked child: the parent's pool threads do not exist here."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _run_blocks(work, starts, groups: int) -> None:
    """Call ``work(lo)`` for every ``lo`` in ``starts``, as up to ``groups``
    groups that run at once: this thread runs the first, the block pool the
    others, so one group never reaches the pool.  Returns once every group
    is done; a failure is raised."""
    groups = min(groups, len(starts))

    def run(g):
        for lo in starts[g::groups]:
            work(lo)

    futures = [_ranking_pool().submit(run, g) for g in range(1, groups)]
    try:
        run(0)
    finally:
        wait(futures)
    for f in futures:
        f.result()


def _in_row_blocks(m: int, rows: int, work) -> None:
    """Call ``work(r)`` for every block ``r`` (a slice) of ``rows`` rows of
    an m-row pass, on up to :func:`_ranking_threads` block groups.

    Callers set ``rows`` from the matrix's shape alone, so the blocks do not
    depend on the thread count, and a matrix of one block never reaches the
    pool.  The blocks write disjoint slices of shared buffers; numpy
    releases the GIL inside them.
    """
    _run_blocks(lambda lo: work(slice(lo, min(lo + rows, m))), range(0, m, rows), _ranking_threads())


def _in_column_slabs(shape: tuple, work) -> None:
    """Call ``work(c)`` for column slabs ``c`` (slices) of an m x n
    normalizer pass that covers a whole column at once.

    A pass of more than one row block (see :func:`_pass_rows`) is split into
    one slab per block group, each of at least two columns: numpy sums a
    lone column in another order, so every column adds its rows in the
    order of one pass over the whole matrix, whatever the slabs.
    """
    m, n = shape
    slabs = max(1, min(_ranking_threads(), n // 2)) if m > _pass_rows(n) else 1
    edges = [n * k // slabs for k in range(slabs + 1)]
    _run_blocks(lambda k: work(slice(edges[k], edges[k + 1])), range(slabs), slabs)


_scratch = threading.local()


def _key_scratch(size: int) -> np.ndarray:
    """``size`` values of this thread's 64-bit key buffer, which is kept for
    the thread's later blocks and calls and grown only for a row longer than
    one block."""
    keys = getattr(_scratch, "keys", None)
    if keys is None or keys.size < size:
        keys = _scratch.keys = np.empty(max(size, _SORT_BLOCK_VALUES), dtype=np.int64)
    return keys[:size]


def _argsort_block(V: np.ndarray, out: np.ndarray) -> None:
    """Stable descending argsort of the rows of V into the int32 ``out``,
    by packed keys.

    Each score becomes a float64 key: ``-V`` (``-0.0`` canonicalized to
    ``+0.0``) with the low ``b = (n - 1).bit_length()`` bits of its pattern
    replaced by the column index.  The keys are built in this thread's
    scratch (see :func:`_key_scratch`), not in the result.  numpy's
    vectorized float sort orders them, and the low bits of the sorted keys
    are the columns, written straight into ``out``.  Keys that share their
    high bits (equal scores, or scores that differ only in the dropped bits)
    may be out of order, the more so as a negative key's column bits count
    downwards, so rows with two such adjacent keys are sorted again with the
    stable float sort.
    """
    n = V.shape[1]
    b = (n - 1).bit_length()
    low = (1 << b) - 1
    keys = _key_scratch(V.size).reshape(V.shape)
    np.subtract(0.0, V, out=keys.view(np.float64))
    keys &= ~low
    keys |= np.arange(n)
    keys.view(np.float64).sort(axis=1)
    np.bitwise_and(keys, low, out=out, casting="unsafe")
    keys >>= b
    tied = np.flatnonzero((keys[:, 1:] == keys[:, :-1]).any(axis=1))
    if tied.size:
        out[tied] = np.argsort(np.negative(V[tied]), axis=1, kind="stable")


def _topk_block(V: np.ndarray, out: np.ndarray, k: int) -> None:
    """The first k columns of :func:`_argsort_block`'s order, into ``out``.

    ``argpartition`` picks k best scores; sorting them by column and then
    stably by score orders them.  The pick can differ from the stable sort's
    only where a score equal to the k-th best also lies outside it, so rows
    with more than k scores at least that good are sorted in full.
    """
    neg = np.negative(V)
    pick = np.argpartition(neg, k - 1, axis=1)[:, :k]
    pick.sort(axis=1)
    keys = np.take_along_axis(neg, pick, axis=1)
    out[:] = np.take_along_axis(pick, np.argsort(keys, axis=1, kind="stable"), axis=1)
    edge = keys.max(axis=1, keepdims=True)
    cut = np.flatnonzero(np.count_nonzero(neg <= edge, axis=1) > k)
    if cut.size:
        out[cut] = np.argsort(neg[cut], axis=1, kind="stable")[:, :k]


def row_argsort_desc(S: SimilarityMatrix) -> RankMatrix:
    """Sort each row's column indices by descending score, into an int32
    RankMatrix.

    The result equals a stable sort of the negated scores, so equal scores
    (``0.0`` and ``-0.0`` included) stay in ascending column-index order.
    Rows are sorted in blocks, on up to ``HUBKIT_THREADS`` threads of the
    block pool for matrices larger than one block, as float64 keys packing
    score and column (see :func:`_argsort_block`).
    """
    order = np.empty(S.values.shape, dtype=np.int32)
    _in_row_blocks(S.rows, max(1, _SORT_BLOCK_VALUES // S.cols), lambda r: _argsort_block(S.values[r], order[r]))
    return RankMatrix(order, _adopt=True)


def row_topk_desc(S: SimilarityMatrix, k: int) -> RankMatrix:
    """The k best columns of each row, best first: a RankMatrix of k columns.

    Equal to ``row_argsort_desc(S).order[:, :k]``, ties and signed zeros
    included, without sorting whole rows.
    """
    if not 1 <= _as_index("k", k) <= S.cols:
        raise KOutOfRange(k, S.cols)
    order = np.empty((S.rows, k), dtype=np.int32)
    _in_row_blocks(S.rows, max(1, _SORT_BLOCK_VALUES // S.cols), lambda r: _topk_block(S.values[r], order[r], k))
    return RankMatrix(order, targets=S.cols, _adopt=True)
