"""Entropy-regularized optimal transport and Sinkhorn normalization.

The solver maximizes ``<S, pi> + tau * H(pi)`` over plans with prescribed row
and column marginals, where ``H(pi) = sum -pi_ij (log pi_ij - 1)``.  The
optimum has the form ``pi_ij = exp((S_ij + f_i + g_j) / tau)`` with dual
potentials f, g fixed by alternating row/column balancing.

Balancing carries log scalings against anchors that absorb them (Schmitzer
2019), never a difference of potentials, whose rounding tau would amplify:
two passes over one kernel buffer per sweep, whose entries never exceed 1,
so the e^100 scale of ``exp(S / tau)`` at tau = 0.01 is never formed; sums
that underflow are redone as exact log-sum-exps.  The row update is one
BLAS mat-vec ``K @ w`` on the calling thread (hubkit keeps BLAS at one
thread: a threaded mat-vec rounds a few row sums apart, and row slabs
round by where they start).  The kernel build and the plan run in the row
blocks of a normalizer pass, and the column update in its column slabs
(:func:`core._in_row_blocks`, :func:`core._in_column_slabs`): each column
adds its rows in one order whatever the slabs, so every result is the same
for any block size and thread count.  The plan is materialized only by
:func:`sinkhorn`, once, at the end, in the kernel's buffer.

Ranking use: per row, ``pi`` is a monotone transform of ``S + g``, so adding
the column potential to the similarity matrix reproduces the plan's ranking
while the row potential cancels inside each row.
"""

from dataclasses import InitVar, dataclass

import numpy as np

from . import core
from .core import SimilarityMatrix, _freeze
from .errors import (
    ColMismatch,
    DataError,
    NonPositiveTau,
    RowMismatch,
    ShapeMismatch,
    ZeroMarginalEntry,
    _as_index,
    _as_real,
)
from .scaling import HubnessVector, _plus_columns, apply_hubness


@dataclass(frozen=True)
class Marginals:
    """Row distribution ``a`` (length m) and column distribution ``b`` (length n).

    ``a=None`` leaves the rows unconstrained: the feasible set is then only
    the column constraint, the degenerate case whose entropic optimum is the
    inverted softmax.
    """

    a: np.ndarray | None
    b: np.ndarray

    def __post_init__(self):
        for name in ("a", "b"):
            vec = getattr(self, name)
            if vec is None:
                if name == "b":
                    raise DataError("column marginal b is required")
                continue
            vec = _freeze(vec, 1, f"marginal {name}")
            if np.any(vec <= 0.0):
                raise ZeroMarginalEntry(f"marginal {name} must have entries > 0")
            if abs(vec.sum() - 1.0) > 1e-12:
                raise DataError(f"marginal {name} must sum to 1, got {vec.sum()!r}")
            object.__setattr__(self, name, vec)

    @classmethod
    def uniform(cls, m: int, n: int) -> "Marginals":
        return cls(a=_uniform("m", m), b=_uniform("n", n))

    @classmethod
    def column_only(cls, n: int) -> "Marginals":
        return cls(a=None, b=_uniform("n", n))


def _uniform(name: str, size) -> np.ndarray:
    """A uniform distribution over ``size`` entries; ShapeMismatch below one."""
    size = _as_index(name, size)
    if size < 1:
        raise ShapeMismatch(f"{name} must be >= 1, got {size}")
    return np.full(size, 1.0 / size)


@dataclass(frozen=True)
class SinkhornConfig:
    """Solver settings.

    tol = 0 runs exactly ``max_iters`` sweeps; a positive tol stops early
    once the plan's marginal violation drops below it.  Feasibility-critical
    callers use tol=1e-8 with a few thousand sweeps; the 10-sweep default is
    the normalization operating point.
    """

    tau: float = 0.01
    max_iters: int = 10
    tol: float = 0.0

    def __post_init__(self):
        if not 0.0 < _as_real("tau", self.tau) < np.inf:
            raise NonPositiveTau(self.tau)
        if _as_index("max_iters", self.max_iters) < 1:
            raise DataError(f"max_iters must be >= 1, got {self.max_iters}")
        if not _as_real("tol", self.tol) >= 0:
            raise DataError(f"tol must be >= 0, got {self.tol}")


@dataclass(frozen=True)
class TransportPlan:
    """A nonnegative plan with the dual potentials that produced it.

    For entropic plans, f and g are log-domain potentials, whatever form the
    iteration took internally: ``pi = exp((S + f + g) / tau)`` exactly as
    stored (the free normalizing constant is absorbed into f).  Plans from
    non-entropic solvers carry ``f = g = None`` and ``tau = 0``.  A caller's
    ``pi`` is copied, and must be 2-D, finite and nonnegative, its f and g
    1-D; the library's solvers hand over a plan they have just computed
    with ``_adopt=True``, without the copy or a scan of its entries.
    """

    pi: np.ndarray
    f: np.ndarray | None
    g: np.ndarray | None
    tau: float
    iterations_run: int
    marginal_violation: float
    converged: bool = True
    _adopt: InitVar[bool] = False

    def __post_init__(self, _adopt):
        object.__setattr__(self, "pi", _freeze(self.pi, None if _adopt else 2, "plan", adopt=_adopt))
        if not _adopt and np.any(self.pi < 0.0):
            raise DataError("plan entries must be >= 0")
        for name in ("f", "g"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _freeze(getattr(self, name), None if _adopt else 1, f"potential {name}"))
        for name, intake in (("tau", _as_real), ("iterations_run", _as_index), ("marginal_violation", _as_real)):
            object.__setattr__(self, name, intake(name, getattr(self, name)))


def _violation(col_sums: np.ndarray, row_sums: np.ndarray | None, a: np.ndarray | None,
               b: np.ndarray) -> float:
    """L1 distance of a plan's column sums from b plus, unless a is None, of its row sums from a."""
    violation = float(np.abs(col_sums - b).sum())
    if a is not None:
        violation += float(np.abs(row_sums - a).sum())
    return violation


def _check_shapes(shape: tuple[int, int], marg: Marginals) -> None:
    """ShapeMismatch unless ``marg`` fits an m x n matrix."""
    m, n = shape
    if marg.a is not None and marg.a.shape[0] != m:
        raise ShapeMismatch(f"row marginal length {marg.a.shape[0]} vs {m} rows")
    if marg.b.shape[0] != n:
        raise ShapeMismatch(f"column marginal length {marg.b.shape[0]} vs {n} columns")


#: A log scaling that leaves [-_ABSORB, _ABSORB] is absorbed into the kernel.
_ABSORB = 200.0
#: Kernel entries that underflow each err by under ``tiny * w_j``, so a sum
#: ``K @ w`` above ``w.sum() * _LOST`` keeps float64 precision.
_LOST = np.finfo(np.float64).tiny / np.finfo(np.float64).eps


def _gather(blocks: tuple, lost: np.ndarray, on_rows: bool) -> np.ndarray:
    """``V[lost]`` (on rows) or ``V[:, lost].T`` of the matrix V whose column
    blocks are ``blocks``, laid out in memory as that indexing lays it out."""
    if on_rows:
        return np.concatenate([B[lost] for B in blocks], axis=1)
    edges = np.cumsum([0] + [B.shape[1] for B in blocks])
    return np.concatenate([B[:, lost[(lost >= lo) & (lost < hi)] - lo].T
                           for B, lo, hi in zip(blocks, edges, edges[1:])])


def _column_sums(K: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``w @ K`` by einsum, which adds each column's rows in row order, in
    column slabs (:func:`core._in_column_slabs`): the sums are the bits of
    one einsum over K whatever the slabs."""
    s = np.empty(K.shape[1])
    core._in_column_slabs(K.shape, lambda c: np.einsum("ij,i->j", K[:, c], w, out=s[c]))
    return s


def _sinkhorn_duals(blocks: tuple, a: np.ndarray | None, b: np.ndarray, cfg: SinkhornConfig,
                    kernel: np.ndarray | None = None):
    """Potentials of the balancing, without the plan: ``(f, g, sweeps,
    row_residual, converged)``; the residual is the L1 row residual of (f, g)
    after the last sweep (0 when rows are free).

    The scores V are given as a tuple of column blocks (one matrix is one
    block), so matrices that share their rows are balanced as one without
    being stacked: only the kernel spans every column.  The state is the log
    scalings u, v of ``K = exp((V + F + G) / tau)``: ``f = F + tau * u``,
    ``g = G + tau * v``.  An update sets one side's scaling to ``log(marginal
    / sums)``; the row update returns ``sum |exp(u) * (K @ exp(v)) - a|`` for
    the u it replaces, the row residual of (f, g).  The anchors start at minus
    the row (or, rows free, column) maxima and absorb both scalings when one
    leaves ``[-_ABSORB, _ABSORB]``, so K never exceeds 1.  Column sums use
    einsum, which adds in one order for every column, so equal columns get
    equal ``g`` (BLAS rounds the columns of a tail block apart); see
    :func:`_column_sums`.  K is built in ``kernel`` (a float64 m x n buffer) if given.
    """
    tau = cfg.tau
    m, n = blocks[0].shape[0], sum(B.shape[1] for B in blocks)
    log_a, log_b = None if a is None else np.log(a), np.log(b)
    # float64 whatever the blocks' dtype: the anchors absorb the potentials
    F, u, v = np.zeros(m), np.zeros(m), np.zeros(n)
    G = -np.concatenate([B.max(axis=0) for B in blocks], dtype=np.float64) if a is None else np.zeros(n)
    K = np.empty((m, n)) if kernel is None else kernel
    block_rows = core._pass_rows(n)

    def build(r, row_maxima=False):
        if row_maxima:
            F[r] = -np.maximum.reduce([B[r].max(axis=1) for B in blocks])
        Kr, lo = K[r], 0
        for B in blocks:
            hi = lo + B.shape[1]
            np.add(B[r], F[r, None], out=Kr[:, lo:hi])
            lo = hi
        np.add(Kr, G, out=Kr)
        np.divide(Kr, tau, out=Kr)
        np.exp(Kr, out=Kr)

    def update(on_rows):
        own, other, anchor, other_anchor, marg, log_marg = (
            (u, v, F, G, a, log_a) if on_rows else (v, u, G, F, b, log_b))
        w = np.exp(other)
        s = K @ w if on_rows else _column_sums(K, w)
        residual = float(np.abs(np.exp(own) * s - marg).sum())
        with np.errstate(divide="ignore"):
            np.subtract(log_marg, np.log(s), out=own)
        lost = np.flatnonzero(~(s >= w.sum() * _LOST))
        if lost.size:
            X = (_gather(blocks, lost, on_rows) + (other_anchor + tau * other)) / tau
            top = X.max(axis=1)
            own[lost] = log_marg[lost] - top - np.log(np.exp(X - top[:, None]).sum(axis=1)) - anchor[lost] / tau
        if np.abs(own).max() > _ABSORB:
            F[:], G[:], u[:], v[:] = F + tau * u, G + tau * v, 0.0, 0.0
            core._in_row_blocks(m, block_rows, build)
        return residual

    core._in_row_blocks(m, block_rows, lambda r: build(r, row_maxima=a is not None))
    if a is not None:
        update(True)
    converged = cfg.tol <= 0.0
    for sweep in range(cfg.max_iters):
        update(False)
        f, g = F + tau * u, G + tau * v
        residual = 0.0 if a is None else update(True)
        if cfg.tol > 0.0 and residual <= cfg.tol:
            converged = True
            break
    return f, g, sweep + 1, residual, converged


def sinkhorn(S: SimilarityMatrix, marg: Marginals, cfg: SinkhornConfig = SinkhornConfig()) -> TransportPlan:
    """Alternating balancing of rows and columns.

    One sweep updates ``f <- tau*log a - tau*LSE_j((S+g)/tau)`` then
    ``g <- tau*log b - tau*LSE_i((S+f)/tau)``, starting from g = 0 (the
    all-ones column scaling).  Each sweep ends on the column update, so the
    returned plan meets the column marginal to machine precision and the
    reported violation is dominated by the row residual.
    """
    _check_shapes(S.values.shape, marg)
    V = S.values
    m, n = V.shape
    pi = np.empty((m, n))
    f, g, iterations, _, converged = _sinkhorn_duals((V,), marg.a, marg.b, cfg, kernel=pi)
    block_rows = core._pass_rows(n)
    row_sums, col_partials = np.empty(m), np.empty((-(-m // block_rows), n))

    def plan(r):
        P = pi[r]  # exp((V + f + g) / tau), over the kernel
        np.add(V[r], f[r, None], out=P)
        P += g
        P /= cfg.tau
        np.exp(P, out=P)
        row_sums[r] = P.sum(axis=1)
        col_partials[r.start // block_rows] = P.sum(axis=0)

    core._in_row_blocks(m, block_rows, plan)
    return TransportPlan(
        pi=pi,
        f=f,
        g=g,
        tau=cfg.tau,
        iterations_run=iterations,
        marginal_violation=_violation(col_partials.sum(axis=0), row_sums, marg.a, marg.b),
        converged=converged,
        _adopt=True,
    )


def sn_normalize(S: SimilarityMatrix, cfg: SinkhornConfig = SinkhornConfig()) -> SimilarityMatrix:
    """Sinkhorn normalization: add the column dual potential to every row.

    Uses uniform marginals over the matrix's own rows and columns.  The row
    potential shifts all scores of a row equally and cannot change its
    ranking, so only ``g`` is applied.  The balancing goes through
    :func:`sinkhorn`, which also builds the plan, only to drop it here: the
    result is ``S + g`` alone, with no report of sweeps or convergence.
    """
    g = sinkhorn(S, Marginals.uniform(S.rows, S.cols), cfg).g
    return S._adopt_values(_plus_columns(S.values, g))


def estimate_target_hubness(
    S_bank_targets: SimilarityMatrix, cfg: SinkhornConfig = SinkhornConfig()
) -> HubnessVector:
    """Per-target compensation from balancing bank rows against targets.

    Runs the solver with uniform marginals on the bank-vs-target matrix and
    returns the column potential ``g`` in the additive convention (the
    normalized score is ``S + g``): :func:`dbsn_hubness` with no target bank.
    """
    return dbsn_hubness(S_bank_targets, None, cfg)


def dbsn_hubness(
    S_bq_targets: SimilarityMatrix,
    S_bq_tbank: SimilarityMatrix | None,
    cfg: SinkhornConfig = SinkhornConfig(),
) -> HubnessVector:
    """Dual-bank per-target compensation: the targets' share of the column
    potential from balancing the query bank against [targets | target bank].

    The two bank matrices are balanced as column blocks of one problem
    under uniform marginals, never stacked, so the kernel is the only buffer
    that spans both.  ``S_bq_tbank=None`` means an empty target bank.
    """
    blocks = (S_bq_targets.values,)
    if S_bq_tbank is not None:
        if S_bq_tbank.rows != S_bq_targets.rows:
            raise RowMismatch(
                f"bank similarity rows disagree: {S_bq_targets.rows} vs {S_bq_tbank.rows}"
            )
        blocks += (S_bq_tbank.values,)
    m, n = S_bq_targets.rows, sum(B.shape[1] for B in blocks)
    g = _sinkhorn_duals(blocks, np.full(m, 1.0 / m), np.full(n, 1.0 / n), cfg)[1]
    return HubnessVector(g[: S_bq_targets.cols], temperature=cfg.tau)


def dbsn(
    S: SimilarityMatrix,
    S_bq_targets: SimilarityMatrix,
    S_bq_tbank: SimilarityMatrix | None,
    cfg: SinkhornConfig = SinkhornConfig(),
) -> SimilarityMatrix:
    """Dual-bank Sinkhorn normalization: S plus :func:`dbsn_hubness`.

    Extends the target columns with target-bank columns before estimating
    hubness against the query bank, then applies only the first n entries of
    the estimate (the true targets' share) to S.  The bank extension narrows
    the distribution gap between the query bank and the column set it is
    balanced against.
    """
    if S_bq_targets.cols != S.cols:
        raise ColMismatch(f"{S.cols} target columns vs {S_bq_targets.cols} bank-target columns")
    return apply_hubness(S, dbsn_hubness(S_bq_targets, S_bq_tbank, cfg))


def plan_entropy(plan: TransportPlan) -> float:
    """``sum -pi_ij (log pi_ij - 1)`` with the 0 log 0 = 0 convention."""
    pi = plan.pi
    positive = pi > 0.0
    terms = np.log(pi, out=np.zeros_like(pi), where=positive)
    np.subtract(1.0, terms, out=terms, where=positive)  # -(log pi - 1), exactly
    np.multiply(terms, pi, out=terms, where=positive)
    return float(terms.sum())


def marginal_violation(plan: TransportPlan, marg: Marginals) -> float:
    """L1 distance of the plan's row and column sums from (a, b)."""
    pi = plan.pi
    _check_shapes(pi.shape, marg)
    return _violation(pi.sum(axis=0), None if marg.a is None else pi.sum(axis=1), marg.a, marg.b)
