"""Non-entropic normalization variants and the plan-sparsity metric.

Three ablation normalizers share the transport-plan interface with the
Sinkhorn solver:

* ``otn`` solves the unregularized linear program ``max <S, pi>`` over the
  transportation polytope by annealing the entropic temperature toward zero
  and rounding the final plan to exact marginals.
* ``l2n`` computes the Euclidean projection of ``coeff * S`` onto the
  polytope with Dykstra's alternating projections between the row-simplex
  and column-simplex products.
* ``hn`` solves the one-to-one assignment problem.

All three land on (or near) a vertex of the polytope, so their plans are
overwhelmingly sparse, in contrast to the strictly positive entropic plan.
"""

from dataclasses import dataclass

import numpy as np

from .core import SimilarityMatrix
from .errors import DataError, EmptyPlan, NonPositiveTau
from .sinkhorn import Marginals, TransportPlan, _check_shapes


@dataclass(frozen=True)
class AnnealSchedule:
    """Temperature ladder for the linear-OT solver.

    Stages run at tau_start, tau_start*decay, ... with a final stage pinned
    at tau_min; duals are warm-started across stages.
    """

    tau_start: float = 0.1
    decay: float = 0.5
    tau_min: float = 1e-3
    inner_iters: int = 200

    def __post_init__(self):
        if self.tau_start <= 0:
            raise NonPositiveTau(self.tau_start)
        if self.tau_min <= 0:
            raise NonPositiveTau(self.tau_min)
        if not self.tau_min < self.tau_start:
            raise DataError(f"tau_min {self.tau_min} must be below tau_start {self.tau_start}")
        if not 0.0 < self.decay < 1.0:
            raise DataError(f"decay must lie in (0,1), got {self.decay}")
        if self.inner_iters < 1:
            raise DataError(f"inner_iters must be >= 1, got {self.inner_iters}")

    def stages(self) -> list[float]:
        taus = []
        tau = self.tau_start
        while tau > self.tau_min:
            taus.append(tau)
            tau *= self.decay
        taus.append(self.tau_min)
        return taus


def _round_to_marginals(pi: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Scale rows/columns down to their marginals, then fill the residual.

    The rank-one correction redistributes exactly the missing mass, so the
    result is feasible up to floating-point roundoff; its entries are tiny
    whenever the input was nearly feasible.
    """
    scale_r = np.minimum(1.0, a / pi.sum(axis=1))
    pi = pi * scale_r[:, None]
    scale_c = np.minimum(1.0, b / pi.sum(axis=0))
    pi = pi * scale_c[None, :]
    err_r = np.maximum(a - pi.sum(axis=1), 0.0)
    err_c = np.maximum(b - pi.sum(axis=0), 0.0)
    missing = err_r.sum()
    if missing > 0.0:
        pi = pi + np.outer(err_r, err_c) / missing
    return pi


def otn(
    S: SimilarityMatrix, marg: Marginals, sched: AnnealSchedule = AnnealSchedule()
) -> TransportPlan:
    """Linear OT by temperature annealing plus exact-feasibility rounding.

    Requires both marginals.  Within each stage the duals are updated until
    the row residual falls below a fraction of the working temperature or
    the stage budget runs out; the final plan is rounded so both marginals
    hold to ~1e-12.  The returned plan omits dual potentials because the
    rounding step breaks the exponential-form reconstruction.
    """
    from scipy.special import logsumexp

    if marg.a is None:
        raise DataError("otn requires both marginals")
    _check_shapes(S, marg)
    V = S.values
    a, b = marg.a, marg.b
    log_a, log_b = np.log(a), np.log(b)
    f = np.zeros(V.shape[0])
    g = np.zeros(V.shape[1])
    sweeps = 0
    for tau in sched.stages():
        stage_tol = min(1e-9, tau * 1e-6)
        for _ in range(sched.inner_iters):
            f = tau * log_a - tau * logsumexp((V + g[None, :]) / tau, axis=1)
            g = tau * log_b - tau * logsumexp((V + f[:, None]) / tau, axis=0)
            sweeps += 1
            f_next = tau * log_a - tau * logsumexp((V + g[None, :]) / tau, axis=1)
            row_sums = np.exp(log_a + (f - f_next) / tau)
            if np.abs(row_sums - a).sum() <= stage_tol:
                f = f_next
                break
    tau_final = sched.tau_min
    pi = np.exp((V + f[:, None] + g[None, :]) / tau_final)
    pi = _round_to_marginals(pi, a, b)
    violation = float(np.abs(pi.sum(axis=1) - a).sum() + np.abs(pi.sum(axis=0) - b).sum())
    return TransportPlan(
        pi=pi,
        f=None,
        g=None,
        tau=tau_final,
        iterations_run=sweeps,
        marginal_violation=violation,
        _adopt=True,
    )


def _project_rows_simplex(X: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Project each row of X onto {v >= 0, sum v = totals[i]} (exact, sort-based)."""
    n = X.shape[1]
    U = -np.sort(-X, axis=1)
    css = np.cumsum(U, axis=1) - totals[:, None]
    ks = np.arange(1, n + 1)
    positive = U - css / ks > 0.0
    rho = n - 1 - np.argmax(positive[:, ::-1], axis=1)
    theta = css[np.arange(X.shape[0]), rho] / (rho + 1)
    return np.maximum(X - theta[:, None], 0.0)


def _presolve_duals(
    z: np.ndarray, a: np.ndarray, b: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Near-optimal equality multipliers for min ||x - z||^2 over the polytope.

    Accelerated gradient ascent on the concave dual of the projection QP
    (x(u, v) = max(z + u + v, 0) row/column broadcast); restarts whenever the
    dual value dips.  Only used to warm-start Dykstra, so a loose feasibility
    stop suffices.
    """
    m, n = z.shape
    u = np.zeros(m)
    v = np.zeros(n)
    uy, vy = u, v
    t = 1.0
    step = 1.0 / (m + n)
    best_phi = -np.inf
    for _ in range(200 * (m + n)):
        x = np.maximum(z + uy[:, None] + vy[None, :], 0.0)
        gu = a - x.sum(axis=1)
        gv = b - x.sum(axis=0)
        if np.abs(gu).sum() + np.abs(gv).sum() <= tol:
            u, v = uy, vy
            break
        u_new = uy + step * gu
        v_new = vy + step * gv
        t_new = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        uy = u_new + (t - 1.0) / t_new * (u_new - u)
        vy = v_new + (t - 1.0) / t_new * (v_new - v)
        phi = -0.5 * float(np.sum(x * x)) + float(u_new @ a) + float(v_new @ b)
        if phi < best_phi:
            uy, vy = u_new, v_new
            t_new = 1.0
        best_phi = max(best_phi, phi)
        u, v, t = u_new, v_new, t_new
    return u, v


def l2n(
    S: SimilarityMatrix,
    marg: Marginals,
    coeff: float = 100.0,
    max_sweeps: int = 2000,
    tol: float = 1e-10,
) -> TransportPlan:
    """Euclidean projection of ``coeff * S`` onto the transportation polytope.

    Dykstra's algorithm alternates exact projections onto the product of row
    simplices (rows sum to a, entries nonnegative) and of column simplices
    (columns sum to b), with correction terms that make the limit the true
    projection rather than a mere feasible point.  Started cold, Dykstra
    crawls for thousands of sweeps on this polytope pair (the corrections
    grow linearly while the iterate sits still), so the correction vectors
    are warm-started from a dual pre-solve; at the dual optimum the
    corrections are -u broadcast minus the clipped slack and -v broadcast,
    which makes the sweeps settle immediately.  Stops when successive
    iterates (the row-feasible and column-feasible projections) agree within
    ``tol`` in Frobenius norm; if the sweep budget runs out first, the best
    iterate is returned with ``converged=False``.
    """
    if marg.a is None:
        raise DataError("l2n requires both marginals")
    if coeff <= 0:
        raise DataError(f"coeff must be > 0, got {coeff}")
    _check_shapes(S, marg)
    a, b = marg.a, marg.b
    z = coeff * S.values
    u, v = _presolve_duals(z, a, b, tol=max(tol, 1e-9))
    shifted = z + u[:, None] + v[None, :]
    x = np.maximum(shifted, 0.0)
    p = -u[:, None] + np.minimum(shifted, 0.0)
    q = np.broadcast_to(-v[None, :], z.shape).copy()
    converged = False
    sweeps = 0
    for sweep in range(max_sweeps):
        y = _project_rows_simplex(x + p, a)
        p = x + p - y
        x_new = _project_rows_simplex((y + q).T, b).T
        q = y + q - x_new
        gap = max(float(np.linalg.norm(y - x_new)), float(np.linalg.norm(x_new - x)))
        x = x_new
        sweeps = sweep + 1
        if gap < tol:
            converged = True
            break
    violation = float(np.abs(x.sum(axis=1) - a).sum() + np.abs(x.sum(axis=0) - b).sum())
    return TransportPlan(
        pi=x,
        f=None,
        g=None,
        tau=0.0,
        iterations_run=sweeps,
        marginal_violation=violation,
        converged=converged,
        _adopt=True,
    )


def hn(S: SimilarityMatrix) -> TransportPlan:
    """Maximum-similarity one-to-one assignment as a binary plan.

    Assigns min(m, n) pairs; with more queries than targets the surplus
    query rows are all-zero.
    """
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(S.values, maximize=True)
    pi = np.zeros(S.values.shape)
    pi[rows, cols] = 1.0
    return TransportPlan(
        pi=pi,
        f=None,
        g=None,
        tau=0.0,
        iterations_run=1,
        marginal_violation=0.0,
        _adopt=True,
    )


def hn_normalize(S: SimilarityMatrix, literal: bool = False) -> SimilarityMatrix:
    """Similarity scores carrying the assignment's ranking semantics.

    Default: the assigned target of each row is boosted above every raw
    score while all other targets keep their raw order.  ``literal=True``
    instead returns the bare zero/one plan as scores, which ranks all
    unassigned targets as an index-order tie.
    """
    plan = hn(S)
    if literal:
        return S.with_values(plan.pi)
    span = float(S.values.max() - S.values.min())
    return S._adopt_values(S.values + (span + 1.0) * plan.pi)


def sparsity(plan: TransportPlan, eps_rel: float = 1e-9) -> float:
    """Fraction of plan entries below ``eps_rel`` times the largest entry."""
    pi = plan.pi
    if pi.size == 0:
        raise EmptyPlan("plan has no entries")
    return float(np.mean(pi < eps_rel * pi.max()))
