"""Non-entropic normalization variants and the plan-sparsity metric.

Three ablation normalizers share the transport-plan interface with the
Sinkhorn solver, each solved exactly:

* ``otn`` solves the unregularized linear program ``max <S, pi>`` over the
  transportation polytope: by the assignment solver under uniform square
  marginals, by HiGHS otherwise.
* ``l2n`` computes the Euclidean projection of ``coeff * S`` onto the
  polytope from its smooth dual: L-BFGS-B, then Newton steps on the support.
* ``hn`` solves the one-to-one assignment problem.

All three land on (or near) a vertex of the polytope, so their plans are
overwhelmingly sparse, in contrast to the strictly positive entropic plan.
"""

import numpy as np

from .core import SimilarityMatrix
from .errors import DataError, EmptyPlan
from .sinkhorn import Marginals, TransportPlan, _check_shapes, _violation


def _plan(pi: np.ndarray, iterations: int, violation: float, converged: bool = True) -> TransportPlan:
    """Hand over a freshly computed non-entropic plan: no potentials, tau = 0."""
    return TransportPlan(pi=pi, f=None, g=None, tau=0.0, iterations_run=iterations,
                         marginal_violation=violation, converged=converged, _adopt=True)


def otn(S: SimilarityMatrix, marg: Marginals) -> TransportPlan:
    """Linear OT: an exact vertex of the transportation polytope maximizing ``<S, pi>``.

    Requires both marginals.  Under uniform square marginals the optimum is a
    permutation matrix divided by n (Birkhoff-von Neumann), found by the
    assignment solver.  Any other marginals go to HiGHS's linear program on
    the (m + n)-row equality system, with S scaled to max |S| = 1 and both
    feasibility tolerances at their floor of 1e-10, so the objective is
    optimal to about 1e-10 * max |S|; its simplex vertex meets both marginals
    to roundoff.  The plan carries no dual potentials.
    """
    if marg.a is None:
        raise DataError("otn requires both marginals")
    _check_shapes(S, marg)
    V = S.values
    m, n = V.shape
    a, b = marg.a, marg.b
    if m == n and np.all(a == a[0]) and np.all(b == a[0]):
        from scipy.optimize import linear_sum_assignment

        rows, cols = linear_sum_assignment(V, maximize=True)
        pi = np.zeros((m, n))
        pi[rows, cols] = a[0]
        iterations = 1
    else:
        from scipy import sparse
        from scipy.optimize import linprog

        sums = sparse.vstack([sparse.kron(sparse.eye(m), np.ones(n)), sparse.kron(np.ones(m), sparse.eye(n))])
        cost = np.divide(-V.ravel(), float(np.abs(V).max()) or 1.0, dtype=np.float64)
        tight = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
        res = linprog(cost, A_eq=sums.tocsr(), b_eq=np.concatenate([a, b]), method="highs", options=tight)
        if res.status != 0:
            raise DataError(f"otn linear program failed: {res.message}")
        pi = np.maximum(res.x.reshape(m, n), 0.0)
        iterations = int(res.nit)
    return _plan(pi, iterations, _violation(pi, a, b))


def l2n(
    S: SimilarityMatrix,
    marg: Marginals,
    coeff: float = 100.0,
    max_sweeps: int = 2000,
    tol: float = 1e-10,
) -> TransportPlan:
    """Euclidean projection of ``coeff * S`` onto the transportation polytope.

    With z = coeff * S the projection is ``x = max(z + u 1' + 1 v', 0)``, where
    (u, v) minimize the smooth dual ``||x||^2 / 2 - a.u - b.v`` (Blondel, Seguy
    & Rolet 2018), whose gradient is the marginal residual of x.  L-BFGS-B
    (gradient tolerance ``tol``) runs from zero; Newton steps on the support
    {x > 0} then solve the marginal equations there until no entry crosses
    zero by more than rounding, so x holds exact zeros.  ``max_sweeps`` caps
    L-BFGS-B iterations plus Newton steps; ``converged`` says the support
    settled within it with every marginal residual at most ``tol``.
    """
    from scipy.optimize import minimize

    if marg.a is None:
        raise DataError("l2n requires both marginals")
    if coeff <= 0:
        raise DataError(f"coeff must be > 0, got {coeff}")
    _check_shapes(S, marg)
    a, b = marg.a, marg.b
    z = np.multiply(coeff, S.values, dtype=np.float64)
    m, n = z.shape

    def shifted(w):
        return z + w[:m, None] + w[None, m:]

    def dual(w):
        x = np.maximum(shifted(w), 0.0)
        residual = np.concatenate([x.sum(axis=1) - a, x.sum(axis=0) - b])
        return 0.5 * float(np.sum(x * x)) - float(a @ w[:m]) - float(b @ w[m:]), residual

    options = {"maxiter": max_sweeps, "gtol": tol, "ftol": 0.0}
    res = minimize(dual, np.zeros(m + n), jac=True, method="L-BFGS-B", options=options)
    w, sweeps = res.x, int(res.nit)
    support = shifted(w) > 0.0
    settled = False
    while not settled and sweeps < max_sweeps:
        P = support.astype(np.float64)
        H = np.block([[np.diag(P.sum(axis=1)), P], [P.T, np.diag(P.sum(axis=0))]])
        w = w - np.linalg.lstsq(H, dual(w)[1], rcond=None)[0]
        sweeps += 1
        s = shifted(w)
        # An entry within rounding of zero may fall on either side of it.
        wobble = 4.0 * np.finfo(np.float64).eps * (np.abs(z).max() + 2.0 * np.abs(w).max())
        settled = not np.any(((s > 0.0) != support) & (np.abs(s) > wobble))
        support = s > 0.0
    # Support blocks of unequal row and column mass can settle unsolved.
    converged = settled and np.abs(dual(w)[1]).max() <= tol
    x = np.maximum(shifted(w), 0.0)
    return _plan(x, sweeps, _violation(x, a, b), converged)


def hn(S: SimilarityMatrix) -> TransportPlan:
    """Maximum-similarity one-to-one assignment as a binary plan.

    Assigns min(m, n) pairs; with more queries than targets the surplus
    query rows are all-zero.
    """
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(S.values, maximize=True)
    pi = np.zeros(S.values.shape)
    pi[rows, cols] = 1.0
    return _plan(pi, 1, 0.0)


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
    span = float(S.values.max()) - float(S.values.min())
    return S._adopt_values(S.values + (span + 1.0) * plan.pi)


def _sparsity(pi: np.ndarray, eps_rel: float) -> float:
    """Fraction of the entries of ``pi`` below ``eps_rel`` times the largest."""
    if pi.size == 0:
        raise EmptyPlan("plan has no entries")
    # a float64 threshold: a float32 ``pi`` is compared in float64
    return float(np.mean(pi < np.float64(eps_rel) * pi.max()))


def sparsity(plan: TransportPlan, eps_rel: float = 1e-9) -> float:
    """Fraction of plan entries below ``eps_rel`` times the largest entry."""
    return _sparsity(plan.pi, eps_rel)
