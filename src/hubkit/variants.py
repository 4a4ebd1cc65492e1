"""Non-entropic normalization variants and the plan-sparsity metric.

Three ablation normalizers share the transport-plan interface with the
Sinkhorn solver, each solved exactly:

* ``otn`` solves the unregularized linear program ``max <S, pi>`` over the
  transportation polytope: by the assignment solver under uniform square
  marginals, by HiGHS otherwise.
* ``l2n`` computes the Euclidean projection of ``coeff * S`` onto the
  polytope from its smooth dual, by one regularized semismooth Newton loop.
* ``hn`` solves the one-to-one assignment problem.

``hn`` and ``otn``'s uniform square case share one assignment
(:func:`_assignment`), at mass 1 and 1/n on each assigned pair.

All three land on (or near) a vertex of the polytope, so their plans are
overwhelmingly sparse, in contrast to the strictly positive entropic plan.
"""

import numpy as np

from .core import SimilarityMatrix
from .errors import DataError, EmptyPlan, _as_index
from .sinkhorn import Marginals, TransportPlan, _check_shapes, _violation


def _assignment(V: np.ndarray, mass: float) -> np.ndarray:
    """The maximum-score one-to-one assignment of V's rows to its columns as
    a dense plan holding ``mass`` on each assigned pair."""
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(V, maximize=True)
    pi = np.zeros(V.shape)
    pi[rows, cols] = mass
    return pi


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
    _check_shapes(S.values.shape, marg)
    V = S.values
    m, n = V.shape
    a, b = marg.a, marg.b
    if m == n and np.all(a == a[0]) and np.all(b == a[0]):
        pi, iterations = _assignment(V, a[0]), 1
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
    return _plan(pi, iterations, _violation(pi.sum(axis=0), pi.sum(axis=1), a, b))


def l2n(
    S: SimilarityMatrix,
    marg: Marginals,
    coeff: float = 100.0,
    max_sweeps: int = 2000,
    tol: float = 1e-10,
) -> TransportPlan:
    """Euclidean projection of ``coeff * S`` onto the transportation polytope.

    With z = coeff * S the projection is ``x = max(z + u 1' + 1 v', 0)``, where
    w = (u, v) minimizes the smooth dual ``||x||^2 / 2 - a.u - b.v`` (Blondel,
    Seguy & Rolet 2018), whose gradient r is the marginal residual of x.  From
    w = 0 each semismooth Newton step (Lorenz, Manns & Meyer 2021) solves
    ``(H + mu I) d = -r`` by sparse LU, where H is the generalized Hessian
    ``[[diag(P 1), P], [P', diag(P' 1)]]`` of the support P = {x > 0} and
    ``mu = 0.1 min(||r||, 1)^1.5``, at least 1e-12.  The step backtracks until
    the dual value falls by the Armijo fraction; once ``max |r| <= 1e-6`` a
    step that halves max |r| is accepted too, since there the change in the
    dual value is lost in rounding.  The loop stops once max |r| <= ``tol``
    and the last step no longer halved it.  ``max_sweeps`` caps the Newton
    steps; ``converged`` says every marginal residual is at most ``tol``.
    """
    if marg.a is None:
        raise DataError("l2n requires both marginals")
    if not 0.0 < coeff < np.inf:
        raise DataError(f"coeff must be finite and > 0, got {coeff}")
    if _as_index("max_sweeps", max_sweeps) < 1:
        raise DataError(f"max_sweeps must be >= 1, got {max_sweeps}")
    if not tol >= 0.0:
        raise DataError(f"tol must be >= 0, got {tol}")
    _check_shapes(S.values.shape, marg)
    from scipy import sparse
    from scipy.sparse.linalg import spsolve

    a, b = marg.a, marg.b
    z = np.multiply(coeff, S.values, dtype=np.float64)
    m, n = z.shape

    def dual(w):
        x = z + w[:m, None]
        x += w[m:]
        np.maximum(x, 0.0, out=x)
        residual = np.concatenate([x.sum(axis=1) - a, x.sum(axis=0) - b])
        return 0.5 * float(np.vdot(x, x)) - float(a @ w[:m]) - float(b @ w[m:]), residual, x

    w = np.zeros(m + n)
    value, r, x = dual(w)
    worst, halved, steps = np.abs(r).max(), True, 0
    while steps < max_sweeps and (worst > tol or halved):
        i, j = np.nonzero(x)  # the support, row by row
        count = np.bincount(np.concatenate([i, m + j]), minlength=m + n)
        at = np.cumsum(count) - count
        mu = max(0.1 * min(float(np.linalg.norm(r)), 1.0) ** 1.5, 1e-12)
        # column i < m of H + mu I holds i and m + the support of row i;
        # column m + j holds m + j and the support of column j
        indices = np.insert(np.concatenate([m + j, i[np.argsort(j, kind="stable")]]), at, np.arange(m + n))
        data = np.insert(np.ones(2 * i.size), at, count + mu)
        H = sparse.csc_array((data, indices, np.concatenate([[0], np.cumsum(count + 1)])), shape=(m + n, m + n))
        # Eliminating the row potentials first factors these bipartite
        # systems faster than a fill-reducing column order does.
        d = spsolve(H, -r, permc_spec="NATURAL")
        for t in 0.5 ** np.arange(40):
            trial = dual(w + t * d)
            trial_worst = np.abs(trial[1]).max()
            halved = trial_worst < 0.5 * worst
            if trial[0] <= value + 1e-4 * t * float(r @ d) or (worst <= 1e-6 and halved):
                break
        else:
            break  # no step length lowers the dual value beyond rounding
        w = w + t * d
        (value, r, x), worst = trial, trial_worst
        steps += 1
    return _plan(x, steps, _violation(x.sum(axis=0), x.sum(axis=1), a, b), bool(worst <= tol))


def hn(S: SimilarityMatrix) -> TransportPlan:
    """Maximum-similarity one-to-one assignment as a binary plan.

    Assigns min(m, n) pairs; with more queries than targets the surplus
    query rows are all-zero.
    """
    return _plan(_assignment(S.values, 1.0), 1, 0.0)


def hn_normalize(S: SimilarityMatrix, literal: bool = False) -> SimilarityMatrix:
    """Similarity scores carrying the assignment's ranking semantics.

    Default: the assigned target of each row is boosted above every raw
    score while all other targets keep their raw order.  ``literal=True``
    instead returns the bare zero/one plan as scores, which ranks all
    unassigned targets as an index-order tie.
    """
    plan = hn(S)
    if literal:
        return S._adopt_values(plan.pi)
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
