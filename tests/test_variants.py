"""Exact linear OT, Euclidean projection, and hard-assignment normalizers."""

import itertools
import types
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hubkit import (
    DataError,
    EmptyPlan,
    Marginals,
    SimilarityMatrix,
    hn,
    hn_normalize,
    l2n,
    marginal_violation,
    otn,
    sparsity,
)


def _best_permutation_objective(V):
    """Exact linear-OT optimum over the Birkhoff vertices of an n x n instance."""
    n = V.shape[0]
    best = -np.inf
    for perm in itertools.permutations(range(n)):
        best = max(best, sum(V[i, perm[i]] for i in range(n)) / n)
    return best


def _greedy_two_row_objective(V, a, b):
    """Exact linear-OT optimum of a 2 x n instance.

    Column j splits its mass b_j as (x_j, b_j - x_j) between the rows, so the
    objective is ``V[1] @ b + sum_j (V[0, j] - V[1, j]) x_j`` with
    0 <= x_j <= b_j and sum x_j = a_0: fill row 0 greedily by descending
    ``V[0, j] - V[1, j]``.
    """
    gain = V[0] - V[1]
    left = a[0]
    total = float(V[1] @ b)
    for j in np.argsort(-gain, kind="stable"):
        take = min(b[j], left)
        total += gain[j] * take
        left -= take
    return total


def _dual_ascent_projection(z, a, b):
    """Euclidean projection of z onto the polytope by accelerated gradient ascent.

    Nesterov's momentum on the projection dual at the plain ascent's step
    1 / (m + n), restarted whenever the momentum runs against the gradient,
    until the L1 marginal residual falls to 1e-12.  Plain ascent stalls where
    entries end near zero: on ``_STALLING_INPUT`` it sits at a residual of
    2.5e-6 for millions of steps, which this form clears in about 7k.
    """
    m, n = z.shape
    step = 1.0 / (m + n)
    w = np.zeros(m + n)  # the duals (u, v)
    y, t = w, 1.0
    for _ in range(400_000):
        x = np.maximum(z + y[:m, None] + y[None, m:], 0.0)
        grad = np.concatenate([a - x.sum(axis=1), b - x.sum(axis=0)])
        if np.abs(grad).sum() <= 1e-12:
            return x
        w_next = y + step * grad
        if grad @ (w_next - w) < 0.0:
            y, t = w_next, 1.0
        else:
            t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
            y, t = w_next + (t - 1.0) / t_next * (w_next - w), t_next
        w = w_next
    raise AssertionError("the gradient oracle did not converge")


#: (V, a weights, b weights) on which plain dual ascent stalls at coeff 10.
_STALLING_INPUT = (np.random.default_rng(1).uniform(-1, 1, (2, 4)), [1.0, 1.0], [1.0, 1.0, 1.0, 0.99999])


def _marginal(weights):
    w = np.asarray(weights)
    return w / w.sum()


_weights = st.floats(0.2, 1.0)


class TestOtn:
    def test_requires_row_marginal(self):
        S = SimilarityMatrix(np.zeros((3, 3)) + 0.1)
        with pytest.raises(DataError):
            otn(S, Marginals.column_only(3))

    def test_rounded_plan_is_feasible(self):
        rng = np.random.default_rng(33)
        S = SimilarityMatrix(rng.uniform(-1, 1, (6, 9)))
        marg = Marginals.uniform(6, 9)
        plan = otn(S, marg)
        assert np.all(plan.pi >= 0)
        np.testing.assert_allclose(plan.pi.sum(axis=1), marg.a, atol=1e-9)
        np.testing.assert_allclose(plan.pi.sum(axis=0), marg.b, atol=1e-9)

    def test_near_vertex_optimum_on_small_squares(self):
        rng = np.random.default_rng(34)
        marg = Marginals.uniform(4, 4)
        for _ in range(5):
            V = rng.uniform(-1, 1, (4, 4))
            plan = otn(SimilarityMatrix(V), marg)
            achieved = float((V * plan.pi).sum())
            assert abs(achieved - _best_permutation_objective(V)) <= 1e-12

    def test_uniform_square_plan_is_a_scaled_permutation(self):
        rng = np.random.default_rng(46)
        n = 30
        plan = otn(SimilarityMatrix(rng.uniform(-1, 1, (n, n))), Marginals.uniform(n, n))
        cols = plan.pi.argmax(axis=1)
        assert sorted(cols.tolist()) == list(range(n))
        expected = np.zeros((n, n))
        expected[np.arange(n), cols] = 1.0 / n
        np.testing.assert_array_equal(plan.pi, expected)
        assert plan.marginal_violation == 0.0

    @pytest.mark.parametrize("scale", [1.0, 1e-8])
    def test_linear_program_resolves_near_tied_costs(self, scale):
        """A cost gap of 1e-8 * max |S|: HiGHS's default 1e-7 tolerance treats it
        as a tie, and at scale 1e-8 so would 1e-10 on unscaled costs."""
        V = scale * np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1e-8, 0.0, 0.0]])
        a, b = np.array([0.5, 0.5]), np.full(4, 0.25)
        plan = otn(SimilarityMatrix(V), Marginals(a=a, b=b))
        gap = float((V * plan.pi).sum()) - _greedy_two_row_objective(V, a, b)
        assert abs(gap) <= 1e-12 * scale

    @given(
        data=st.data(),
        n=st.integers(1, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_two_row_optimum_matches_greedy(self, data, n):
        V = np.array(data.draw(st.lists(st.floats(-1, 1), min_size=2 * n, max_size=2 * n))).reshape(2, n)
        a = _marginal(data.draw(st.lists(_weights, min_size=2, max_size=2)))
        b = _marginal(data.draw(st.lists(_weights, min_size=n, max_size=n)))
        marg = Marginals(a=a, b=b)
        plan = otn(SimilarityMatrix(V), marg)
        assert np.all(plan.pi >= 0.0)
        gap = float((V * plan.pi).sum()) - _greedy_two_row_objective(V, a, b)
        # HiGHS is optimal to its dual feasibility tolerance, 1e-10 of the scaled costs
        assert abs(gap) <= 1e-12 + 1e-10 * np.abs(V).max()
        assert plan.marginal_violation <= 1e-12

    @given(
        n=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
        ties=st.booleans(),
        dtype=st.sampled_from([np.float64, np.float32]),
    )
    @settings(max_examples=80, deadline=None)
    def test_uniform_square_plan_is_the_assignment_at_mass_one_over_n(self, n, seed, ties, dtype):
        """Birkhoff-von Neumann: the optimum is hn's permutation, bit for bit."""
        rng = np.random.default_rng(seed)
        V = rng.integers(-2, 3, (n, n)) / 4.0 if ties else rng.uniform(-1, 1, (n, n))
        S = SimilarityMatrix(V.astype(dtype))
        plan = otn(S, Marginals.uniform(n, n))
        np.testing.assert_array_equal(plan.pi, hn(S).pi * (1.0 / n), strict=True)
        assert plan.marginal_violation == 0.0

    def test_beats_product_plan(self):
        rng = np.random.default_rng(35)
        V = rng.uniform(-1, 1, (5, 6))
        marg = Marginals.uniform(5, 6)
        plan = otn(SimilarityMatrix(V), marg)
        product = float((V * np.outer(marg.a, marg.b)).sum())
        assert float((V * plan.pi).sum()) >= product - 1e-9


#: Inputs on which an earlier two-phase solver ended unconverged at coeff 1e4.
_LARGE_COEFF_INPUTS = [((2, 3), 20), ((2, 3), 34), ((4, 5), 58), ((3, 4), 72)]


class TestL2n:
    def test_feasible_point_is_its_own_projection(self):
        marg = Marginals.uniform(3, 4)
        S = SimilarityMatrix(np.outer(marg.a, marg.b))
        plan = l2n(S, marg, coeff=1.0)
        np.testing.assert_allclose(plan.pi, S.values, atol=1e-8)

    def test_projection_is_feasible(self):
        rng = np.random.default_rng(36)
        S = SimilarityMatrix(rng.uniform(-1, 1, (5, 7)))
        marg = Marginals.uniform(5, 7)
        plan = l2n(S, marg)
        assert plan.converged
        assert np.all(plan.pi >= -1e-12)
        assert plan.marginal_violation <= 1e-6

    def test_idempotent(self):
        """Projecting the projection moves it by at most the tolerance."""
        rng = np.random.default_rng(37)
        S = SimilarityMatrix(rng.uniform(-1, 1, (4, 6)))
        marg = Marginals.uniform(4, 6)
        first = l2n(S, marg)
        second = l2n(SimilarityMatrix(first.pi), marg, coeff=1.0)
        assert np.linalg.norm(second.pi - first.pi) <= 1e-6

    def test_variational_optimality_certificate(self):
        """<z - x, y - x> <= 0 for every vertex y of the polytope.

        For uniform square marginals the vertices are the scaled permutation
        matrices, so checking all of them certifies x is the true Euclidean
        projection of z, independent of how it was computed.
        """
        rng = np.random.default_rng(38)
        V = rng.uniform(-1, 1, (4, 4))
        marg = Marginals.uniform(4, 4)
        coeff = 100.0
        plan = l2n(SimilarityMatrix(V), marg, coeff=coeff)
        z = coeff * V
        inner_x = float(((z - plan.pi) * plan.pi).sum())
        for perm in itertools.permutations(range(4)):
            vertex = np.zeros((4, 4))
            vertex[range(4), perm] = 0.25
            assert float(((z - plan.pi) * vertex).sum()) <= inner_x + 1e-7

    @given(
        data=st.data(),
        m=st.integers(2, 5),
        n=st.integers(2, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_gradient_oracle_off_square_and_off_uniform(self, data, m, n, seed):
        """Generic similarities (seeded uniform draws) at coeff 10, where the
        projection is still sparse and the gradient oracle converges well
        within its step cap."""
        assume(m != n)
        V = np.random.default_rng(seed).uniform(-1, 1, (m, n))
        a = data.draw(st.lists(_weights, min_size=m, max_size=m))
        b = data.draw(st.lists(_weights, min_size=n, max_size=n))
        self._check_against_oracle(V, a, b)

    def test_matches_gradient_oracle_where_plain_ascent_stalls(self):
        self._check_against_oracle(*_STALLING_INPUT)

    @staticmethod
    def _check_against_oracle(V, a_weights, b_weights):
        a, b = _marginal(a_weights), _marginal(b_weights)
        plan = l2n(SimilarityMatrix(V), Marginals(a=a, b=b), coeff=10.0)
        assert plan.converged
        assert np.all(plan.pi >= 0.0)
        assert plan.marginal_violation <= 1e-12
        assert np.linalg.norm(plan.pi - _dual_ascent_projection(10.0 * V, a, b)) <= 1e-6

    @pytest.mark.parametrize("shape, seed", [((2, 3), 6), ((3, 5), 3), ((4, 6), 33)])
    def test_converged_despite_quasi_newton_line_search_stall(self, shape, seed):
        """Instances where a quasi-Newton line search on the dual fails; the
        Newton loop's plan is exact."""
        V = np.random.default_rng(seed).uniform(-1, 1, shape)
        plan = l2n(SimilarityMatrix(V), Marginals.uniform(*shape))
        assert plan.converged
        assert plan.marginal_violation <= 1e-12

    @pytest.mark.parametrize("shape, seed", _LARGE_COEFF_INPUTS)
    def test_converged_only_when_feasible(self, shape, seed):
        """At coeff = 1e4 the dual is piecewise linear over most of its
        domain, and a support of row/column blocks of unequal mass meets no
        marginal; a plan that misses the marginals must not claim
        convergence."""
        V = np.random.default_rng(seed).uniform(-1, 1, shape)
        plan = l2n(SimilarityMatrix(V), Marginals.uniform(*shape), coeff=1e4)
        assert np.all(plan.pi >= 0.0) and np.all(np.isfinite(plan.pi))
        assert not plan.converged or plan.marginal_violation <= 1e-9

    def test_converges_at_every_coeff(self):
        """Seeded problems of 2-24 rows and columns, and the inputs above, at
        coeff 1e2, 1e3 and 1e4, where the dual turns piecewise linear."""
        inputs = []
        for seed in range(40):
            rng = np.random.default_rng(seed)
            m, n = rng.integers(2, 25, size=2)
            inputs.append(rng.uniform(-1, 1, (m, n)))
        inputs += [np.random.default_rng(seed).uniform(-1, 1, shape) for shape, seed in _LARGE_COEFF_INPUTS]
        for V in inputs:
            for coeff in (1e2, 1e3, 1e4):
                plan = l2n(SimilarityMatrix(V), Marginals.uniform(*V.shape), coeff=coeff)
                assert plan.converged, (V.shape, coeff)
                assert plan.marginal_violation <= 1e-9, (V.shape, coeff)

    def test_exhausted_budget_returns_best_iterate(self):
        rng = np.random.default_rng(39)
        S = SimilarityMatrix(rng.uniform(-1, 1, (5, 5)))
        plan = l2n(S, Marginals.uniform(5, 5), max_sweeps=3, tol=0.0)
        assert not plan.converged
        assert np.all(np.isfinite(plan.pi))

    def test_requires_row_marginal(self):
        S = SimilarityMatrix(np.zeros((2, 2)) + 0.1)
        with pytest.raises(DataError):
            l2n(S, Marginals.column_only(2))

    @pytest.mark.parametrize("max_sweeps", [2.5, np.float64(3.0), "3"])
    def test_non_integer_max_sweeps_is_refused(self, max_sweeps):
        S = SimilarityMatrix(np.zeros((2, 2)) + 0.1)
        with pytest.raises(DataError, match="max_sweeps must be an integer"):
            l2n(S, Marginals.uniform(2, 2), max_sweeps=max_sweeps)

    @pytest.mark.parametrize("bad", [{"coeff": np.nan}, {"coeff": np.inf}, {"tol": -1.0}, {"tol": np.nan},
                                     {"max_sweeps": 0}])
    def test_refuses_bad_solver_parameters(self, bad):
        """A NaN or infinite coeff would give a NaN plan, a negative or NaN tol
        a plan that never converges, and max_sweeps = 0 a plan from no step."""
        S = SimilarityMatrix(np.zeros((2, 2)) + 0.1)
        with pytest.raises(DataError):
            l2n(S, Marginals.uniform(2, 2), **bad)

    # float() takes a Fraction or a Decimal, but numpy cannot compute with one
    @pytest.mark.parametrize("bad", [{"coeff": None}, {"coeff": "100"}, {"tol": None}, {"tol": "0"},
                                     {"coeff": Fraction(1, 50)}, {"coeff": Decimal("0.02")}])
    def test_refuses_non_numeric_solver_parameters(self, bad):
        (name,) = bad
        S = SimilarityMatrix(np.zeros((2, 2)) + 0.1)
        with pytest.raises(DataError, match=f"{name} must be a real number"):
            l2n(S, Marginals.uniform(2, 2), **bad)


@pytest.mark.parametrize(
    "solve, shape",
    [(otn, (6, 6)), (otn, (5, 7)), (l2n, (5, 5)), (l2n, (4, 6))],
    ids=["otn assignment", "otn linear program", "l2n square", "l2n wide"],
)
def test_reported_violation_is_marginal_violation(solve, shape):
    rng = np.random.default_rng(47)
    marg = Marginals.uniform(*shape)
    plan = solve(SimilarityMatrix(rng.uniform(-1, 1, shape)), marg)
    assert plan.marginal_violation == marginal_violation(plan, marg)


class TestHn:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            V = rng.uniform(-1, 1, (5, 5))
            plan = hn(SimilarityMatrix(V))
            achieved = float((V * plan.pi).sum()) / 5.0
            assert abs(achieved - _best_permutation_objective(V)) <= 1e-12
            # binary doubly stochastic support
            np.testing.assert_array_equal(plan.pi.sum(axis=0), 1.0)
            np.testing.assert_array_equal(plan.pi.sum(axis=1), 1.0)

    def test_surplus_rows_left_unassigned(self):
        rng = np.random.default_rng(41)
        plan = hn(SimilarityMatrix(rng.uniform(-1, 1, (6, 4))))
        row_sums = plan.pi.sum(axis=1)
        assert sorted(row_sums.tolist()) == [0.0, 0.0, 1.0, 1.0, 1.0, 1.0]
        np.testing.assert_array_equal(plan.pi.sum(axis=0), 1.0)

    def test_normalize_promotes_assigned_target(self):
        rng = np.random.default_rng(42)
        S = SimilarityMatrix(rng.uniform(-1, 1, (5, 5)))
        plan = hn(S)
        out = hn_normalize(S)
        assigned = plan.pi.argmax(axis=1)
        assert np.array_equal(out.values.argmax(axis=1), assigned)
        # everything else keeps its raw relative order
        for i in range(5):
            rest = [j for j in range(5) if j != assigned[i]]
            raw_order = sorted(rest, key=lambda j: (-S.values[i, j], j))
            new_order = sorted(rest, key=lambda j: (-out.values[i, j], j))
            assert raw_order == new_order

    def test_normalize_literal_returns_plan(self):
        rng = np.random.default_rng(43)
        S = SimilarityMatrix(rng.uniform(-1, 1, (4, 4)))
        out = hn_normalize(S, literal=True)
        np.testing.assert_array_equal(out.values, hn(S).pi)


class TestSparsity:
    def test_assignment_plan(self):
        rng = np.random.default_rng(44)
        plan = hn(SimilarityMatrix(rng.uniform(-1, 1, (10, 10))))
        assert abs(sparsity(plan) - 0.9) <= 1e-12

    def test_dense_plan(self):
        rng = np.random.default_rng(45)
        S = SimilarityMatrix(rng.uniform(-1, 1, (6, 6)))
        plan = l2n(S, Marginals.uniform(6, 6), coeff=0.1)
        # a tiny coefficient keeps the projection near the interior point
        assert sparsity(plan) <= 0.5

    def test_empty_guard(self):
        fake = types.SimpleNamespace(pi=np.zeros((0, 0)))
        with pytest.raises(EmptyPlan):
            sparsity(fake)

    @pytest.mark.parametrize("eps_rel", [None, "1e-9", np.nan, np.inf, -1e-9])
    def test_eps_rel_is_a_finite_nonnegative_number(self, eps_rel):
        """As the CLI's --eps-rel: a NaN or None threshold would count no entry."""
        plan = types.SimpleNamespace(pi=np.array([[1.0, 0.0]]))
        with pytest.raises(DataError, match="eps_rel must be"):
            sparsity(plan, eps_rel=eps_rel)
        assert sparsity(plan, eps_rel=np.float32(0.5)) == 0.5
