"""Entropic transport solver, Sinkhorn normalization, and the dual-bank form."""

import contextlib
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from hubkit import (
    ColMismatch,
    DataError,
    GroundTruth,
    HubnessVector,
    Marginals,
    NonPositiveTau,
    RowMismatch,
    ShapeMismatch,
    SimilarityMatrix,
    SinkhornConfig,
    TransportPlan,
    ZeroMarginalEntry,
    apply_hubness,
    dbsn,
    dbsn_hubness,
    estimate_target_hubness,
    evaluate,
    hn,
    inverted_softmax,
    marginal_violation,
    plan_entropy,
    row_argsort_desc,
    row_topk_desc,
    sinkhorn,
    sn_normalize,
)
from hubkit import core, retrieval
from hubkit.sinkhorn import _gather, _sinkhorn_duals

_SK = sys.modules["hubkit.sinkhorn"]
#: Block rows that split every drawn matrix of more than 3 rows, so the
#: properties that also run across row blocks cross block edges.
_SMALL_BLOCKS = 3


@contextlib.contextmanager
def _row_blocks(rows, threads=3):
    """The normalizers' passes in blocks of ``rows`` rows whatever the width,
    on ``threads`` block groups; a context manager, not a fixture, so
    hypothesis tests can use it.  Yields the number of blocks (or slabs)
    each pass ran, so a test can check that it crossed a block edge."""
    run_blocks, runs = core._run_blocks, []

    def spy(work, starts, groups):
        runs.append(len(starts))
        run_blocks(work, starts, groups)

    with mock.patch.object(core, "_PASS_BLOCK_ROWS", rows), mock.patch.object(core, "_PASS_BLOCK_VALUES", 0), \
            mock.patch.object(core, "_ranking_threads", lambda: threads), mock.patch.object(core, "_run_blocks", spy):
        yield runs


def _naive_sinkhorn(V, a, b, tau, sweeps):
    """Multiplicative-domain reference: scale K = exp(V/tau) directly.

    Same sweep order as the solver under test (rows first, starting from the
    all-ones column scaling) but computed by plain matrix scaling, which is
    fine at tau large enough for exp(V/tau) to stay in range.
    """
    K = np.exp(V / tau)
    beta = np.ones(V.shape[1])
    for _ in range(sweeps):
        alpha = a / (K @ beta)
        beta = b / (K.T @ alpha)
    return alpha[:, None] * K * beta[None, :]


def _log_domain_reference(V, a, b, tau, max_iters, tol):
    """Log-domain balancing, the reference for the scaling-domain solver.

    Same sweep order, start (g = 0) and stopping rule; every half-sweep is a
    log-sum-exp over the whole matrix.  Returns (f, g, sweeps, converged).
    """
    log_b = np.log(b)
    f = np.zeros(V.shape[0])
    g = np.zeros(V.shape[1])
    log_a = np.log(a) if a is not None else None
    iterations = 0
    converged = tol <= 0.0
    f_pending = None
    for sweep in range(max_iters):
        if a is not None:
            if f_pending is None:
                f = tau * log_a - tau * logsumexp((V + g[None, :]) / tau, axis=1)
            else:
                f = f_pending
                f_pending = None
        g = tau * log_b - tau * logsumexp((V + f[:, None]) / tau, axis=0)
        iterations = sweep + 1
        if tol > 0.0:
            if a is None:
                converged = True
                break
            f_pending = tau * log_a - tau * logsumexp((V + g[None, :]) / tau, axis=1)
            row_sums = np.exp(log_a + (f - f_pending) / tau)
            if np.abs(row_sums - a).sum() <= tol:
                converged = True
                break
    return f, g, iterations, converged


def _objective(V, pi, tau):
    positive = pi > 0
    ent = float((-pi[positive] * (np.log(pi[positive]) - 1.0)).sum())
    return float((V * pi).sum()) + tau * ent


class TestMarginals:
    def test_uniform(self):
        m = Marginals.uniform(3, 4)
        np.testing.assert_allclose(m.a, 1 / 3)
        np.testing.assert_allclose(m.b, 1 / 4)

    def test_column_only_leaves_rows_free(self):
        assert Marginals.column_only(5).a is None

    @pytest.mark.parametrize(
        "make, name",
        [
            (lambda: Marginals.uniform(2.5, 2), "m"),
            (lambda: Marginals.uniform(2, np.float64(2.0)), "n"),
            (lambda: Marginals.column_only(1.5), "n"),
        ],
        ids=["uniform m", "uniform n", "column_only n"],
    )
    def test_non_integer_size_is_refused(self, make, name):
        with pytest.raises(DataError, match=f"{name} must be an integer"):
            make()

    @pytest.mark.parametrize(
        "make",
        [lambda: Marginals.uniform(0, 3), lambda: Marginals.uniform(3, 0), lambda: Marginals.column_only(0)],
        ids=["uniform m", "uniform n", "column_only n"],
    )
    def test_empty_size_is_refused(self, make):
        with pytest.raises(DataError, match="must be >= 1"):
            make()

    def test_rejects_zero_entry(self):
        with pytest.raises(ZeroMarginalEntry):
            Marginals(a=np.array([1.0, 0.0]), b=np.array([0.5, 0.5]))

    def test_rejects_unnormalized(self):
        with pytest.raises(DataError):
            Marginals(a=np.array([0.5, 0.6]), b=np.array([0.5, 0.5]))

    def test_requires_a_column_marginal(self):
        with pytest.raises(DataError, match="column marginal b is required"):
            Marginals(a=None, b=None)

    def test_config_validation(self):
        with pytest.raises(NonPositiveTau):
            SinkhornConfig(tau=0.0)
        with pytest.raises(DataError):
            SinkhornConfig(max_iters=0)

    @pytest.mark.parametrize("max_iters", [2.5, 10.0, "10", None])
    def test_non_integer_max_iters_is_refused(self, max_iters):
        with pytest.raises(DataError, match="max_iters must be an integer"):
            SinkhornConfig(max_iters=max_iters)
        SinkhornConfig(max_iters=np.int64(3))  # numpy integers pass

    @pytest.mark.parametrize("tau", [np.nan, np.inf])
    def test_non_finite_tau_is_refused(self, tau):
        """A NaN or infinite temperature would give an all-NaN plan marked converged."""
        with pytest.raises(NonPositiveTau):
            SinkhornConfig(tau=tau)

    def test_nan_tol_is_refused(self):
        with pytest.raises(DataError):
            SinkhornConfig(tol=np.nan)

    # float() takes a Fraction or a Decimal, but numpy cannot compute with one
    @pytest.mark.parametrize("bad", [{"tau": "x"}, {"tau": "0.01"}, {"tau": None}, {"tol": None}, {"tol": b"0"},
                                     {"tau": 0.01j}, {"tau": Fraction(1, 50)}, {"tau": Decimal("0.02")}])
    def test_non_numeric_tau_or_tol_is_refused(self, bad):
        (name,) = bad
        with pytest.raises(DataError, match=f"{name} must be a real number"):
            sn_normalize(SimilarityMatrix(np.eye(2)), SinkhornConfig(**bad))
        SinkhornConfig(**{name: np.float32(0.5)})  # numpy reals pass


class TestSinkhorn:
    def test_constant_matrix_gives_product_plan(self):
        S = SimilarityMatrix(np.full((3, 5), 0.7))
        plan = sinkhorn(S, Marginals.uniform(3, 5), SinkhornConfig(tau=0.1, max_iters=20))
        np.testing.assert_allclose(plan.pi, 1.0 / 15.0, atol=1e-10)

    def test_matches_multiplicative_scaling(self):
        """Log-domain and direct matrix scaling agree sweep for sweep."""
        V = np.eye(2)
        marg = Marginals.uniform(2, 2)
        for sweeps in (1, 3, 50):
            plan = sinkhorn(SimilarityMatrix(V), marg, SinkhornConfig(tau=1.0, max_iters=sweeps))
            ref = _naive_sinkhorn(V, marg.a, marg.b, 1.0, sweeps)
            np.testing.assert_allclose(plan.pi, ref, atol=1e-12)

    def test_matches_multiplicative_scaling_rectangular(self):
        rng = np.random.default_rng(19)
        V = rng.uniform(-1, 1, (5, 8))
        marg = Marginals.uniform(5, 8)
        plan = sinkhorn(SimilarityMatrix(V), marg, SinkhornConfig(tau=0.25, max_iters=60))
        ref = _naive_sinkhorn(V, marg.a, marg.b, 0.25, 60)
        np.testing.assert_allclose(plan.pi, ref, rtol=1e-10)

    def test_beats_product_plan_objective(self):
        rng = np.random.default_rng(20)
        V = rng.uniform(-1, 1, (6, 7))
        marg = Marginals.uniform(6, 7)
        plan = sinkhorn(
            SimilarityMatrix(V), marg, SinkhornConfig(tau=0.05, max_iters=500, tol=1e-10)
        )
        product = np.outer(marg.a, marg.b)
        assert _objective(V, plan.pi, 0.05) >= _objective(V, product, 0.05) - 1e-12

    def test_tolerance_run_is_feasible(self):
        rng = np.random.default_rng(21)
        S = SimilarityMatrix(rng.uniform(-1, 1, (30, 40)))
        plan = sinkhorn(
            S, Marginals.uniform(30, 40), SinkhornConfig(tau=0.05, max_iters=5000, tol=1e-8)
        )
        assert plan.converged
        assert plan.marginal_violation <= 1e-6
        assert plan.iterations_run <= 5000

    def test_fixed_budget_reports_unconverged(self):
        rng = np.random.default_rng(22)
        S = SimilarityMatrix(rng.uniform(-1, 1, (15, 15)))
        plan = sinkhorn(S, Marginals.uniform(15, 15), SinkhornConfig(tau=0.01, max_iters=2, tol=1e-14))
        assert plan.iterations_run == 2
        assert not plan.converged

    def test_dual_reconstruction_is_exact(self):
        rng = np.random.default_rng(23)
        S = SimilarityMatrix(rng.uniform(-1, 1, (12, 9)))
        plan = sinkhorn(S, Marginals.uniform(12, 9), SinkhornConfig(tau=0.05, max_iters=40))
        rebuilt = np.exp((S.values + plan.f[:, None] + plan.g[None, :]) / plan.tau)
        assert np.max(np.abs(plan.pi - rebuilt)) <= 1e-8 * plan.pi.max()

    def test_column_only_solution_is_inverted_softmax(self):
        """With rows unconstrained the entropic optimum is IS scaled by 1/n."""
        rng = np.random.default_rng(24)
        S = SimilarityMatrix(rng.uniform(-1, 1, (7, 5)))
        plan = sinkhorn(S, Marginals.column_only(5), SinkhornConfig(tau=0.05, max_iters=1))
        expected = inverted_softmax(S, tau=0.05).values / 5.0
        np.testing.assert_allclose(plan.pi, expected, atol=1e-12)

    def test_violation_non_increasing_in_sweeps(self):
        rng = np.random.default_rng(25)
        S = SimilarityMatrix(rng.uniform(-1, 1, (7, 9)))
        marg = Marginals.uniform(7, 9)
        violations = [
            sinkhorn(S, marg, SinkhornConfig(tau=0.05, max_iters=k)).marginal_violation
            for k in range(1, 9)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(violations, violations[1:]))

    def test_shape_checks(self):
        S = SimilarityMatrix(np.zeros((2, 3)) + 0.1)
        with pytest.raises(ShapeMismatch):
            sinkhorn(S, Marginals.uniform(3, 3))


class TestSnNormalize:
    def test_constant_matrix_yields_ties(self):
        S = SimilarityMatrix(np.full((4, 4), 0.3))
        out = sn_normalize(S, SinkhornConfig(tau=0.05, max_iters=10))
        spread = out.values.max() - out.values.min()
        assert spread <= 1e-12

    def test_ranking_matches_plan(self):
        rng = np.random.default_rng(26)
        S = SimilarityMatrix(rng.uniform(-1, 1, (40, 60)))
        cfg = SinkhornConfig(tau=0.02, max_iters=10)
        out = sn_normalize(S, cfg)
        plan = sinkhorn(S, Marginals.uniform(40, 60), cfg)
        np.testing.assert_array_equal(
            np.argsort(-out.values, axis=1, kind="stable"),
            np.argsort(-plan.pi, axis=1, kind="stable"),
        )

    def test_hub_column_demoted(self):
        # column 0 is every row's favorite; balancing pushes row 0 to its
        # second choice while the hub keeps serving row 1
        S = SimilarityMatrix(np.array([[0.9, 0.8], [0.9, 0.1]]))
        out = sn_normalize(S, SinkhornConfig(tau=0.05, max_iters=50))
        assert int(np.argmax(out.values[0])) == 1
        assert int(np.argmax(out.values[1])) == 0
        assert int(np.argmax(S.values[0])) == 0


class TestTargetHubnessEstimate:
    def test_bank_equal_to_queries_reproduces_sn(self):
        rng = np.random.default_rng(27)
        S = SimilarityMatrix(rng.uniform(-1, 1, (10, 12)))
        cfg = SinkhornConfig(tau=0.05, max_iters=10)
        h = estimate_target_hubness(S, cfg)
        np.testing.assert_array_equal(apply_hubness(S, h).values, sn_normalize(S, cfg).values)

    def test_single_column(self):
        h = estimate_target_hubness(SimilarityMatrix(np.array([[0.4], [0.2]])))
        assert h.values.shape == (1,) and np.isfinite(h.values[0])

    def test_duplicate_columns_get_equal_compensation(self):
        rng = np.random.default_rng(28)
        col = rng.uniform(-1, 1, (8, 1))
        rest = rng.uniform(-1, 1, (8, 3))
        S = SimilarityMatrix(np.hstack([col, rest, col]))
        h = estimate_target_hubness(S, SinkhornConfig(tau=0.05, max_iters=30))
        assert abs(h.values[0] - h.values[4]) <= 1e-9


class TestDbsn:
    def test_empty_bank_reduces_to_single_bank_form(self):
        rng = np.random.default_rng(29)
        S = SimilarityMatrix(rng.uniform(-1, 1, (6, 8)))
        Sbq = SimilarityMatrix(rng.uniform(-1, 1, (10, 8)))
        cfg = SinkhornConfig(tau=0.05, max_iters=10)
        out = dbsn(S, Sbq, None, cfg)
        ref = apply_hubness(S, estimate_target_hubness(Sbq, cfg))
        np.testing.assert_array_equal(out.values, ref.values)

    def test_target_duplicated_in_bank_shares_compensation(self):
        rng = np.random.default_rng(30)
        Sbq = SimilarityMatrix(rng.uniform(-1, 1, (10, 4)))
        # target bank column 1 is an exact copy of target column 2
        tbank = np.hstack([rng.uniform(-1, 1, (10, 1)), Sbq.values[:, 2:3]])
        extended = SimilarityMatrix(np.hstack([Sbq.values, tbank]))
        h = estimate_target_hubness(extended, SinkhornConfig(tau=0.05, max_iters=30))
        assert abs(h.values[2] - h.values[5]) <= 1e-9

    def test_shape_errors(self):
        rng = np.random.default_rng(31)
        S = SimilarityMatrix(rng.uniform(-1, 1, (4, 6)))
        with pytest.raises(ColMismatch):
            dbsn(S, SimilarityMatrix(rng.uniform(-1, 1, (5, 7))), None)
        Sbq = SimilarityMatrix(rng.uniform(-1, 1, (5, 6)))
        with pytest.raises(RowMismatch):
            dbsn(S, Sbq, SimilarityMatrix(rng.uniform(-1, 1, (4, 3))))


class TestPlanFunctionals:
    def test_entropy_point_mass(self):
        plan = TransportPlan(
            pi=np.array([[1.0]]), f=None, g=None, tau=0.0, iterations_run=0, marginal_violation=0.0
        )
        assert abs(plan_entropy(plan) - 1.0) <= 1e-12

    def test_entropy_uniform_two_by_two(self):
        plan = TransportPlan(
            pi=np.full((2, 2), 0.25), f=None, g=None, tau=0.0, iterations_run=0, marginal_violation=0.0
        )
        assert abs(plan_entropy(plan) - (1.0 + np.log(4.0))) <= 1e-12

    def test_entropic_plan_beats_assignment_entropy(self):
        """The regularized optimum is strictly smoother than any vertex."""
        rng = np.random.default_rng(32)
        S = SimilarityMatrix(rng.uniform(-1, 1, (6, 6)))
        sn_plan = sinkhorn(S, Marginals.uniform(6, 6), SinkhornConfig(tau=0.05, max_iters=100))
        vertex = hn(S)
        scaled = TransportPlan(
            pi=vertex.pi / 6.0, f=None, g=None, tau=0.0, iterations_run=0, marginal_violation=0.0
        )
        assert plan_entropy(sn_plan) >= plan_entropy(scaled)

    def test_product_plan_has_zero_violation(self):
        marg = Marginals.uniform(3, 4)
        plan = TransportPlan(
            pi=np.outer(marg.a, marg.b), f=None, g=None, tau=0.0,
            iterations_run=0, marginal_violation=0.0,
        )
        assert marginal_violation(plan, marg) <= 1e-12

    def test_doubled_row_counts_in_both_marginals(self):
        marg = Marginals.uniform(3, 4)
        pi = np.outer(marg.a, marg.b)
        pi[1] *= 2.0
        plan = TransportPlan(
            pi=pi, f=None, g=None, tau=0.0, iterations_run=0, marginal_violation=0.0
        )
        # the duplicated mass a_1 shows up once in the row residual and once
        # spread over the column residuals
        assert abs(marginal_violation(plan, marg) - 2.0 * marg.a[1]) <= 1e-12

    def test_violation_shape_check(self):
        plan = TransportPlan(
            pi=np.full((2, 2), 0.25), f=None, g=None, tau=0.0, iterations_run=0, marginal_violation=0.0
        )
        with pytest.raises(ShapeMismatch):
            marginal_violation(plan, Marginals.uniform(3, 2))

    @pytest.mark.parametrize("marg", [Marginals.uniform(2, 3), Marginals.column_only(3)], ids=["both", "column only"])
    def test_violation_column_shape_check(self, marg):
        plan = TransportPlan(
            pi=np.full((2, 2), 0.25), f=None, g=None, tau=0.0, iterations_run=0, marginal_violation=0.0
        )
        with pytest.raises(ShapeMismatch, match="column marginal length 3 vs 2 columns"):
            marginal_violation(plan, marg)


def _reference_inputs(data, min_rows=1):
    """A matrix of one of four kinds, and solver settings, from hypothesis."""
    m, n = data.draw(st.integers(min_rows, 40)), data.draw(st.integers(1, 40))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    tau = data.draw(st.sampled_from([1.0, 0.1, 0.05, 0.01, 0.005]))
    V = rng.uniform(-1.0, 1.0, (m, n))
    kind = data.draw(st.sampled_from(["unit", "wide", "sunken", "subnormal", "duplicated"]))
    if kind == "wide":
        V *= 50.0
    elif kind == "sunken":
        # exp(V / tau) underflows this whole column, and so does any kernel
        # shifted by the row maxima
        V[:, rng.integers(n)] = -800.0 * tau - 1.0
    elif kind == "subnormal" and n > 1:
        # e^-730 below every row's best: a kernel column of subnormals, whose
        # scaling overflows unless it is absorbed
        c = rng.integers(n)
        V[:, c] = np.delete(V, c, axis=1).max(axis=1) - 730.0 * tau
    elif kind == "duplicated":
        V[:, rng.integers(n, size=n // 2)] = V[:, rng.integers(n, size=n // 2)]
    cfg = SinkhornConfig(
        tau=tau, max_iters=data.draw(st.integers(1, 30)), tol=data.draw(st.sampled_from([0.0, 1e-8]))
    )
    return V, cfg


def _assert_ranks_like(out, ref, V):
    """``out`` ranks each row exactly as ``ref`` does, and equal columns of V
    get equal scores, hence stay in column order.

    Scores that ``ref`` puts within 1e-9 of each other are exempt from the
    order check: where a row holds all of several columns' mass to float
    precision (wide values, low tau), their S + g tie in exact arithmetic and
    only the rounding of g orders them, in either solver.
    """
    pos = np.argsort(row_argsort_desc(SimilarityMatrix(out)).order, axis=1)
    above = ref[:, :, None] - ref[:, None, :] > 1e-9 * max(1.0, float(np.abs(ref).max()))
    assert np.all((pos[:, :, None] < pos[:, None, :])[above])
    equal_columns = np.all(V[:, :, None] == V[:, None, :], axis=0)
    assert np.all((out[:, :, None] == out[:, None, :])[:, equal_columns])


def _normalizer_outputs(V):
    """Every array that the Sinkhorn fit, the plan, SN, IS and applying a
    hubness vector (to float64 and float32 scores) return for V."""
    S, cfg = SimilarityMatrix(V), SinkhornConfig(tau=0.01, max_iters=10)
    m, n = V.shape
    f, g, *rest = _sinkhorn_duals((V,), np.full(m, 1 / m), np.full(n, 1 / n), cfg)
    plan = sinkhorn(S, Marginals.uniform(m, n), cfg)
    h = HubnessVector(g, temperature=cfg.tau)
    outputs = [f, g, np.array(rest), plan.pi, plan.f, plan.g, np.array(plan.marginal_violation),
               sn_normalize(S, cfg).values, inverted_softmax(S, 0.02).values, apply_hubness(S, h).values,
               apply_hubness(SimilarityMatrix(V.astype(np.float32)), h).values]
    return [x.tobytes() for x in outputs]


class TestBlockPool:
    """The normalizers' m x n passes run in fixed row blocks (the inverted
    softmax in column slabs) on the process's block pool."""

    def test_outputs_do_not_depend_on_the_thread_count(self, monkeypatch):
        # three row blocks and up to four slabs, duplicated columns, and
        # four ranking and counting blocks; the blocks write disjoint slices
        # of shared buffers, so switch often
        monkeypatch.setattr(core, "_PASS_BLOCK_VALUES", 1 << 16)
        monkeypatch.setattr(retrieval, "_COUNT_BLOCK_VALUES", 1 << 16)
        rng = np.random.default_rng(47)
        V = rng.uniform(-1, 1, (700, 300))
        V[:, 200:] = V[:, rng.integers(200, size=100)]
        S, gt = SimilarityMatrix(V), GroundTruth.from_indices(rng.integers(300, size=700))
        outputs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for threads in (1, 2, 8):
                monkeypatch.setattr(core, "_ranking_threads", lambda: threads)
                outputs.append(_normalizer_outputs(V) + [row_topk_desc(S, 10).order.tobytes(),
                                                         evaluate(S, gt, [1, 5, 10])])
        finally:
            sys.setswitchinterval(interval)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_pool_only_for_more_than_one_block(self, monkeypatch):
        submitted, pool = [], core._ranking_pool

        class SpyPool:
            def submit(self, *call):
                submitted.append(call)
                return pool().submit(*call)

        monkeypatch.setattr(core, "_ranking_pool", SpyPool)
        monkeypatch.setattr(core, "_ranking_threads", lambda: 2)
        rng = np.random.default_rng(48)
        # at most 2^20 values or 256 rows: one block, and one slab
        _normalizer_outputs(rng.uniform(-1, 1, (1000, 1000)))
        _normalizer_outputs(rng.uniform(-1, 1, (core._PASS_BLOCK_ROWS, 4000)))
        assert submitted == []
        S = SimilarityMatrix(rng.uniform(-1, 1, (1100, 1000)))  # two blocks of 1048 rows
        sn_normalize(S)
        assert submitted
        submitted.clear()
        inverted_softmax(S, 0.02)
        assert len(submitted) == 1  # two slabs


class TestScalingDomainMatchesLogDomain:
    """The scaling-domain solver against the log-domain loop it replaced."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_duals_plan_and_rankings(self, data):
        self._duals_plan_and_rankings(data)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_duals_plan_and_rankings_across_row_blocks(self, data):
        with _row_blocks(_SMALL_BLOCKS) as runs:
            m = self._duals_plan_and_rankings(data)
        assert m <= _SMALL_BLOCKS or max(runs) >= 2

    def test_duals_plan_and_rankings_of_one_wide_row(self):
        # potentials of about 46 at tau = 0.005: a residual taken from their
        # difference divides its rounding by tau, 1.4e-12 off the reference
        V = np.random.default_rng(4294967294).uniform(-1.0, 1.0, (1, 15)) * 50.0
        self._assert_duals_plan_and_rankings(V, SinkhornConfig(tau=0.005, max_iters=1), free_rows=False)

    def _duals_plan_and_rankings(self, data):
        V, cfg = _reference_inputs(data)
        return self._assert_duals_plan_and_rankings(V, cfg, data.draw(st.booleans()))

    def _assert_duals_plan_and_rankings(self, V, cfg, free_rows):
        marg = Marginals.column_only(V.shape[1]) if free_rows else Marginals.uniform(*V.shape)
        f_ref, g_ref, sweeps_ref, converged_ref = _log_domain_reference(
            V, marg.a, marg.b, cfg.tau, cfg.max_iters, cfg.tol
        )
        f, g, sweeps, residual, converged = _sinkhorn_duals((V,), marg.a, marg.b, cfg)
        assert (sweeps, converged) == (sweeps_ref, converged_ref)
        assert np.all(np.isfinite(f)) and np.all(np.isfinite(g))
        assert np.all(np.abs(g - g_ref) <= 1e-9 * np.maximum(1.0, np.abs(g_ref)))
        assert np.all(np.abs(f - f_ref) <= 1e-9 * np.maximum(1.0, np.abs(f_ref)))

        pi = sinkhorn(SimilarityMatrix(V), marg, cfg).pi
        pi_ref = np.exp((V + f_ref[:, None] + g_ref[None, :]) / cfg.tau)
        # relative to float64's normal range: a subnormal entry has fewer bits
        np.testing.assert_allclose(pi, pi_ref, rtol=1e-10, atol=np.finfo(np.float64).tiny)
        ref_residual = 0.0 if free_rows else float(np.abs(pi_ref.sum(axis=1) - marg.a).sum())
        assert residual == pytest.approx(ref_residual, rel=1e-6, abs=1e-12)

        # a single balanced row is the column marginal itself, so its S + g
        # ties across the row and only rounding orders it
        if not free_rows and V.shape[0] > 1:
            _assert_ranks_like(sn_normalize(SimilarityMatrix(V), cfg).values, V + g_ref[None, :], V)
        return V.shape[0]

    @pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(np.float64).eps,
                        reason="long double is float64 here")
    @pytest.mark.parametrize("tau", [0.01, 0.005, 0.002])
    def test_g_within_one_rounding_of_v_from_a_long_double_reference(self, tau):
        """Up to its free constant, g is within one rounding of a number of
        V's size: no rounding of a potential is divided by tau."""
        for seed in range(20):
            V = np.random.default_rng(seed).uniform(-1.0, 1.0, (60, 50)) * 50.0
            _, g, *_ = _sinkhorn_duals((V,), np.full(60, 1 / 60), np.full(50, 1 / 50),
                                       SinkhornConfig(tau=tau, max_iters=10))
            X, g_ref = V.astype(np.longdouble), np.zeros(50, dtype=np.longdouble)
            for _ in range(10):
                f_ref = -tau * np.log(60) - tau * logsumexp((X + g_ref) / tau, axis=1)
                g_ref = -tau * np.log(50) - tau * logsumexp((X + f_ref[:, None]) / tau, axis=0)
            moved = g - g_ref
            assert np.abs(moved - moved.mean()).max() <= np.finfo(np.float64).eps * np.abs(V).max()

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_dbsn_rankings(self, data):
        self._dbsn_rankings(data)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_dbsn_rankings_across_row_blocks(self, data):
        with _row_blocks(_SMALL_BLOCKS) as runs:
            m = self._dbsn_rankings(data)
        assert m <= _SMALL_BLOCKS or max(runs) >= 2

    def _dbsn_rankings(self, data):
        V, cfg = _reference_inputs(data, min_rows=2)
        n = data.draw(st.integers(1, V.shape[1]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        # queries repeat the bank's target columns, so duplicated columns tie
        S = SimilarityMatrix(V[rng.integers(V.shape[0], size=6)][:, :n])
        tbank = SimilarityMatrix(V[:, n:]) if n < V.shape[1] else None
        marg = Marginals.uniform(*V.shape)
        _, g_ref, _, _ = _log_domain_reference(V, marg.a, marg.b, cfg.tau, cfg.max_iters, cfg.tol)
        out = dbsn(S, SimilarityMatrix(V[:, :n]), tbank, cfg)
        _assert_ranks_like(out.values, S.values + g_ref[None, :n], V[:, :n])
        return V.shape[0]

    def test_equal_columns_get_equal_potentials(self):
        # BLAS mat-vecs round the columns of a tail block differently; the
        # column update must not
        rng = np.random.default_rng(41)
        V = np.repeat(rng.uniform(-1, 1, (37, 1)), 43, axis=1)
        _, g, _, _, _ = _sinkhorn_duals((V,), np.full(37, 1 / 37), np.full(43, 1 / 43), SinkhornConfig())
        assert np.all(g == g[0])

    def test_equal_columns_get_equal_potentials_across_row_blocks(self):
        # three default row blocks, so the column sums run in column slabs
        rng = np.random.default_rng(41)
        V = np.repeat(rng.uniform(-1, 1, (700, 1)), 43, axis=1)
        with _row_blocks(core._PASS_BLOCK_ROWS) as runs:
            _, g, _, _, _ = _sinkhorn_duals((V,), np.full(700, 1 / 700), np.full(43, 1 / 43), SinkhornConfig())
        assert np.all(g == g[0]) and max(runs) == 3

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_row_blocks_move_g_by_a_few_ulps(self, data):
        """Against one block (the single einsum per column update), row blocks
        and column slabs move g by no ulp at all, nor f: each column adds its
        rows in one order whatever the blocks and the thread count."""
        V, cfg = _reference_inputs(data)
        marg = Marginals.column_only(V.shape[1]) if data.draw(st.booleans()) else Marginals.uniform(*V.shape)
        with _row_blocks(V.shape[0]):
            f1, g1, *_ = _sinkhorn_duals((V,), marg.a, marg.b, cfg)
        rows = data.draw(st.integers(1, 7))
        with _row_blocks(rows, threads=data.draw(st.integers(1, 4))) as runs:
            f, g, *_ = _sinkhorn_duals((V,), marg.a, marg.b, cfg)
        assert V.shape[0] <= rows or max(runs) >= 2
        bound = 8 * np.finfo(np.float64).eps * max(1.0, float(np.abs(g1).max()))
        assert np.abs(g - g1).max() <= bound
        assert np.array_equal(g, g1) and np.array_equal(f, f1)

    def test_lost_sums_and_absorption_across_row_blocks(self, monkeypatch):
        # a sunken column loses its sums and a subnormal one is absorbed;
        # both are read across the edges of five-row blocks
        V = np.random.default_rng(46).uniform(-1, 1, (23, 9))
        V[:, 2] = -9.0
        V[:, 5] = np.delete(V, 5, axis=1).max(axis=1) - 7.3
        cfg = SinkhornConfig(tau=0.01, max_iters=12)
        marg = Marginals.uniform(23, 9)
        lost_columns, passes = [], []
        gather, in_row_blocks = _SK._gather, core._in_row_blocks

        def spy_gather(blocks, lost, on_rows):
            if not on_rows:
                lost_columns.extend(lost.tolist())
            return gather(blocks, lost, on_rows)

        def spy_blocks(m, rows, work):
            passes.append(work.__name__)
            in_row_blocks(m, rows, work)

        monkeypatch.setattr(_SK, "_gather", spy_gather)
        monkeypatch.setattr(core, "_in_row_blocks", spy_blocks)
        with _row_blocks(5) as runs:
            f, g, *_ = _sinkhorn_duals((V,), marg.a, marg.b, cfg)
        assert 2 in lost_columns and "build" in passes and max(runs) == 5  # absorb passes build itself
        f_ref, g_ref, _, _ = _log_domain_reference(V, marg.a, marg.b, cfg.tau, cfg.max_iters, cfg.tol)
        assert np.all(np.abs(g - g_ref) <= 1e-9 * np.maximum(1.0, np.abs(g_ref)))
        assert np.all(np.abs(f - f_ref) <= 1e-9 * np.maximum(1.0, np.abs(f_ref)))

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_dbsn_hubness_equals_the_stacked_fit(self, data):
        """Balancing the two bank blocks is bit for bit the balancing of their
        stack, lost sums ("sunken" and "subnormal" columns) included."""
        self._dbsn_hubness_equals_the_stacked_fit(data)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_dbsn_hubness_equals_the_stacked_fit_across_row_blocks(self, data):
        with _row_blocks(_SMALL_BLOCKS) as runs:
            m = self._dbsn_hubness_equals_the_stacked_fit(data)
        assert m <= _SMALL_BLOCKS or max(runs) >= 2

    def _dbsn_hubness_equals_the_stacked_fit(self, data):
        V, cfg = _reference_inputs(data)
        for c in data.draw(st.lists(st.integers(0, V.shape[1] - 1), max_size=4)):
            V[:, c] = -800.0 * cfg.tau - 1.0  # more lost columns, in either block
        n = data.draw(st.integers(1, V.shape[1]))
        tbank = SimilarityMatrix(V[:, n:]) if n < V.shape[1] else None
        h = dbsn_hubness(SimilarityMatrix(V[:, :n]), tbank, cfg)
        ref = estimate_target_hubness(SimilarityMatrix(V), cfg).values[:n]
        np.testing.assert_array_equal(h.values.view(np.uint64), ref.view(np.uint64))
        return V.shape[0]

    @pytest.mark.parametrize("column", [1, 6])
    def test_dbsn_hubness_recovers_lost_column_sums_in_either_block(self, monkeypatch, column):
        V = np.random.default_rng(44).uniform(-1, 1, (7, 9))
        V[:, column] = -9.0  # exp(V / tau) underflows the whole column at tau = 0.01
        gathered = []

        def spy(blocks, lost, on_rows):
            gathered.append((len(blocks), on_rows, lost.tolist()))
            return _gather(blocks, lost, on_rows)

        monkeypatch.setattr(sys.modules["hubkit.sinkhorn"], "_gather", spy)
        h = dbsn_hubness(SimilarityMatrix(V[:, :4]), SimilarityMatrix(V[:, 4:]), SinkhornConfig())
        assert (2, False, [column]) in gathered
        monkeypatch.undo()
        ref = estimate_target_hubness(SimilarityMatrix(V)).values[:4]
        np.testing.assert_array_equal(h.values.view(np.uint64), ref.view(np.uint64))

    def test_gather_lays_out_the_stacked_rows_and_columns(self):
        V = np.random.default_rng(45).uniform(-1, 1, (6, 9))
        blocks = (V[:, :2].copy(), V[:, 2:7].copy(), V[:, 7:].copy())
        for on_rows, lost in ((True, [1, 4]), (True, [0, 2, 3, 5]), (False, [1, 7]), (False, [0, 2, 6, 8]),
                              (False, [3, 4]), (False, [0, 1, 2, 3, 4, 5, 6, 7, 8])):
            got = _gather(blocks, np.array(lost), on_rows)
            ref = V[lost] if on_rows else V[:, lost].T
            # the sums over the gathered rows add in the order the layout sets
            assert got.strides == ref.strides and np.array_equal(got, ref)

    def test_dbsn_hubness_peak_memory(self):
        """The kernel is the only buffer that spans both bank blocks: no stack."""
        rng = np.random.default_rng(43)
        Bt = SimilarityMatrix(rng.uniform(-1, 1, (250, 1200)))
        Bb = SimilarityMatrix(rng.uniform(-1, 1, (250, 800)))
        tracemalloc.start()
        try:
            dbsn_hubness(Bt, Bb, SinkhornConfig(tau=0.01, max_iters=10))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 250 * 2000 * 8

    def test_sn_normalize_peak_memory(self):
        """One kernel buffer and the result: no plan, no per-sweep temporaries."""
        S = SimilarityMatrix(np.random.default_rng(42).uniform(-1, 1, (1000, 1000)))
        tracemalloc.start()
        try:
            sn_normalize(S, SinkhornConfig(tau=0.01, max_iters=10))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * S.values.nbytes
