"""Inverted softmax, its additive form, and the bank-based variants."""

import sys
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import logsumexp, softmax

from hubkit import core
from hubkit import (
    ColMismatch,
    DataError,
    DISConfig,
    DualISConfig,
    HubnessVector,
    KOutOfRange,
    LengthMismatch,
    NonPositiveTau,
    SimilarityMatrix,
    apply_hubness,
    dis_subset,
    dual_inverted_softmax,
    dual_is_compensations,
    dynamic_inverted_softmax,
    inverted_softmax,
    is_hubness,
)


def _rand_sim(rng, m, n, scale=1.0):
    return SimilarityMatrix(rng.uniform(-scale, scale, (m, n)))


class TestInvertedSoftmax:
    def test_constant_matrix_uniform_columns(self):
        S = SimilarityMatrix(np.full((4, 3), 0.5))
        out = inverted_softmax(S, tau=1.0)
        np.testing.assert_allclose(out.values, 0.25)

    def test_two_by_two_closed_form(self):
        S = SimilarityMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        out = inverted_softmax(S, tau=1.0)
        e = np.e
        expected = np.array([[1 / (1 + e), e / (1 + e)], [e / (1 + e), 1 / (1 + e)]])
        np.testing.assert_allclose(out.values, expected, atol=1e-12)

    def test_huge_tau_flattens(self):
        rng = np.random.default_rng(7)
        out = inverted_softmax(_rand_sim(rng, 6, 6), tau=1e6)
        np.testing.assert_allclose(out.values, 1.0 / 6.0, atol=1e-4)

    def test_tiny_tau_stays_finite(self):
        # cosine-scale scores at tau=1e-4 mean exp arguments near 2e4; the
        # column max-shift has to absorb that
        rng = np.random.default_rng(8)
        out = inverted_softmax(_rand_sim(rng, 10, 10), tau=1e-4)
        assert np.all(np.isfinite(out.values))

    def test_rejects_bad_tau(self):
        S = SimilarityMatrix(np.array([[0.1]]))
        with pytest.raises(NonPositiveTau):
            inverted_softmax(S, tau=0.0)

    # float() takes a Fraction or a Decimal, but numpy cannot compute with one
    @pytest.mark.parametrize("tau", [None, "0.02", [0.02], Fraction(1, 50), Decimal("0.02")])
    def test_rejects_non_numeric_tau(self, tau):
        S = SimilarityMatrix(np.array([[0.1]]))
        for call in (inverted_softmax, is_hubness, lambda S, tau: dynamic_inverted_softmax(S, S, tau=tau)):
            with pytest.raises(DataError, match="tau must be a real number"):
                call(S, tau)
        with pytest.raises(DataError, match="tau1 must be a real number"):
            DualISConfig(tau1=tau)
        with pytest.raises(DataError, match="tau2 must be a real number"):
            dual_inverted_softmax(S, S, S, DualISConfig(tau2=tau))

    @pytest.mark.parametrize("tau", [np.nan, np.inf])
    def test_rejects_non_finite_tau(self, tau):
        S = SimilarityMatrix(np.array([[0.1]]))
        with pytest.raises(NonPositiveTau):
            inverted_softmax(S, tau=tau)
        with pytest.raises(NonPositiveTau):
            DualISConfig(tau1=tau)
        with pytest.raises(NonPositiveTau):
            DualISConfig(tau2=tau)

    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
            elements=st.floats(-5, 5),
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_columns_sum_to_one(self, V):
        out = inverted_softmax(SimilarityMatrix(V), tau=1.0)
        np.testing.assert_allclose(out.values.sum(axis=0), 1.0, atol=1e-9)
        assert np.all(out.values >= 0)


class TestInvertedSoftmaxEqualsScipy:
    """The one-buffer form repeats scipy's steps in order: equal bit for bit."""

    @given(
        V=hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=30),
            elements=st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0]) | st.floats(-1, 1),
        ),
        tau=st.sampled_from([1.0, 0.1, 0.02, 0.005]),
    )
    @settings(max_examples=80, deadline=None)
    def test_tie_heavy(self, V, tau):
        out = inverted_softmax(SimilarityMatrix(V), tau)
        assert np.array_equal(out.values, softmax(V / tau, axis=0))

    def test_random(self):
        V = np.random.default_rng(11).uniform(-1, 1, (300, 200))
        out = inverted_softmax(SimilarityMatrix(V), 0.02)
        assert np.array_equal(out.values, softmax(V / 0.02, axis=0))

    @given(
        V=hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=4, max_side=30),
            elements=st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0]) | st.floats(-1, 1),
        ),
        tau=st.sampled_from([1.0, 0.1, 0.02, 0.005]),
        threads=st.integers(2, 8),
    )
    @settings(max_examples=80, deadline=None)
    def test_tie_heavy_in_column_slabs(self, V, tau, threads):
        # one-row blocks, so one slab per group whatever the size: 2 to 8
        # slabs of 2 or more columns
        run_blocks, slabs = core._run_blocks, []

        def spy(work, starts):
            slabs.append(len(starts))
            run_blocks(work, starts)

        with mock.patch.object(core, "_PASS_BLOCK_VALUES", 1), mock.patch.object(core, "_PASS_BLOCK_ROWS", 1), \
                mock.patch.object(core, "_ranking_threads", lambda: threads), mock.patch.object(core, "_run_blocks", spy):
            out = inverted_softmax(SimilarityMatrix(V), tau)
        assert slabs == [min(threads, V.shape[1] // 2)]
        assert np.array_equal(out.values, softmax(V / tau, axis=0))

    @pytest.mark.parametrize("n", [3500, 4001])
    def test_random_in_default_slabs(self, monkeypatch, n):
        # more than 2^20 values: a slab per group of the pool
        monkeypatch.setattr(core, "_ranking_threads", lambda: 2)
        rng = np.random.default_rng(12)
        V = np.round(rng.uniform(-1, 1, (300, n)), 2)
        V[rng.random(V.shape) < 0.05] = -0.0
        out = inverted_softmax(SimilarityMatrix(V), 0.02)
        assert np.array_equal(out.values, softmax(V / 0.02, axis=0))


class TestHubnessVector:
    def test_single_row_negates_scores(self):
        h = is_hubness(SimilarityMatrix(np.array([[0.3, 0.7]])), tau=0.02)
        np.testing.assert_allclose(h.values, [-0.3, -0.7], atol=1e-12)

    def test_two_equal_rows(self):
        h = is_hubness(SimilarityMatrix(np.full((2, 1), 0.5)), tau=1.0)
        np.testing.assert_allclose(h.values, [-(0.5 + np.log(2.0))], atol=1e-12)

    def test_constant_column_closed_form(self):
        # logsumexp of m copies of c/tau is c/tau + log m
        S = SimilarityMatrix(np.full((5, 2), 0.2))
        h = is_hubness(S, tau=0.1)
        np.testing.assert_allclose(h.values, -0.2 - 0.1 * np.log(5.0), atol=1e-12)

    def test_exponentiated_columns_sum_to_one(self):
        rng = np.random.default_rng(9)
        S = _rand_sim(rng, 20, 10)
        h = is_hubness(S, tau=0.05)
        cols = np.exp(apply_hubness(S, h).values / 0.05).sum(axis=0)
        np.testing.assert_allclose(cols, 1.0, atol=1e-9)


_TAUS = [1.0, 0.1, 0.02, 0.01, 0.005]
_TIE_HEAVY = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0]) | st.floats(-1, 1)
_WIDTH = st.sampled_from([1.0, 50.0])


@st.composite
def _bank(draw, cols, repeats=(), width=1.0):
    """A bank matrix of tie-heavy entries scaled by ``width``, often one row,
    with its columns ``repeats`` appended again at the end."""
    rows = draw(st.just(1) | st.integers(1, 30))
    B = draw(hnp.arrays(np.float64, (rows, cols), elements=_TIE_HEAVY)) * width
    return np.hstack([B, B[:, list(repeats)]])


def _assert_near_scipy(h, ref):
    assert np.all(np.abs(h - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))


def _assert_same_ranking(ref, out):
    """Where ``ref`` orders two entries of a row apart by more than 1e-12
    (relative), ``out`` orders them the same way."""
    a, b = ref[:, :, None], ref[:, None, :]
    apart = np.abs(a - b) > 1e-12 * np.maximum(np.abs(a), np.abs(b)) + np.finfo(np.float64).tiny
    above = (a > b) & apart
    assert np.all(out[:, :, None] > out[:, None, :], where=above)


class TestCompensationsEqualScipy:
    """The column log-sum-exps come from one shifted-exp kernel; they stay
    within 1e-14 of scipy's logsumexp, and rankings built on them order
    entries as the earlier logsumexp formulas did."""

    @given(
        cols=st.integers(1, 12),
        data=st.data(),
        tau=st.sampled_from(_TAUS),
    )
    @settings(max_examples=150, deadline=None)
    def test_is_hubness(self, cols, data, tau):
        repeats = data.draw(st.lists(st.integers(0, cols - 1), max_size=3))
        B = data.draw(_bank(cols, repeats, data.draw(_WIDTH)))
        h = is_hubness(SimilarityMatrix(B), tau).values
        _assert_near_scipy(h, -tau * logsumexp(B / tau, axis=0))
        assert np.array_equal(h[cols:], h[repeats])

    @given(
        cols=st.integers(1, 12),
        data=st.data(),
        tau1=st.sampled_from(_TAUS),
        tau2=st.sampled_from(_TAUS),
    )
    @settings(max_examples=150, deadline=None)
    def test_dual_is_compensations(self, cols, data, tau1, tau2):
        repeats = data.draw(st.lists(st.integers(0, cols - 1), max_size=3))
        Bq = data.draw(_bank(cols, repeats, data.draw(_WIDTH)))
        Bt = data.draw(_bank(cols, repeats, data.draw(_WIDTH)))
        cfg = DualISConfig(tau1, tau2)
        h_q, h_t = dual_is_compensations(SimilarityMatrix(Bq), SimilarityMatrix(Bt), cfg)
        for h, B, tau in ((h_q.values, Bq, tau1), (h_t.values, Bt, tau2)):
            _assert_near_scipy(h, -cfg.lam * logsumexp(B / tau, axis=0))
            assert np.array_equal(h[cols:], h[repeats])

    @given(
        cols=st.integers(1, 12),
        data=st.data(),
        k=st.integers(1, 3),
        tau=st.sampled_from(_TAUS),
    )
    @settings(max_examples=150, deadline=None)
    def test_dynamic_inverted_softmax_ranking(self, cols, data, k, tau):
        B = data.draw(_bank(cols, data.draw(st.lists(st.integers(0, cols - 1), max_size=3))))
        S = data.draw(hnp.arrays(np.float64, (data.draw(st.integers(1, 10)), B.shape[1]), elements=_TIE_HEAVY))
        cfg = DISConfig(k=min(k, B.shape[1]))
        mask = dis_subset(SimilarityMatrix(B), cfg)
        ref = S.copy()
        ref[:, mask] = np.exp(S / tau - logsumexp(B / tau, axis=0))[:, mask]
        out = dynamic_inverted_softmax(SimilarityMatrix(S), SimilarityMatrix(B), cfg, tau)
        _assert_same_ranking(ref, out.values)

    @given(
        cols=st.integers(1, 12),
        data=st.data(),
        tau1=st.sampled_from(_TAUS),
        tau2=st.sampled_from(_TAUS),
    )
    @settings(max_examples=150, deadline=None)
    def test_dual_inverted_softmax_ranking(self, cols, data, tau1, tau2):
        repeats = data.draw(st.lists(st.integers(0, cols - 1), max_size=3))
        Bq, Bt = data.draw(_bank(cols, repeats)), data.draw(_bank(cols, repeats))
        S = data.draw(hnp.arrays(np.float64, (data.draw(st.integers(1, 10)), Bq.shape[1]), elements=_TIE_HEAVY))
        with np.errstate(over="ignore"):
            ref = np.exp((S / tau1 - logsumexp(Bq / tau1, axis=0)) + (S / tau2 - logsumexp(Bt / tau2, axis=0)))
        assume(np.all(ref < 1e300))
        cfg = DualISConfig(tau1, tau2)
        out = dual_inverted_softmax(SimilarityMatrix(S), SimilarityMatrix(Bq), SimilarityMatrix(Bt), cfg)
        _assert_same_ranking(ref, out.values)


class TestApplyHubness:
    def test_zero_vector_is_identity(self):
        rng = np.random.default_rng(10)
        S = _rand_sim(rng, 4, 5)
        out = apply_hubness(S, HubnessVector(np.zeros(5), temperature=0.02))
        np.testing.assert_array_equal(out.values, S.values)

    def test_hand_case_flips_top_target(self):
        S = SimilarityMatrix(np.array([[0.9, 0.1]]))
        out = apply_hubness(S, HubnessVector(np.array([-1.0, 0.0]), temperature=1.0))
        np.testing.assert_allclose(out.values, [[-0.1, 0.1]], atol=1e-12)
        assert int(np.argmax(out.values[0])) == 1

    def test_length_mismatch(self):
        S = SimilarityMatrix(np.zeros((2, 3)) + 0.1)
        with pytest.raises(LengthMismatch):
            apply_hubness(S, HubnessVector(np.zeros(4), temperature=0.02))

    def test_ranking_matches_softmax_form(self):
        """Adding h and exponentiating are monotone-equivalent per row."""
        rng = np.random.default_rng(11)
        S = _rand_sim(rng, 30, 40)
        additive = apply_hubness(S, is_hubness(S, tau=0.02))
        multiplicative = inverted_softmax(S, tau=0.02)
        np.testing.assert_array_equal(
            np.argsort(-additive.values, axis=1, kind="stable"),
            np.argsort(-multiplicative.values, axis=1, kind="stable"),
        )


class TestDynamicSubset:
    def test_top1_single_row(self):
        mask = dis_subset(SimilarityMatrix(np.array([[0.9, 0.1, 0.5]])), DISConfig(k=1))
        np.testing.assert_array_equal(mask, [True, False, False])

    def test_k_equals_n_selects_all(self):
        rng = np.random.default_rng(12)
        mask = dis_subset(_rand_sim(rng, 6, 4), DISConfig(k=4))
        assert mask.all()

    def test_matches_scan(self):
        rng = np.random.default_rng(13)
        S = _rand_sim(rng, 25, 30)
        mask = dis_subset(S, DISConfig(k=3))
        seen = set()
        for row in S.values:
            # stable descending order, ties by index
            order = sorted(range(30), key=lambda j: (-row[j], j))
            seen.update(order[:3])
        np.testing.assert_array_equal(mask, [j in seen for j in range(30)])

    def test_k_out_of_range(self):
        S = SimilarityMatrix(np.zeros((2, 3)) + 0.1)
        with pytest.raises(KOutOfRange):
            dis_subset(S, DISConfig(k=4))
        with pytest.raises(KOutOfRange):
            DISConfig(k=0)

    @pytest.mark.parametrize("k", [2.5, 1.0, "1", None])
    def test_non_integer_k_is_refused(self, k):
        with pytest.raises(DataError, match="k must be an integer"):
            DISConfig(k=k)
        DISConfig(k=np.int64(3))  # numpy integers pass


class TestDynamicInvertedSoftmax:
    def test_all_selected_equals_inverted_softmax(self):
        rng = np.random.default_rng(14)
        S = _rand_sim(rng, 8, 5)
        out = dynamic_inverted_softmax(S, S, DISConfig(k=5), tau=0.05)
        np.testing.assert_allclose(out.values, inverted_softmax(S, tau=0.05).values, atol=1e-12)

    def test_mixed_mask_scales_only_selected(self):
        S = SimilarityMatrix(
            np.array([[0.9, 0.2, 0.1], [0.8, 0.3, 0.1], [0.1, 0.2, 0.7]])
        )
        mask = dis_subset(S, DISConfig(k=1))
        np.testing.assert_array_equal(mask, [True, False, True])
        out = dynamic_inverted_softmax(S, S, DISConfig(k=1), tau=0.05)
        # selected columns are softmax columns (bank is the query set here)
        np.testing.assert_allclose(out.values[:, mask].sum(axis=0), 1.0, atol=1e-9)
        # unselected columns pass through untouched
        np.testing.assert_array_equal(out.values[:, ~mask], S.values[:, ~mask])

    def test_column_count_mismatch(self, monkeypatch):
        rng = np.random.default_rng(15)
        fits = []
        monkeypatch.setattr(sys.modules["hubkit.scaling"], "is_hubness", lambda *args: fits.append(args))
        with pytest.raises(ColMismatch):
            dynamic_inverted_softmax(_rand_sim(rng, 4, 5), _rand_sim(rng, 3, 6))
        assert fits == []  # refused before the bank is fitted


class TestDualInvertedSoftmax:
    def test_harmonic_scale(self):
        assert abs(DualISConfig(0.02, 0.02).lam - 0.01) <= 1e-15
        cfg = DualISConfig(0.1, 0.05)
        assert abs(cfg.lam - (0.1 * 0.05) / 0.15) <= 1e-15
        assert cfg.lam < min(cfg.tau1, cfg.tau2)

    def test_product_equals_exponential_form(self):
        rng = np.random.default_rng(16)
        S = _rand_sim(rng, 10, 10)
        Bq = _rand_sim(rng, 12, 10)
        Bt = _rand_sim(rng, 9, 10)
        cfg = DualISConfig(0.03, 0.05)
        out = dual_inverted_softmax(S, Bq, Bt, cfg)
        h_q, h_t = dual_is_compensations(Bq, Bt, cfg)
        rebuilt = np.exp((S.values + h_q.values[None, :] + h_t.values[None, :]) / cfg.lam)
        np.testing.assert_allclose(out.values, rebuilt, rtol=1e-9)

    def test_equal_banks_square_the_single_softmax(self):
        rng = np.random.default_rng(17)
        S = _rand_sim(rng, 8, 12)
        out = dual_inverted_softmax(S, S, S, DualISConfig(0.02, 0.02))
        squared = inverted_softmax(S, tau=0.02).values ** 2
        np.testing.assert_allclose(out.values, squared, rtol=1e-9)

    def test_constant_banks_leave_ranking_alone(self):
        # flat bank columns compensate every target equally
        rng = np.random.default_rng(70)
        S = _rand_sim(rng, 8, 12)
        flat = SimilarityMatrix(np.full((1, 12), 0.4))
        out = dual_inverted_softmax(S, flat, flat, DualISConfig(0.02, 0.02))
        np.testing.assert_array_equal(
            np.argsort(-out.values, axis=1, kind="stable"),
            np.argsort(-S.values, axis=1, kind="stable"),
        )

    def test_bank_shape_checks(self):
        rng = np.random.default_rng(18)
        S = _rand_sim(rng, 4, 5)
        with pytest.raises(ColMismatch):
            dual_inverted_softmax(S, _rand_sim(rng, 4, 6), _rand_sim(rng, 4, 5))
        with pytest.raises(ColMismatch):
            dual_inverted_softmax(S, _rand_sim(rng, 4, 5), _rand_sim(rng, 4, 7))
        with pytest.raises(NonPositiveTau):
            DualISConfig(tau1=-0.1)
