"""Hubness diagnostics: k-occurrence counts, skewness, and set distance."""

import itertools

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hubkit import (
    DataError,
    DimMismatch,
    EmbeddingSet,
    EmdConfig,
    KOccurrence,
    KOutOfRange,
    Role,
    SimilarityMatrix,
    SinkhornConfig,
    SynthConfig,
    ZeroVarianceWarning,
    cosine_similarity_matrix,
    emd,
    generate_paired,
    inverted_softmax,
    k_occurrence,
    row_argsort_desc,
    row_topk_desc,
    skewness,
    sn_normalize,
)


def _ranks(V):
    return row_argsort_desc(SimilarityMatrix(V))


class TestKOccurrence:
    def test_identity_everyone_retrieved_once(self):
        occ = k_occurrence(_ranks(np.eye(8)), k=1)
        np.testing.assert_array_equal(occ.counts, 1)

    def test_perfect_hub(self):
        # every query scores target 0 highest
        V = np.hstack([np.full((10, 1), 2.0), np.random.default_rng(46).uniform(-1, 1, (10, 9))])
        occ = k_occurrence(_ranks(V), k=1)
        assert occ.counts[0] == 10
        assert occ.counts[1:].sum() == 0

    def test_matches_membership_scan(self):
        rng = np.random.default_rng(47)
        V = rng.uniform(-1, 1, (30, 30))
        occ = k_occurrence(_ranks(V), k=5)
        assert occ.counts.sum() == 150
        for j in range(30):
            hits = 0
            for i in range(30):
                order = sorted(range(30), key=lambda c: (-V[i, c], c))
                hits += j in order[:5]
            assert occ.counts[j] == hits

    def test_counts_always_sum_to_km(self):
        rng = np.random.default_rng(48)
        V = rng.uniform(-1, 1, (17, 23))
        for k in (1, 4, 23):
            assert k_occurrence(_ranks(V), k=k).counts.sum() == k * 17

    def test_top_k_ranks_with_target_count(self):
        V = np.random.default_rng(49).uniform(-1, 1, (20, 15))
        V[:, -1] = -2.0  # in no top-k below k = 15, yet counted
        for k in (1, 3, 15):
            top = k_occurrence(row_topk_desc(SimilarityMatrix(V), k), k)
            np.testing.assert_array_equal(top.counts, k_occurrence(_ranks(V), k).counts)

    def test_k_bounds(self):
        with pytest.raises(KOutOfRange):
            k_occurrence(_ranks(np.eye(4)), k=5)
        with pytest.raises(KOutOfRange):
            k_occurrence(_ranks(np.eye(4)), k=0)

    def test_rejects_negative_counts(self):
        with pytest.raises(DataError):
            KOccurrence(k=1, counts=np.array([1, -1]))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: k_occurrence(_ranks(np.eye(4)), 2.5),
            lambda: k_occurrence(_ranks(np.eye(4)), np.float64(2.0)),
            lambda: KOccurrence(k=1.5, counts=np.array([1, 2])),
            lambda: KOccurrence(k="1", counts=np.array([1, 2])),
        ],
        ids=["k_occurrence float", "k_occurrence numpy float", "KOccurrence float", "KOccurrence str"],
    )
    def test_non_integer_k_is_refused(self, make):
        with pytest.raises(DataError, match="k must be an integer"):
            make()


class TestSkewness:
    def test_constant_counts_warn_and_report_zero(self):
        occ = KOccurrence(k=1, counts=np.full(6, 3))
        with pytest.warns(ZeroVarianceWarning):
            assert skewness(occ) == 0.0

    def test_single_spike(self):
        # population skewness of [0,0,0,10] is (n-2)/sqrt(n-1) = 2/sqrt(3)
        occ = KOccurrence(k=1, counts=np.array([0, 0, 0, 10]))
        assert abs(skewness(occ) - 2.0 / np.sqrt(3.0)) <= 1e-12

    def test_matches_scipy_population_convention(self):
        rng = np.random.default_rng(49)
        counts = rng.integers(0, 40, size=50)
        occ = KOccurrence(k=3, counts=counts)
        assert abs(skewness(occ) - scipy.stats.skew(counts, bias=True)) <= 1e-12

    @given(hnp.arrays(np.int64, st.integers(2, 400), elements=st.integers(0, 2**20))
           | hnp.arrays(np.int64, st.integers(2, 400), elements=st.integers(0, 6)))
    @settings(max_examples=150, deadline=None)
    def test_bit_equal_to_the_per_count_formula(self, counts):
        """Cubing each distinct count once changes no bit of the moment."""
        x = counts.astype(np.float64)
        centered = x - x.mean()
        m2 = np.mean(centered**2)
        assume(m2 != 0.0)
        assert skewness(KOccurrence(k=1, counts=counts)) == float(np.mean(centered**3) / m2**1.5)

    def test_hub_prone_matrix_is_right_skewed(self):
        Q, T, _ = generate_paired(SynthConfig(dim=32, n_pairs=300, seed=0))
        S = cosine_similarity_matrix(Q, T)
        raw = skewness(k_occurrence(row_argsort_desc(S), k=1))
        rescaled = inverted_softmax(S, tau=0.02)
        after = skewness(k_occurrence(row_argsort_desc(rescaled), k=1))
        assert raw > after
        balanced = sn_normalize(S, SinkhornConfig(tau=0.01, max_iters=10))
        assert after > skewness(k_occurrence(row_argsort_desc(balanced), k=1))


class TestEmd:
    def test_identical_sets(self):
        rng = np.random.default_rng(50)
        X = EmbeddingSet(rng.standard_normal((40, 8)))
        Y = EmbeddingSet(X.data.copy(), role=Role.TARGET)
        assert emd(X, Y, EmdConfig(subsample=40, repeats=2)) <= 1e-9

    def test_singletons(self):
        u = np.array([[0.0, 3.0]])
        v = np.array([[4.0, 0.0]])
        value = emd(EmbeddingSet(u), EmbeddingSet(v, role=Role.TARGET), EmdConfig(subsample=1))
        assert abs(value - 5.0) <= 1e-12

    def test_three_points_brute_force(self):
        rng = np.random.default_rng(51)
        X = rng.standard_normal((3, 4))
        Y = rng.standard_normal((3, 4))
        cost = np.array([[np.linalg.norm(x - y) for y in Y] for x in X])
        best = min(
            sum(cost[i, perm[i]] for i in range(3)) / 3.0
            for perm in itertools.permutations(range(3))
        )
        value = emd(
            EmbeddingSet(X), EmbeddingSet(Y, role=Role.TARGET), EmdConfig(subsample=3, repeats=1)
        )
        assert abs(value - best) <= 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_bit_equal_to_the_assignment_cost_sum(self, seed):
        """The estimate is the mean of the optimal assignments' summed costs,
        to the last bit, on subsamples drawn from (seed, repeat) streams."""
        from scipy.optimize import linear_sum_assignment
        from scipy.spatial.distance import cdist

        rng = np.random.default_rng(60 + seed)
        X, Y = rng.standard_normal((70, 8)), rng.standard_normal((90, 8))
        for size in (5, 16, 33, 64):
            total = 0.0
            for repeat in range(2):
                draw = np.random.default_rng((seed, repeat))
                xi = draw.choice(70, size=size, replace=False)
                yi = draw.choice(90, size=size, replace=False)
                cost = cdist(X[xi], Y[yi])
                rows, cols = linear_sum_assignment(cost)
                total += float(cost[rows, cols].sum()) / size
            cfg = EmdConfig(subsample=size, repeats=2, seed=seed)
            assert emd(EmbeddingSet(X), EmbeddingSet(Y, role=Role.TARGET), cfg) == total / 2

    def test_deterministic(self):
        rng = np.random.default_rng(52)
        X = EmbeddingSet(rng.standard_normal((100, 6)))
        Y = EmbeddingSet(rng.standard_normal((120, 6)), role=Role.TARGET)
        cfg = EmdConfig(subsample=32, repeats=4, seed=11)
        assert emd(X, Y, cfg) == emd(X, Y, cfg)

    def test_cosine_ground_cost(self):
        rng = np.random.default_rng(53)
        X = EmbeddingSet(rng.standard_normal((20, 5)))
        Y = EmbeddingSet(2.0 * X.data, role=Role.TARGET)  # same directions
        cfg = EmdConfig(subsample=20, repeats=1, ground_cost="one_minus_cosine")
        assert emd(X, Y, cfg) <= 1e-9

    def test_dim_mismatch(self):
        X = EmbeddingSet(np.ones((2, 3)))
        Y = EmbeddingSet(np.ones((2, 4)), role=Role.TARGET)
        with pytest.raises(DimMismatch):
            emd(X, Y)

    def test_config_validation(self):
        with pytest.raises(DataError):
            EmdConfig(subsample=0)
        with pytest.raises(DataError):
            EmdConfig(ground_cost="manhattan")

    @pytest.mark.parametrize(
        "bad", [{"subsample": 2.5}, {"repeats": 2.0}, {"seed": 0.5}, {"seed": -1}]
    )
    def test_non_integer_count_or_negative_seed_is_refused(self, bad):
        (name,) = bad
        with pytest.raises(DataError, match=name):
            EmdConfig(**bad)
        EmdConfig(**{name: np.int64(3)})  # numpy integers pass
