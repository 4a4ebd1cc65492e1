"""Embedding sets, cosine similarity, and rank extraction."""

import os
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hubkit import core
from hubkit import (
    DimMismatch,
    EmbeddingSet,
    NonFiniteInput,
    RankMatrix,
    Role,
    SimilarityMatrix,
    ZeroVectorRow,
    cosine_similarity_matrix,
    l2_normalize,
    read_embeddings,
    read_similarity,
    row_argsort_desc,
    row_topk_desc,
    write_embeddings,
    write_similarity,
)
from hubkit.errors import KOutOfRange, ShapeMismatch


class TestL2Normalize:
    def test_three_four_five(self):
        out = l2_normalize(np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(out.data, [[0.6, 0.8]])

    def test_axis_vectors(self):
        out = l2_normalize(np.array([[1.0, 0.0], [0.0, 2.0]]))
        np.testing.assert_allclose(out.data, [[1.0, 0.0], [0.0, 1.0]])

    def test_random_norms_unit(self):
        rng = np.random.default_rng(0)
        out = l2_normalize(rng.standard_normal((100, 16)))
        # recompute norms with a plain loop, independent of the vectorized path
        for row in out.data:
            assert abs(sum(float(x) * float(x) for x in row) ** 0.5 - 1.0) <= 1e-9

    def test_zero_row_rejected(self):
        with pytest.raises(ZeroVectorRow):
            l2_normalize(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteInput):
            l2_normalize(np.array([[np.nan, 1.0]]))

    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=8),
            elements=st.floats(-1e6, 1e6),
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_unit_norm_property(self, X):
        norms = np.linalg.norm(X, axis=1)
        if np.any(norms < 1e-12):
            return
        out = l2_normalize(X)
        np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), 1.0, atol=1e-9)


class TestCosineSimilarity:
    def test_orthonormal_axes(self):
        E = EmbeddingSet(np.eye(2))
        S = cosine_similarity_matrix(E, EmbeddingSet(np.eye(2), role=Role.TARGET))
        np.testing.assert_allclose(S.values, np.eye(2))

    def test_self_similarity(self):
        q = l2_normalize(np.random.default_rng(1).standard_normal((1, 12)))
        S = cosine_similarity_matrix(q, EmbeddingSet(q.data, role=Role.TARGET))
        assert abs(S.values[0, 0] - 1.0) <= 1e-9

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(2)
        Q = l2_normalize(rng.standard_normal((5, 8)))
        T = l2_normalize(rng.standard_normal((7, 8)))
        S = cosine_similarity_matrix(Q, T)
        for i in range(5):
            for j in range(7):
                ref = sum(float(Q.data[i, k]) * float(T.data[j, k]) for k in range(8))
                assert abs(S.values[i, j] - ref) <= 1e-9

    def test_dim_mismatch(self):
        Q = l2_normalize(np.random.default_rng(3).standard_normal((2, 4)))
        T = l2_normalize(np.random.default_rng(4).standard_normal((2, 5)))
        with pytest.raises(DimMismatch):
            cosine_similarity_matrix(Q, T)

    def test_bounded(self):
        rng = np.random.default_rng(5)
        Q = l2_normalize(rng.standard_normal((20, 6)))
        T = l2_normalize(rng.standard_normal((30, 6)))
        S = cosine_similarity_matrix(Q, T)
        assert np.all(S.values <= 1.0 + 1e-12) and np.all(S.values >= -1.0 - 1e-12)


class TestRowArgsortDesc:
    def test_simple_order(self):
        order = row_argsort_desc(SimilarityMatrix(np.array([[0.1, 0.9, 0.5]])))
        np.testing.assert_array_equal(order.order, [[1, 2, 0]])

    def test_tie_breaks_by_index(self):
        order = row_argsort_desc(SimilarityMatrix(np.array([[0.5, 0.5]])))
        np.testing.assert_array_equal(order.order, [[0, 1]])

    def test_scores_non_increasing_along_order(self):
        rng = np.random.default_rng(6)
        S = SimilarityMatrix(rng.uniform(-1, 1, (50, 50)))
        order = row_argsort_desc(S)
        for i in range(50):
            ranked = S.values[i, order.order[i]]
            assert np.all(np.diff(ranked) <= 0)

    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=7),
            elements=st.floats(-10, 10),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_are_permutations(self, V):
        order = row_argsort_desc(SimilarityMatrix(V)).order
        n = V.shape[1]
        for row in order:
            assert sorted(row.tolist()) == list(range(n))


TIE_VALUES = st.sampled_from([0.0, -0.0, 0.25, -0.25, 0.5, 1.0, -1.0])

#: Magnitudes from the subnormal range to the largest double, both signs,
#: and the two zeros.
EXTREME_VALUES = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308, -2.2250738585072014e-308]
    + [1e-300, -1e-300, 1.0, -1.0, 1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308]
)


def _ulp_steps(base: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """``base`` moved by ``steps`` units in the last place, away from zero
    for positive steps (no value may cross zero or overflow)."""
    return (base.view(np.int64) + steps).view(np.float64)


def _sorted_as_stable(V: np.ndarray, threads: str, block_values: int = 24) -> None:
    """row_argsort_desc(V) equals the stable sort; the default blocks of a
    few rows make most shapes span several blocks."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("HUBKIT_THREADS", threads)
        mp.setattr(core, "_SORT_BLOCK_VALUES", block_values)
        order = row_argsort_desc(SimilarityMatrix(V)).order
    np.testing.assert_array_equal(order, np.argsort(-V, axis=1, kind="stable"))


class TestRowArgsortMatchesStableSort:
    """The blocked, threaded sort must equal numpy's stable sort exactly."""

    @pytest.mark.parametrize("threads", ["1", "2"])
    @given(
        V=hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=40),
            elements=TIE_VALUES | EXTREME_VALUES,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_tie_heavy_multi_block(self, threads, V):
        _sorted_as_stable(V, threads)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_default_blocks_with_rounded_ties(self, monkeypatch, threads):
        monkeypatch.setenv("HUBKIT_THREADS", threads)
        rng = np.random.default_rng(7)
        V = np.round(rng.uniform(-1, 1, (300, 1000)), 2)
        V[rng.random(V.shape) < 0.05] = -0.0
        V[::7] = rng.uniform(-1, 1, (V[::7].shape))  # some rows without ties
        order = row_argsort_desc(SimilarityMatrix(V)).order
        np.testing.assert_array_equal(order, np.argsort(-V, axis=1, kind="stable"))

    def test_more_threads_than_cores(self, monkeypatch):
        # workers write disjoint row blocks of one output array
        monkeypatch.setattr(core, "_ranking_threads", lambda: 8)
        monkeypatch.setattr(core, "_SORT_BLOCK_VALUES", 64)
        rng = np.random.default_rng(8)
        V = np.round(rng.uniform(-1, 1, (200, 32)), 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            order = row_argsort_desc(SimilarityMatrix(V)).order
        finally:
            sys.setswitchinterval(interval)
        np.testing.assert_array_equal(order, np.argsort(-V, axis=1, kind="stable"))

    def test_threads_only_for_large_matrices(self, monkeypatch):
        pools = []

        class SpyPool(core.ThreadPoolExecutor):
            def __init__(self, workers):
                pools.append(workers)
                super().__init__(workers)

        monkeypatch.setattr(core, "ThreadPoolExecutor", SpyPool)
        monkeypatch.setattr(core, "_ranking_threads", lambda: 2)
        rng = np.random.default_rng(9)
        row_argsort_desc(SimilarityMatrix(rng.uniform(-1, 1, (64, 64))))
        assert pools == []
        row_argsort_desc(SimilarityMatrix(rng.uniform(-1, 1, (100, 8000))))
        assert pools == [2]

    def test_signed_zeros_keep_column_order(self):
        # the last two rows hold no other equal scores, so only equal keys
        # for the two zeros keep them in column order
        V = np.array([[-0.0, 0.0, -0.0, 1.0], [-0.0, 0.0, 1.0, -1.0], [0.0, -0.0, 1.0, -1.0]])
        order = row_argsort_desc(SimilarityMatrix(V)).order
        np.testing.assert_array_equal(order, [[3, 0, 1, 2], [2, 0, 1, 3], [2, 0, 1, 3]])

    def test_thread_count_follows_hubkit_threads(self, monkeypatch):
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        for value, want in [("1", 1), ("100000", cpus), ("0", cpus), ("junk", cpus)]:
            monkeypatch.setenv("HUBKIT_THREADS", value)
            assert core._ranking_threads() == want


class TestPackedKeys:
    """Packed int64 keys keep a score's high bits and the column index; every
    way two scores can share a key's high bits must still sort stably."""

    def test_neighbours_in_the_dropped_bits(self):
        # three adjacent doubles: two of any three consecutive keys share
        # all bits above the lowest two, and the higher score sits right
        x = np.array([0.3, -0.3, 1e-310, 1e300])
        V = _ulp_steps(np.repeat(x[:, None], 3, axis=1), np.array([[0, 1, 2]]))
        V[1] = V[1, ::-1]  # away from zero is downward for negative scores
        assert np.all(np.diff(V, axis=1) > 0)
        np.testing.assert_array_equal(row_argsort_desc(SimilarityMatrix(V)).order, [[2, 1, 0]] * 4)

    @pytest.mark.parametrize("threads", ["1", "2"])
    @given(
        data=st.data(),
        base=st.floats(1e-300, 1e300),
        n=st.integers(1, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_scores_a_few_ulps_apart(self, threads, data, base, n):
        m = data.draw(st.integers(1, 12))
        steps = data.draw(hnp.arrays(np.int64, (m, n), elements=st.integers(0, 2 * n)))
        signs = data.draw(hnp.arrays(np.float64, (m, 1), elements=st.sampled_from([1.0, -1.0])))
        _sorted_as_stable(_ulp_steps(np.full((m, n), base) * signs, steps), threads)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 256, 257, 4096, 4097])
    def test_column_counts_at_the_bit_boundaries(self, n):
        rng = np.random.default_rng(n)
        V = np.round(rng.uniform(-1, 1, (6, n)), 2)
        V[1] = _ulp_steps(np.full(n, 0.5), np.arange(n) % 7)  # dropped-bit neighbours
        V[2] = rng.uniform(-1, 1, n)  # no ties at all
        V[3] = rng.uniform(-1, 1, n)
        V[3, 0], V[3, -1] = -0.0, 0.0  # a lone pair of signed zeros
        for threads in ("1", "2"):
            _sorted_as_stable(V, threads, block_values=max(24, 2 * n))

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_float32_origin_scores(self, tmp_path, threads):
        rng = np.random.default_rng(11)
        V = np.round(rng.standard_normal((120, 300)), 3)
        V[rng.random(V.shape) < 0.05] = -0.0
        write_similarity(SimilarityMatrix(V), tmp_path / "s.sim")
        read = read_similarity(tmp_path / "s.sim").values
        assert np.array_equal(read, V.astype(np.float32))
        _sorted_as_stable(read, threads, block_values=1000)


class TestRowTopkDesc:
    """The top-k path must equal the first k columns of the full sort."""

    @pytest.mark.parametrize("threads", ["1", "2"])
    @given(
        data=st.data(),
        V=hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=40),
            elements=TIE_VALUES | st.floats(-1, 1),
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_full_sort_prefix(self, threads, data, V):
        k = data.draw(st.integers(1, V.shape[1]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("HUBKIT_THREADS", threads)
            mp.setattr(core, "_SORT_BLOCK_VALUES", 24)
            top = row_topk_desc(SimilarityMatrix(V), k).order
        assert top.shape == (V.shape[0], k)
        np.testing.assert_array_equal(top, row_argsort_desc(SimilarityMatrix(V)).order[:, :k])

    def test_tie_across_the_cut_takes_lower_columns(self):
        V = np.array([[0.5, 0.9, 0.5, 0.5, -0.0, 0.0]])
        np.testing.assert_array_equal(row_topk_desc(SimilarityMatrix(V), 2).order, [[1, 0]])
        np.testing.assert_array_equal(row_topk_desc(SimilarityMatrix(-V), 3).order, [[4, 5, 0]])

    def test_k_out_of_range(self):
        S = SimilarityMatrix(np.zeros((2, 3)))
        for k in (0, 4):
            with pytest.raises(KOutOfRange):
                row_topk_desc(S, k)


class TestContainers:
    def test_embedding_set_rejects_empty(self):
        with pytest.raises(Exception):
            EmbeddingSet(np.zeros((0, 3)))

    def test_embedding_set_rejects_1d(self):
        with pytest.raises(Exception):
            EmbeddingSet(np.ones(4))

    def test_similarity_rejects_non_finite(self):
        with pytest.raises(NonFiniteInput):
            SimilarityMatrix(np.array([[np.inf, 0.0]]))

    def test_arrays_are_frozen(self):
        S = SimilarityMatrix(np.array([[0.1, 0.2]]))
        with pytest.raises(ValueError):
            S.values[0, 0] = 5.0

    def test_with_values_keeps_roles(self):
        S = SimilarityMatrix(np.array([[0.1]]), row_role=Role.QUERY_BANK, col_role=Role.TARGET)
        S2 = S.with_values(np.array([[0.7]]))
        assert S2.row_role == Role.QUERY_BANK and S2.col_role == Role.TARGET
        assert S2.values[0, 0] == 0.7

    def test_arrays_passed_in_are_copied(self):
        values = np.array([[0.1, 0.2]])
        order = np.array([[1, 0]])
        S, R = SimilarityMatrix(values), RankMatrix(order)
        values[0, 0] = 5.0
        order[0, 0] = 0
        assert S.values[0, 0] == 0.1 and R.order[0, 0] == 1
        assert S.with_values(values).values is not values

    def test_rank_matrix_records_its_target_count(self):
        assert RankMatrix(np.array([[1, 0, 2]])).targets == 3
        assert RankMatrix(np.array([[3, 0]]), targets=5).targets == 5
        assert row_topk_desc(SimilarityMatrix(np.eye(4)), 2).targets == 4
        with pytest.raises(ShapeMismatch):
            RankMatrix(np.array([[1, 0, 2]]), targets=2)

    def test_library_results_are_not_copied(self, monkeypatch, tmp_path):
        """Fresh results are frozen in place: no second m x n buffer."""
        monkeypatch.setenv("HUBKIT_THREADS", "1")  # one block's temporaries at a time
        Q = EmbeddingSet(np.random.default_rng(10).standard_normal((1000, 8)))
        write_embeddings(Q, tmp_path / "q.emb")
        tracemalloc.start()
        try:
            S = cosine_similarity_matrix(Q, Q)
            _, sim_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            R = row_argsort_desc(S)
            _, rank_peak = tracemalloc.get_traced_memory()
            write_similarity(S, tmp_path / "s.sim")
            read_peaks = []
            for read, path in ((read_similarity, "s.sim"), (read_embeddings, "q.emb")):
                before, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                loaded = read(tmp_path / path)
                read_peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        assert sim_peak < 1.5 * S.values.nbytes
        # the keys are built in R.order; one block of scratch comes on top
        assert rank_peak - S.values.nbytes < 1.2 * R.order.nbytes
        # SIM1 values are read straight into the matrix's float32 array;
        # EMB1 adds the float64 widening to it
        assert read_peaks[0] < 0.55 * S.values.nbytes
        assert read_peaks[1] < 1.75 * Q.data.nbytes
        for arr in (S.values, R.order, loaded.data):
            with pytest.raises(ValueError):
                arr[0, 0] = 1
