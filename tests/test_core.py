"""Embedding sets, cosine similarity, and rank extraction."""

import os
import sys

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
    Role,
    SimilarityMatrix,
    ZeroVectorRow,
    cosine_similarity_matrix,
    l2_normalize,
    row_argsort_desc,
)


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
        T = l2_normalize(rng.standard_normal((7, 8)), role=Role.TARGET)
        S = cosine_similarity_matrix(Q, T)
        for i in range(5):
            for j in range(7):
                ref = sum(float(Q.data[i, k]) * float(T.data[j, k]) for k in range(8))
                assert abs(S.values[i, j] - ref) <= 1e-9

    def test_dim_mismatch(self):
        Q = l2_normalize(np.random.default_rng(3).standard_normal((2, 4)))
        T = l2_normalize(np.random.default_rng(4).standard_normal((2, 5)), role=Role.TARGET)
        with pytest.raises(DimMismatch):
            cosine_similarity_matrix(Q, T)

    def test_bounded(self):
        rng = np.random.default_rng(5)
        Q = l2_normalize(rng.standard_normal((20, 6)))
        T = l2_normalize(rng.standard_normal((30, 6)), role=Role.TARGET)
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


class TestRowArgsortMatchesStableSort:
    """The blocked, threaded sort must equal numpy's stable sort exactly."""

    @pytest.mark.parametrize("threads", ["1", "2"])
    @given(
        V=hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=40),
            elements=TIE_VALUES,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_tie_heavy_multi_block(self, threads, V):
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("HUBKIT_THREADS", threads)
            # blocks of a few rows, so most shapes span several blocks
            mp.setattr(core, "_SORT_BLOCK_VALUES", 24)
            order = row_argsort_desc(SimilarityMatrix(V)).order
        np.testing.assert_array_equal(order, np.argsort(-V, axis=1, kind="stable"))

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
        order = row_argsort_desc(SimilarityMatrix(np.array([[-0.0, 0.0, -0.0, 1.0]]))).order
        np.testing.assert_array_equal(order, [[3, 0, 1, 2]])

    def test_thread_count_follows_hubkit_threads(self, monkeypatch):
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        for value, want in [("1", 1), ("100000", cpus), ("0", cpus), ("junk", cpus)]:
            monkeypatch.setenv("HUBKIT_THREADS", value)
            assert core._ranking_threads() == want


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
