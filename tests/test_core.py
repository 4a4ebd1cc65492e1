"""Embedding sets, cosine similarity, and rank extraction."""

import os
import signal
import sys
import threading
import time
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
    HubnessVector,
    KOccurrence,
    Marginals,
    NonFiniteInput,
    RankMatrix,
    Role,
    SimilarityMatrix,
    TransportPlan,
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
from hubkit.errors import DataError, KOutOfRange, ShapeMismatch


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
        # spies on dispatch to the ranking pool, which is built once per
        # process: the blocks' threads and the calls handed to the pool
        threads, submitted = [], []
        argsort_block, pool = core._argsort_block, core._ranking_pool

        def spy_block(V, out):
            threads.append(threading.get_ident())
            argsort_block(V, out)

        class SpyPool:
            def submit(self, *call):
                submitted.append(call)
                return pool().submit(*call)

        monkeypatch.setattr(core, "_argsort_block", spy_block)
        monkeypatch.setattr(core, "_ranking_pool", SpyPool)
        monkeypatch.setattr(core, "_ranking_threads", lambda: 2)
        rng = np.random.default_rng(9)
        row_argsort_desc(SimilarityMatrix(rng.uniform(-1, 1, (64, 64))))
        assert submitted == [] and set(threads) == {threading.get_ident()}
        threads.clear()
        V = rng.uniform(-1, 1, (100, 8000))
        order = row_argsort_desc(SimilarityMatrix(V)).order
        # two groups: this thread runs one, the pool the other
        assert len(submitted) == 1 and len(set(threads)) == 2 and threading.get_ident() in threads
        np.testing.assert_array_equal(order, np.argsort(-V, axis=1, kind="stable"))

    def test_one_pool_per_process(self, monkeypatch):
        built = []

        class SpyPool(core.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(core, "ThreadPoolExecutor", SpyPool)
        monkeypatch.setattr(core, "_pool", None)
        monkeypatch.setattr(core, "_ranking_threads", lambda: 2)
        V = np.round(np.random.default_rng(12).uniform(-1, 1, (60, 4000)), 2)
        want = np.argsort(-V, axis=1, kind="stable")
        results = []
        callers = [
            threading.Thread(target=lambda: results.append(row_argsort_desc(SimilarityMatrix(V)).order))
            for _ in range(4)
        ]
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in callers)
            assert len(built) == 1 and len(results) == 4
            for order in results:
                np.testing.assert_array_equal(order, want)
        finally:
            if core._pool is not None:
                core._pool.shutdown()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_ranks_in_a_forked_child(self, monkeypatch):
        # the child does not inherit the parent's pool threads, so a pool
        # kept across the fork would never run the blocks handed to it
        monkeypatch.setattr(core, "_ranking_threads", lambda: 2)
        V = np.round(np.random.default_rng(13).uniform(-1, 1, (100, 8000)), 3)
        want = np.argsort(-V, axis=1, kind="stable")
        S = SimilarityMatrix(V)
        np.testing.assert_array_equal(row_argsort_desc(S).order, want)
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child leaves through _exit
            code = 1
            try:
                code = 0 if np.array_equal(row_argsort_desc(S).order, want) else 3
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while not (done := os.waitpid(pid, os.WNOHANG))[0]:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("ranking in the forked child did not finish within 60 s")
            time.sleep(0.02)
        assert os.waitstatus_to_exitcode(done[1]) == 0

    def test_signed_zeros_keep_column_order(self):
        # the last two rows hold no other equal scores, so only equal keys
        # for the two zeros keep them in column order
        V = np.array([[-0.0, 0.0, -0.0, 1.0], [-0.0, 0.0, 1.0, -1.0], [0.0, -0.0, 1.0, -1.0]])
        order = row_argsort_desc(SimilarityMatrix(V)).order
        np.testing.assert_array_equal(order, [[3, 0, 1, 2], [2, 0, 1, 3], [2, 0, 1, 3]])

    def test_thread_count_follows_hubkit_threads(self, monkeypatch):
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        for value, want in [("1", 1), ("100000", cpus), ("0", cpus), ("-3", cpus), ("junk", cpus)]:
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
    @given(data=st.data(), b=st.integers(0, 11), extra=st.sampled_from([0, 1]))
    @settings(max_examples=40, deadline=None)
    def test_index_width_changes(self, threads, data, b, extra):
        # n = 2^b needs b index bits, n = 2^b + 1 one more
        n = (1 << b) + extra
        m = data.draw(st.integers(1, 6))
        V = data.draw(hnp.arrays(np.float64, (m, n), elements=TIE_VALUES | st.floats(-1, 1)))
        _sorted_as_stable(V, threads, block_values=max(24, 3 * n))

    @pytest.mark.parametrize("n", [1 << 16, (1 << 16) + 1])
    def test_rows_longer_than_the_key_scratch(self, n):
        rng = np.random.default_rng(n)
        V = np.round(rng.uniform(-1, 1, (3, n)), 3)
        V[1] = _ulp_steps(np.full(n, -0.5), np.arange(n) % 5)
        for threads in ("1", "2"):
            _sorted_as_stable(V, threads, block_values=core._SORT_BLOCK_VALUES)

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

    @pytest.mark.parametrize("k", [2.5, np.float64(2.0), "2"])
    def test_non_integer_k_is_refused(self, k):
        S = SimilarityMatrix(np.zeros((2, 3)))
        with pytest.raises(DataError, match="k must be an integer"):
            row_topk_desc(S, k)
        assert row_topk_desc(S, np.int64(2)).cols == 2


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

    def test_rank_orders_are_int32(self):
        S = SimilarityMatrix(np.eye(4))
        assert row_argsort_desc(S).order.dtype == np.int32
        assert row_topk_desc(S, 2).order.dtype == np.int32
        assert RankMatrix(np.array([[1, 0]], dtype=np.int64)).order.dtype == np.int32

    def test_rank_orders_beyond_int32_are_refused(self):
        top = np.iinfo(np.int32).max
        for order in ([[2**31, 0]], [[-(2**31) - 1, 0]], np.array([[2**31, 0]], dtype=np.uint64)):
            with pytest.raises(ShapeMismatch):
                RankMatrix(np.array(order), targets=2**31 + 1)
            with pytest.raises(ShapeMismatch):
                RankMatrix(np.array(order), targets=2)
        with pytest.raises(ShapeMismatch):
            RankMatrix(np.array([[0, 1]]), targets=top + 1)
        assert RankMatrix(np.array([[top, 0]]), targets=top).order[0, 0] == top

    def test_conversions_are_not_copied_again(self):
        """A dtype conversion is adopted: one matrix-sized buffer, no second."""
        rng = np.random.default_rng(14)
        wide = 1000 * 1000 * 8
        for make, raw in (
            (EmbeddingSet, rng.standard_normal((1000, 1000)).astype(np.float32)),
            (SimilarityMatrix, rng.integers(-5, 5, (1000, 1000), dtype=np.int32)),
        ):
            tracemalloc.start()
            try:
                made = make(raw)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.1 * wide
            stored = made.data if make is EmbeddingSet else made.values
            assert stored.dtype == np.float64 and not stored.flags.writeable
            np.testing.assert_array_equal(stored, raw)

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


#: Every domain type, and l2_normalize, as a function of its array, with a
#: valid array of its rank and whether that array is checked for NaN and Inf.
INTAKES = {
    "EmbeddingSet": (EmbeddingSet, np.eye(2), True),
    "SimilarityMatrix": (SimilarityMatrix, np.eye(2), True),
    "SimilarityMatrix float32": (SimilarityMatrix, np.eye(2, dtype=np.float32), True),
    "l2_normalize": (l2_normalize, np.eye(2), True),
    "HubnessVector": (lambda x: HubnessVector(x, temperature=0.1), np.zeros(2), True),
    "Marginals a": (lambda x: Marginals(a=x, b=np.ones(1)), np.full(2, 0.5), True),
    "Marginals b": (lambda x: Marginals(a=None, b=x), np.full(2, 0.5), True),
    "KOccurrence": (lambda x: KOccurrence(k=1, counts=x), np.ones(2, dtype=np.int64), False),
    "RankMatrix": (RankMatrix, np.array([[1, 0]]), False),
    "TransportPlan": (lambda x: TransportPlan(x, None, None, 0.0, 0, 0.0), np.eye(2), False),
}


class TestIntake:
    @pytest.mark.parametrize("name", INTAKES)
    def test_wrong_rank_is_a_shape_mismatch(self, name):
        make, good, _ = INTAKES[name]
        make(good)
        for bad in (good[None], good[0], good.flat[0]):
            with pytest.raises(ShapeMismatch):
                make(bad)

    @pytest.mark.parametrize("name", [name for name in INTAKES if name != "RankMatrix"])  # an empty order is valid
    def test_empty_is_a_shape_mismatch(self, name):
        make, good, _ = INTAKES[name]
        for shape in [(0,)] if good.ndim == 1 else [(0, 2), (2, 0)]:
            with pytest.raises(ShapeMismatch):
                make(np.zeros(shape, dtype=good.dtype))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", [name for name, (_, _, checked) in INTAKES.items() if checked])
    def test_nan_or_inf_is_non_finite(self, name, value):
        """Marginals included: a NaN entry is not a zero entry."""
        make, good, _ = INTAKES[name]
        bad = good.copy()
        bad.flat[-1] = value
        with pytest.raises(NonFiniteInput):
            make(bad)


class _Tagged(np.ndarray):
    """An ndarray subclass with nothing of its own."""


class _Lender:
    """An array-like that hands numpy its own buffer."""

    def __init__(self, arr):
        self.arr = arr

    def __array__(self, dtype=None, copy=None):
        return self.arr


def _matrix(base):
    with pytest.warns(PendingDeprecationWarning):
        return np.asmatrix(base)


#: Arrays a caller may hand over, as functions of a float64 base array.
_SOURCES = {
    "subclass": lambda base: base.view(_Tagged),
    "np.matrix": _matrix,
    "strided view": lambda base: base[..., ::2],
    "float32": lambda base: base.astype(np.float32),
    "array-like": _Lender,
}


@pytest.mark.parametrize(
    "name, stored, source",
    [
        pytest.param(name, stored, source, id=f"{name}-{source}")
        for name, stored in (("EmbeddingSet", "data"), ("SimilarityMatrix", "values"), ("HubnessVector", "values"))
        for source in _SOURCES
        if (name, source) != ("HubnessVector", "np.matrix")  # a matrix is never 1-D
    ],
)
def test_callers_arrays_are_copied_once_and_never_shared(name, stored, source):
    make, good, _ = INTAKES[name]
    base = np.random.default_rng(25).standard_normal((400, 500) if good.ndim == 2 else 200_000)
    arr = _SOURCES[source](base)
    tracemalloc.start()
    try:
        out = getattr(make(arr), stored)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not np.may_share_memory(out, arr) and not np.may_share_memory(out, base)
    assert not out.flags.writeable and type(out) is np.ndarray
    np.testing.assert_array_equal(out, arr)
    assert peak <= 1.1 * out.nbytes  # one buffer: the conversion or the copy, never both
