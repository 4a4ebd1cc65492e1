"""Rank-based retrieval metrics against hand cases and a linear-scan oracle."""

import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hubkit import core, errors, retrieval
from hubkit import (
    DataError,
    GroundTruth,
    IndexOutOfRange,
    KOutOfRange,
    RankMatrix,
    RetrievalReport,
    ShapeMismatch,
    SimilarityMatrix,
    best_rank,
    evaluate,
    row_argsort_desc,
    row_topk_desc,
)


def _ranks(V):
    return row_argsort_desc(SimilarityMatrix(V))


def _best_rank_by_query(ranks, gt):
    """best_rank as one lookup per query in the inverse of its row order."""
    assert len(gt) == ranks.rows
    positions = np.empty_like(ranks.order)
    positions[np.arange(ranks.rows)[:, None], ranks.order] = np.arange(ranks.cols)[None, :]
    out = np.empty(ranks.rows, dtype=np.int64)
    for i, targets in enumerate(gt.pairs):
        idx = np.fromiter(targets, dtype=np.int64)
        assert idx.max() < ranks.cols
        out[i] = positions[i, idx].min() + 1
    return out


class TestGroundTruth:
    def test_identity(self):
        gt = GroundTruth.identity(3)
        assert len(gt) == 3
        assert gt.pairs[2] == frozenset({2})

    def test_from_indices(self):
        gt = GroundTruth.from_indices([4, 0, 2])
        assert gt.pairs == (frozenset({4}), frozenset({0}), frozenset({2}))

    def test_rejects_empty_target_set(self):
        with pytest.raises(DataError):
            GroundTruth((frozenset({1}), frozenset()))

    def test_rejects_negative_index(self):
        with pytest.raises(IndexOutOfRange):
            GroundTruth.from_indices([-1])

    @pytest.mark.parametrize(
        "make",
        [
            lambda: GroundTruth(({0}, {1.5})),
            lambda: GroundTruth(({0}, {"2"})),
            lambda: GroundTruth.from_indices([0, 2.2]),
            lambda: GroundTruth.from_indices([0, np.float64(1.0)]),
        ],
        ids=["float", "str", "from_indices float", "from_indices numpy float"],
    )
    def test_rejects_non_integer_index(self, make):
        with pytest.raises(DataError, match="query 1's target must be an integer"):
            make()

    def test_numpy_integers_become_python_ints(self):
        gt = GroundTruth.from_indices(np.arange(2, dtype=np.int32))
        assert gt.pairs == (frozenset({0}), frozenset({1}))
        assert all(type(j) is int for p in gt.pairs for j in p)

    @pytest.mark.parametrize("pairs", [5, 2.5, None])
    def test_rejects_a_non_collection(self, pairs):
        with pytest.raises(DataError, match="ground truth must be a collection"):
            GroundTruth(pairs)

    @pytest.mark.parametrize("m", [2.5, np.float64(2.0)])
    def test_identity_refuses_non_integer_size(self, m):
        with pytest.raises(DataError, match="m must be an integer"):
            GroundTruth.identity(m)

    @pytest.mark.parametrize("entry", [2, None, 1.5], ids=["int", "None", "float"])
    def test_rejects_entry_that_is_not_a_collection(self, entry):
        with pytest.raises(DataError, match="query 1's targets must be a collection of indices"):
            GroundTruth(({0}, entry))

    def test_rejects_index_beyond_int64(self):
        GroundTruth.from_indices([2**63 - 1])
        with pytest.raises(IndexOutOfRange, match="query 2"):
            best_rank(_ranks(np.eye(3)), GroundTruth(({0}, {1}, {2**70})))
        with pytest.raises(IndexOutOfRange, match=f"query 1 references target {2**63}, beyond int64"):
            GroundTruth.from_indices(np.array([0, 2**63], dtype=np.uint64))


INT_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


def _outcome(make):
    """The pairs and length of ``make()``'s ground truth, or the class and
    message of what it raised."""
    try:
        gt = make()
    except Exception as exc:
        return type(exc), str(exc)
    return gt.pairs, len(gt)


@st.composite
def index_sequences(draw, n: int):
    """One target index below n per query, as an integer array of any
    width (a view, at times), a list of ints or of numpy scalars, or a range."""
    values = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=12))
    dtype = draw(st.sampled_from(INT_DTYPES))
    form = draw(st.sampled_from(["array", "view", "ints", "numpy scalars", "range"]))
    if form == "array":
        return values, np.array(values, dtype=dtype)
    if form == "view":
        return values, np.repeat(np.array(values, dtype=dtype), 2)[::2]
    if form == "numpy scalars":
        return values, [dtype(j) for j in values]
    if form == "range":
        start = draw(st.integers(0, n - 1))
        indices = range(start, n, draw(st.integers(1, 3)))
        return list(indices), indices
    return values, values


@st.composite
def index_inputs(draw):
    """What a caller might pass as one index per query, valid or not:
    integer, float and bool arrays of 0 to 2 dims (empty ones too), lists of
    ints beyond either end of int64, floats or bools, and ranges."""
    wild_ints = st.integers(-(2**70), 2**70)
    kind = draw(st.sampled_from(["array", "list", "range"]))
    if kind == "array":
        dtype = draw(st.sampled_from([*INT_DTYPES, np.float64, np.float32, np.bool_]))
        shape = draw(hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4))
        return draw(hnp.arrays(dtype, shape))
    if kind == "range":
        return range(draw(st.integers(-3, 3)), draw(st.integers(-3, 6)))
    element = st.one_of(
        st.integers(0, 5), wild_ints, st.just(2**63 - 1), st.just(2**63), st.floats(-3, 3), st.booleans(),
        st.sampled_from([np.True_, np.float64(1.0), np.uint64(2**64 - 1), np.int8(-1)]),
    )
    return draw(st.lists(element, max_size=4))


class TestGroundTruthFromArrays:
    """identity and from_indices check index arrays with numpy, and must
    give what the generic constructor gives for the same targets."""

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_same_truth_and_scores_as_the_generic_constructor(self, data):
        n = data.draw(st.integers(1, 12))
        values, indices = data.draw(index_sequences(n))
        size = data.draw(st.integers(1, 12))
        m = data.draw(st.sampled_from([int, *INT_DTYPES]))(size)
        cols = max(n, size)
        V = data.draw(hnp.arrays(np.float64, (max(len(values), size), cols), elements=TIE_VALUES))
        for gt, targets in ((GroundTruth.from_indices(indices), values), (GroundTruth.identity(m), range(size))):
            generic = GroundTruth(tuple(frozenset({j}) for j in targets))
            assert gt.pairs == generic.pairs and len(gt) == len(generic)
            assert gt == generic and hash(gt) == hash(generic)
            assert all(type(j) is int for p in gt.pairs for j in p)
            S = SimilarityMatrix(V[: len(gt)])
            assert evaluate(S, gt, [1, cols]) == evaluate(S, generic, [1, cols])
            ranks = row_argsort_desc(S)
            np.testing.assert_array_equal(best_rank(ranks, gt), best_rank(ranks, generic))

    @given(indices=index_inputs())
    @settings(max_examples=300, deadline=None)
    def test_from_indices_accepts_and_refuses_as_singletons_do(self, indices):
        # the reference: one singleton entry per index, through the generic constructor
        assert _outcome(lambda: GroundTruth.from_indices(indices)) == _outcome(
            lambda: GroundTruth(tuple((i,) for i in indices))
        )

    @pytest.mark.parametrize("indices", [5, None, np.array(3)], ids=["int", "None", "0-d array"])
    def test_from_indices_refuses_what_is_not_a_collection(self, indices):
        with pytest.raises(DataError, match="^indices must be a collection of target indices, got"):
            GroundTruth.from_indices(indices)

    @given(m=st.one_of(
        st.integers(-3, 20), st.booleans(), st.floats(-3, 20), st.text(max_size=2), st.none(),
        st.sampled_from([np.True_, np.float64(2.0), np.int8(3), np.uint64(0)]),
    ))
    @settings(max_examples=100, deadline=None)
    def test_identity_accepts_and_refuses_as_its_sets_do(self, m):
        assert _outcome(lambda: GroundTruth.identity(m)) == _outcome(
            lambda: GroundTruth(tuple(frozenset((i,)) for i in range(errors._as_index("m", m))))
        )

    def test_scoring_never_builds_the_sets(self, monkeypatch):
        reads = []
        monkeypatch.setattr(GroundTruth, "pairs", property(reads.append))
        S = SimilarityMatrix(np.random.default_rng(59).uniform(-1, 1, (4, 5)))
        ranks = row_argsort_desc(S)
        for gt in (
            GroundTruth.identity(4),
            GroundTruth.from_indices(np.array([4, 0, 2, 2], dtype=np.uint8)),
            GroundTruth(({0, 3}, {1}, {4, 2, 0}, {3})),
        ):
            evaluate(S, gt, [1, 3])
            best_rank(ranks, gt)
        assert reads == []

    def test_arrays_are_read_only_and_the_callers_array_is_not_held(self):
        indices = np.array([2, 0, 1])
        gt = GroundTruth.from_indices(indices)
        indices[0] = 1
        assert gt.pairs == (frozenset({2}), frozenset({0}), frozenset({1}))
        for arr in (gt.targets, gt.starts):
            assert arr.dtype == np.int64 and not arr.flags.writeable


class TestBestRank:
    def test_correct_target_first(self):
        ranks = _ranks(np.eye(5))
        np.testing.assert_array_equal(best_rank(ranks, GroundTruth.identity(5)), 1)

    def test_hand_order(self):
        # ranked order is [2, 0, 1]; target 1 sits at 1-based position 3
        ranks = _ranks(np.array([[0.5, 0.1, 0.9]]))
        np.testing.assert_array_equal(ranks.order, [[2, 0, 1]])
        assert best_rank(ranks, GroundTruth.from_indices([1]))[0] == 3

    def test_multi_target_takes_best(self):
        ranks = _ranks(np.array([[0.5, 0.1, 0.9]]))
        gt = GroundTruth((frozenset({0, 1}),))
        assert best_rank(ranks, gt)[0] == 2  # target 0 outranks target 1

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(54)
        V = rng.uniform(-1, 1, (25, 40))
        correct = rng.integers(0, 40, size=25)
        out = best_rank(_ranks(V), GroundTruth.from_indices(correct))
        for i in range(25):
            # count strictly better scores, plus earlier-index ties
            better = sum(
                V[i, j] > V[i, correct[i]] or (V[i, j] == V[i, correct[i]] and j < correct[i])
                for j in range(40)
            )
            assert out[i] == better + 1

    def test_target_index_out_of_range(self):
        ranks = _ranks(np.eye(3))
        with pytest.raises(IndexOutOfRange):
            best_rank(ranks, GroundTruth.from_indices([0, 1, 3]))

    def test_row_count_mismatch(self):
        ranks = _ranks(np.eye(3))
        with pytest.raises(ShapeMismatch):
            best_rank(ranks, GroundTruth.identity(4))

    def test_top_k_ranking_is_refused(self):
        S = SimilarityMatrix(np.array([[0.1, 0.2, 0.9, 0.8], [0.3, 0.1, 0.5, 0.7]]))
        with pytest.raises(ShapeMismatch, match="full row permutations"):
            best_rank(row_topk_desc(S, 2), GroundTruth.identity(2))

    def test_top_k_ranking_of_the_first_columns_is_refused(self):
        # every row picks columns 0..k-1, so only the target count tells it
        # from a full ranking over k targets
        S = SimilarityMatrix(np.array([[0.9, 0.8, 0.1, 0.2]]))
        ranks = row_topk_desc(S, 2)
        assert (ranks.cols, ranks.targets) == (2, 4)
        with pytest.raises(ShapeMismatch, match="full row permutations"):
            best_rank(ranks, GroundTruth.from_indices([3]))

    def test_order_beyond_its_width_is_refused(self):
        ranks = RankMatrix(np.array([[0, 3, 1]]))
        with pytest.raises(ShapeMismatch, match="column indices 0..3"):
            best_rank(ranks, GroundTruth.identity(1))

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_per_query_reference(self, data):
        V, gt = data.draw(scores_and_truth(multi=True))
        ranks = _ranks(V)
        np.testing.assert_array_equal(best_rank(ranks, gt), _best_rank_by_query(ranks, gt))

    @pytest.mark.parametrize(
        "gt, error",
        [
            (GroundTruth.identity(4), ShapeMismatch),
            (GroundTruth((frozenset({0}), frozenset({1, 9}), frozenset({5}))), IndexOutOfRange),
        ],
    )
    def test_raises_as_evaluate_does(self, gt, error):
        S = SimilarityMatrix(np.eye(3))
        with pytest.raises(error) as from_best_rank:
            best_rank(row_argsort_desc(S), gt)
        with pytest.raises(error) as from_evaluate:
            evaluate(S, gt, Ks=[1])
        assert str(from_best_rank.value) == str(from_evaluate.value)


class TestEvaluate:
    def test_identity_is_perfect(self):
        report = evaluate(SimilarityMatrix(np.eye(6)), GroundTruth.identity(6), Ks=[1, 5])
        assert report.r_at[1] == 100.0
        assert report.r_at[5] == 100.0
        assert report.mdr == 1.0
        assert report.mnr == 1.0

    def test_staircase_ranks(self):
        # rows engineered so the best ranks are exactly 1, 2, 3, 4
        V = np.zeros((4, 5))
        for i in range(4):
            V[i, i] = 1.0
            for step in range(i):
                V[i, (i + 1 + step) % 5] = 2.0
        report = evaluate(SimilarityMatrix(V), GroundTruth.identity(4), Ks=[1, 5])
        assert report.r_at[1] == 25.0
        assert report.r_at[5] == 100.0
        assert report.mdr == 2.0  # lower median of [1, 2, 3, 4]
        assert report.mnr == 2.5

    def test_correct_target_always_last(self):
        report = evaluate(SimilarityMatrix(-np.eye(10)), GroundTruth.identity(10), Ks=[5, 10])
        assert report.r_at[5] == 0.0
        assert report.r_at[10] == 100.0
        assert report.mnr == 10.0

    def test_recall_monotone_in_k(self):
        rng = np.random.default_rng(55)
        S = SimilarityMatrix(rng.uniform(-1, 1, (30, 30)))
        report = evaluate(S, GroundTruth.identity(30), Ks=[1, 2, 5, 10, 30])
        values = [report.r_at[k] for k in sorted(report.r_at)]
        assert all(lo <= hi for lo, hi in zip(values, values[1:]))

    def test_metadata_passthrough(self):
        report = evaluate(
            SimilarityMatrix(np.eye(2)),
            GroundTruth.identity(2),
            Ks=[1],
            skew=0.5,
            normalization="is",
            params={"tau": 0.02},
        )
        assert report.normalization == "is"
        assert report.skew == 0.5
        assert report.params["tau"] == 0.02

    def test_k_validation(self):
        S = SimilarityMatrix(np.eye(3))
        with pytest.raises(DataError):
            evaluate(S, GroundTruth.identity(3), Ks=[])
        for Ks, first in (([4], 4), ([1, 0, 5], 0), ([2, 3, 7, -1], 7)):
            with pytest.raises(KOutOfRange, match=f"^k={first} out of range 1..3$"):
                evaluate(S, GroundTruth.identity(3), Ks=Ks)

    @pytest.mark.parametrize("Ks", [5, None, 2.0])
    def test_ks_that_are_not_a_collection_are_refused(self, Ks):
        with pytest.raises(DataError, match="Ks must be a collection of integers"):
            evaluate(SimilarityMatrix(np.eye(6)), GroundTruth.identity(6), Ks=Ks)

    @pytest.mark.parametrize("Ks", [[1, 1.5], [2.5], [np.float64(2.0)], ["1"]])
    def test_non_integer_k_is_refused(self, Ks):
        S = SimilarityMatrix(np.eye(3))
        with pytest.raises(DataError, match="K must be an integer"):
            evaluate(S, GroundTruth.identity(3), Ks=Ks)
        assert list(evaluate(S, GroundTruth.identity(3), Ks=[np.int64(2)]).r_at) == [2]


TIE_VALUES = st.sampled_from([0.0, -0.0, 0.25, -0.25, 0.5, 1.0])


@st.composite
def scores_and_truth(draw, multi: bool):
    V = draw(
        hnp.arrays(
            draw(st.sampled_from([np.float64, np.float32])),
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=30),
            elements=TIE_VALUES,
        )
    )
    m, n = V.shape
    size = st.integers(1, min(n, 4)) if multi else st.just(1)
    pairs = tuple(
        frozenset(draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)))
        for k in draw(st.lists(size, min_size=m, max_size=m))
    )
    return V, GroundTruth(pairs)


class TestEvaluateMatchesSortedRanks:
    """Counting ranks must give what sorting and reading positions gives."""

    @pytest.mark.parametrize("multi", [False, True])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_report_equals_sorted_best_rank(self, multi, data):
        V, gt = data.draw(scores_and_truth(multi))
        S = SimilarityMatrix(V)
        Ks = sorted({1, max(1, S.cols // 2), S.cols})
        with pytest.MonkeyPatch.context() as mp:
            # blocks of a few rows, so most shapes span several blocks
            mp.setattr(retrieval, "_COUNT_BLOCK_VALUES", 24)
            report = evaluate(S, gt, Ks)
        br = best_rank(row_argsort_desc(S), gt)
        assert report.r_at == {k: float(100.0 * np.mean(br <= k)) for k in Ks}
        assert report.mdr == float(np.sort(br)[(br.size - 1) // 2])
        assert report.mnr == float(br.mean())

    def test_multi_target_rows_at_default_blocks(self):
        rng = np.random.default_rng(56)
        V = np.round(rng.uniform(-1, 1, (700, 500)), 2)
        pairs = tuple(
            frozenset(rng.choice(500, size=rng.integers(1, 6), replace=False).tolist())
            for _ in range(700)
        )
        gt = GroundTruth(pairs)
        S = SimilarityMatrix(V)
        br = best_rank(row_argsort_desc(S), gt)
        report = evaluate(S, gt, [1, 10, 100])
        assert report.r_at == {k: float(100.0 * np.mean(br <= k)) for k in [1, 10, 100]}
        assert report.mnr == float(br.mean())

    def test_count_blocks_on_more_groups_than_cores(self, monkeypatch):
        # the groups write disjoint slices of one rank vector on the pool
        monkeypatch.setattr(core, "_ranking_threads", lambda: 8)
        monkeypatch.setattr(retrieval, "_COUNT_BLOCK_VALUES", 64)
        rng = np.random.default_rng(57)
        V = np.round(rng.uniform(-1, 1, (300, 40)), 1)
        gt = GroundTruth(tuple(frozenset(rng.choice(40, size=rng.integers(1, 4), replace=False).tolist())
                               for _ in range(300)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            counted = retrieval._count_best_ranks(V, gt)
        finally:
            sys.setswitchinterval(interval)
        br = best_rank(row_argsort_desc(SimilarityMatrix(V)), gt)
        assert br.dtype == np.int64 and counted.dtype == np.int64
        np.testing.assert_array_equal(counted, br)

    def test_row_count_mismatch(self):
        with pytest.raises(ShapeMismatch):
            evaluate(SimilarityMatrix(np.eye(3)), GroundTruth.identity(4), Ks=[1])

    def test_five_targets_cost_the_memory_of_one(self):
        # one count per query: no buffer or gather per (query, target) pair
        m, n = 1000, 5000
        S = SimilarityMatrix(np.random.default_rng(58).uniform(-1, 1, (m, n)))
        one = GroundTruth.identity(m)
        five = GroundTruth(tuple(frozenset(range(i, n, m)) for i in range(m)))

        def peak(gt):
            tracemalloc.start()
            try:
                evaluate(S, gt, Ks=[1, 5, 10])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        evaluate(S, five, Ks=[1])  # start the block pool outside the trace
        assert peak(five) <= 2 * peak(one)

    @pytest.mark.parametrize(
        "pairs", [({0}, {1}, {3}), ({0}, {1, 7}, {2}), ({0, 2}, {1}, {2, 3})]
    )
    def test_target_index_out_of_range(self, pairs):
        gt = GroundTruth(tuple(frozenset(p) for p in pairs))
        with pytest.raises(IndexOutOfRange, match="query"):
            evaluate(SimilarityMatrix(np.eye(3)), gt, Ks=[1])

    def test_names_first_offending_query(self):
        gt = GroundTruth((frozenset({0}), frozenset({1, 9}), frozenset({5})))
        with pytest.raises(IndexOutOfRange, match="query 1 references target 9 of 3"):
            evaluate(SimilarityMatrix(np.eye(3)), gt, Ks=[1])


class TestReportValidation:
    def test_rejects_decreasing_recall(self):
        with pytest.raises(DataError):
            RetrievalReport(r_at={1: 50.0, 5: 25.0}, mdr=1.0, mnr=1.0)

    def test_rejects_out_of_range_recall(self):
        with pytest.raises(DataError):
            RetrievalReport(r_at={1: 101.0}, mdr=1.0, mnr=1.0)

    def test_rejects_sub_one_ranks(self):
        with pytest.raises(DataError):
            RetrievalReport(r_at={1: 50.0}, mdr=0.5, mnr=1.0)
