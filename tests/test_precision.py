"""A float32-stored SimilarityMatrix gives the bits of its float64 widening.

SIM1 files load as float32 matrices, and every kernel must widen what it
reads before any arithmetic.  Each property runs one public function that
takes a ``SimilarityMatrix`` on a float32-stored S and on
``S.values.astype(np.float64)``, then compares the raw bytes of everything it
returns, or the type of the error it raises.  Inputs mix ties, signed zeros,
float32 subnormals and magnitudes up to float32's largest value.
"""

import contextlib
import dataclasses
import struct
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hubkit import core
from hubkit import (
    DISConfig,
    DualISConfig,
    GroundTruth,
    HubkitError,
    Marginals,
    SimilarityMatrix,
    SinkhornConfig,
    apply_hubness,
    dbsn,
    dbsn_hubness,
    dis_subset,
    dual_inverted_softmax,
    dual_is_compensations,
    dynamic_inverted_softmax,
    estimate_target_hubness,
    evaluate,
    hn,
    hn_normalize,
    inverted_softmax,
    is_hubness,
    l2n,
    otn,
    row_argsort_desc,
    row_topk_desc,
    sinkhorn,
    sn_normalize,
    write_similarity,
)
from hubkit.variants import _sparsity

_F32 = np.finfo(np.float32)
_SPECIAL = [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, float(_F32.smallest_subnormal), -float(_F32.smallest_subnormal),
            float(np.float32(1e-40)), float(_F32.tiny), 1e30, -1e30, float(_F32.max), -float(_F32.max)]
_ELEMENTS = st.sampled_from(_SPECIAL) | st.floats(-1, 1, width=32)
#: Scale of a drawn matrix: ties and specials mostly survive it in float32.
_SCALES = st.sampled_from([1.0, 1e-3, 30.0, 1e6, 1e30])


@st.composite
def _matrix(draw, rows=None, cols=None, max_side=6):
    rows = rows or draw(st.integers(1, max_side))
    cols = cols or draw(st.integers(1, max_side))
    V = draw(hnp.arrays(np.float32, (rows, cols), elements=_ELEMENTS))
    with np.errstate(over="ignore"):
        V = V * np.float32(draw(_SCALES))
    return np.where(np.isfinite(V), V, np.float32(1.0))


def _pair(V32: np.ndarray) -> tuple[SimilarityMatrix, SimilarityMatrix]:
    S32 = SimilarityMatrix(V32)
    assert S32.values.dtype == np.float32
    return S32, SimilarityMatrix(S32.values.astype(np.float64))


def _bits(x):
    """Everything ``x`` holds, with floats and arrays as their raw bytes."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, float):
        return struct.pack("<d", x)
    if isinstance(x, (tuple, list)):
        return tuple(_bits(v) for v in x)
    if isinstance(x, dict):
        return tuple(sorted((k, _bits(v)) for k, v in x.items()))
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,) + tuple(_bits(getattr(x, f.name)) for f in dataclasses.fields(x))
    return x


def _outcome(fn, *args, **kwargs):
    try:
        with np.errstate(all="ignore"):
            return _bits(fn(*args, **kwargs))
    except HubkitError as exc:
        return "raises", type(exc).__name__


def _same(fn, mats: list, *rest, **kwargs):
    """``fn`` over the float32 matrices of ``mats`` equals ``fn`` over their widenings."""
    pairs = [_pair(V) for V in mats]
    got = _outcome(fn, *(p[0] for p in pairs), *rest, **kwargs)
    want = _outcome(fn, *(p[1] for p in pairs), *rest, **kwargs)
    assert got == want


_TAUS = st.sampled_from([1.0, 0.1, 0.02, 0.01, 0.001])


@contextlib.contextmanager
def _one_row_blocks(threads):
    """The normalizers' passes in one-row blocks, so column slabs, on
    ``threads`` block groups.  Yields the number of blocks (or slabs) each
    pass ran."""
    run_blocks, runs = core._run_blocks, []

    def spy(work, starts, groups):
        runs.append(len(starts))
        run_blocks(work, starts, groups)

    with mock.patch.object(core, "_PASS_BLOCK_VALUES", 1), mock.patch.object(core, "_PASS_BLOCK_ROWS", 1), \
            mock.patch.object(core, "_ranking_threads", lambda: threads), mock.patch.object(core, "_run_blocks", spy):
        yield runs


class TestRanking:
    @given(V=_matrix(max_side=12), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_sorts_and_evaluation(self, V, data):
        m, n = V.shape
        k = data.draw(st.integers(1, n))
        gt = GroundTruth(tuple(frozenset(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)))
                               for _ in range(m)))
        _same(row_argsort_desc, [V])
        _same(row_topk_desc, [V], k)
        _same(evaluate, [V], gt, [1, k])


class TestScaling:
    @given(V=_matrix(), tau=_TAUS, data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_inverted_softmax_family(self, V, tau, data):
        n = V.shape[1]
        Bq = data.draw(_matrix(cols=n))
        Bt = data.draw(_matrix(cols=n))
        dual = DualISConfig(tau, data.draw(_TAUS))
        dis = DISConfig(data.draw(st.integers(1, n)))
        _same(inverted_softmax, [V], tau)
        _same(is_hubness, [Bq], tau)
        _same(dis_subset, [Bq], dis)
        _same(dynamic_inverted_softmax, [V, Bq], dis, tau)
        _same(dual_inverted_softmax, [V, Bq, Bt], dual)
        _same(dual_is_compensations, [Bq, Bt], dual)

    @given(rows=st.integers(2, 12), cols=st.integers(4, 12), tau=_TAUS, threads=st.integers(2, 6), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_inverted_softmax_in_column_slabs(self, rows, cols, tau, threads, data):
        # one-row blocks, so 2 to 6 slabs whatever the size, each divided in float64
        V = data.draw(_matrix(rows=rows, cols=cols))
        with _one_row_blocks(threads) as runs:
            _same(inverted_softmax, [V], tau)
        assert runs == [min(threads, cols // 2)] * 2

    @given(V=_matrix(), B=_matrix(), tau=_TAUS, threads=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_apply_hubness(self, V, B, tau, threads):
        h = is_hubness(SimilarityMatrix(B.astype(np.float64)), tau)
        if h.values.size == V.shape[1]:
            _same(apply_hubness, [V], h)
        _same(lambda S: apply_hubness(S, is_hubness(S, tau)), [V])
        # in one-row blocks, still the float64 widening plus h
        h = is_hubness(SimilarityMatrix(V.astype(np.float64)), tau)
        with _one_row_blocks(threads) as runs:
            out = apply_hubness(SimilarityMatrix(V), h).values
        assert runs == [V.shape[0]]
        assert out.tobytes() == (V.astype(np.float64) + h.values).tobytes()


class TestSinkhorn:
    @given(V=_matrix(), tau=_TAUS, iters=st.integers(1, 12), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_balancing(self, V, tau, iters, data):
        m, n = V.shape
        cfg = SinkhornConfig(tau=tau, max_iters=iters)
        Bt = data.draw(_matrix(cols=n))
        Bb = data.draw(_matrix(rows=Bt.shape[0]))
        _same(sinkhorn, [V], Marginals.uniform(m, n), cfg)
        _same(sinkhorn, [V], Marginals.column_only(n), cfg)
        _same(sn_normalize, [V], cfg)
        _same(estimate_target_hubness, [Bt], cfg)
        _same(dbsn_hubness, [Bt, Bb], cfg)
        _same(dbsn, [V, Bt, Bb], cfg)


class TestVariants:
    @given(V=_matrix(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_plans_and_scores(self, V, data):
        m, n = V.shape
        square = data.draw(_matrix(rows=m, cols=m))
        _same(otn, [V], Marginals.uniform(m, n))
        _same(otn, [square], Marginals.uniform(m, m))
        _same(l2n, [V], Marginals.uniform(m, n), coeff=data.draw(st.sampled_from([1.0, 100.0])), max_sweeps=60)
        _same(hn, [V])
        _same(hn_normalize, [V])
        _same(hn_normalize, [V], literal=True)

    @given(offsets=hnp.arrays(np.int8, (2, 3), elements=st.integers(-3, 3)),
           top=st.sampled_from([3.0, 2.9, 1.7, 0.9]))
    @example(offsets=np.array([[0, -1, -3], [-1, 0, -2]], dtype=np.int8), top=3.0)
    @settings(max_examples=100, deadline=None)
    def test_otn_near_tie_vertices(self, offsets, top):
        """Scores a few float32 ulps apart: rounding the LP cost in float32
        can tie or swap the objectives of two vertices."""
        V = np.float32(0.7) + offsets.astype(np.float32) * np.float32(_F32.eps / 2)
        V[0, 0] = top
        _same(otn, [V], Marginals.uniform(2, 3))

    @given(V=_matrix(max_side=12), eps_rel=st.sampled_from([0.0, 1e-9, 1e-3, 0.3, 1.0, 1.5]))
    @settings(max_examples=60, deadline=None)
    def test_sparsity(self, V, eps_rel):
        V = np.abs(V)
        if eps_rel <= 1.0:
            # the threshold as float32 arithmetic rounds it: an entry that
            # lies below the threshold whenever that rounding goes down
            V = np.hstack([V, np.full((V.shape[0], 1), np.float32(eps_rel) * V.max())])
        assert _sparsity(V, eps_rel) == _sparsity(V.astype(np.float64), eps_rel)


class TestFiles:
    @given(V=_matrix(max_side=12))
    @settings(max_examples=40, deadline=None)
    def test_written_bytes(self, V):
        S32, S64 = _pair(V)
        with tempfile.TemporaryDirectory() as tmp:
            write_similarity(S32, Path(tmp) / "a.sim")
            write_similarity(S64, Path(tmp) / "b.sim")
            assert (Path(tmp) / "a.sim").read_bytes() == (Path(tmp) / "b.sim").read_bytes()
