import importlib

import numpy as np
import pytest

from hubbench.tracing import Span, Tracer, per_run_totals, self_times


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        Span(0, "parent", 0.0, 10.0, None, "r"),
        Span(1, "a", 1.0, 4.0, 0, "r"),
        Span(2, "b", 3.0, 6.0, 0, "r"),  # overlaps a: covered once
        Span(3, "grandchild", 2.0, 3.0, 1, "r"),
        Span(4, "c", 9.0, 12.0, 0, "r"),  # runs past the parent: clipped
    ]
    got = self_times(spans)
    assert got[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert got[1] == pytest.approx(3.0 - 1.0)
    assert got[2] == pytest.approx(3.0)
    assert got[3] == pytest.approx(1.0)
    assert got[4] == pytest.approx(3.0)


def test_nested_spans_from_the_recorder():
    ticks = iter([0.0, 1.0, 2.0, 5.0, 6.0, 7.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.recording("pass0"):
        with tracer.span("outer"):  # 0 .. 10
            with tracer.span("inner"):  # 1 .. 6
                with tracer.span("leaf"):  # 2 .. 5
                    pass
            with tracer.span("inner"):  # 7 .. 9
                pass
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0]
    assert all(s.run_id == "pass0" for s in tracer.spans)
    totals = per_run_totals(tracer.spans)["pass0"]
    assert totals["outer"] == pytest.approx(10.0 - 5.0 - 2.0)
    assert totals["inner"] == pytest.approx((5.0 - 3.0) + 2.0)
    assert totals["leaf"] == pytest.approx(3.0)


def test_nothing_is_recorded_outside_recording():
    tracer = Tracer()
    with tracer.span("x"):
        pass
    assert tracer.spans == []


def test_install_wraps_calls_between_modules_and_restores_them():
    core = importlib.import_module("hubkit.core")
    sinkhorn = importlib.import_module("hubkit.sinkhorn")
    scaling = importlib.import_module("hubkit.scaling")
    original = sinkhorn.sinkhorn
    rng = np.random.default_rng(0)
    S = core.SimilarityMatrix(rng.uniform(-1, 1, (6, 5)))
    tracer = Tracer()
    with tracer.install():
        assert sinkhorn.sinkhorn is not original
        with tracer.recording("pass0"):
            sinkhorn.sn_normalize(S, sinkhorn.SinkhornConfig(max_iters=3))
            scaling.apply_hubness(S, scaling.HubnessVector(np.zeros(5), temperature=1.0))
    assert sinkhorn.sinkhorn is original
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("sinkhorn.sn_normalize", None), ("sinkhorn.sinkhorn", 0), ("scaling.apply_hubness", None)]
    assert tracer.spans[1].counts == {"sweeps": 3}
    totals = per_run_totals(tracer.spans)["pass0"]
    assert totals["sinkhorn.sinkhorn#sweeps"] == 3


def test_write_emits_one_line_per_span(tmp_path):
    ticks = iter([0.0, 1.0, 3.0, 4.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.recording("r1"):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
    path = tmp_path / "spans.jsonl"
    tracer.write(path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert '"self_s": 2.0' in lines[0]
