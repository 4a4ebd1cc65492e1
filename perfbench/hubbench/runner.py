"""One benchmark run of one workload: set-up, timed closed loop, checks, metrics.

A run sets the workload up ``SETUP_REPEATS`` times (``setup_s`` is the
median), then runs passes back to back, one client in a closed loop, for
the requested seconds: another pass starts only if it is expected to end
within the budget, and there is always at least one.  Each pass is a
sequence of operations; only the operations' own calls are timed, not the
checks that summarize their outputs in between.  After the loop the
workload computes its reference and every operation of every pass is
checked against it.

With tracing on, untraced and traced passes alternate, starting untraced,
for at least three passes; per-layer metrics come from the traced passes,
and the tracing overhead is the median traced pass minus the median
untraced pass after the first.
"""

import resource
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from . import layers, stats
from .env import memory_refusal, read_meminfo
from .tracing import Tracer, per_run_totals

SETUP_REPEATS = 7


@dataclass
class Op:
    name: str
    seconds: float
    error: str | None = None
    summary: object = None
    batch: int | None = None


class PassContext:
    """Times and records the operations of one pass."""

    def __init__(self, in_process: bool = False, tracer: Tracer | None = None, clock=time.perf_counter):
        self.ops: list[Op] = []
        self.batch: int | None = None
        self.in_process = in_process
        self.tracer = tracer
        self.clock = clock

    def op(self, name: str, fn, *args, summarize=None):
        """Call ``fn(*args)``, timing only the call; summarize the result
        untimed.  An exception, or an input that an earlier failed
        operation left as None, is recorded as this operation's failure."""
        if any(arg is None for arg in args):
            self.ops.append(Op(name, 0.0, error="input from a failed operation", batch=self.batch))
            return None
        start = self.clock()
        try:
            result = fn(*args)
        except Exception as exc:  # recorded as a failed operation; the run goes on
            self.ops.append(Op(name, self.clock() - start, error=f"{type(exc).__name__}: {exc}", batch=self.batch))
            return None
        seconds = self.clock() - start
        op = Op(name, seconds, batch=self.batch)
        self.ops.append(op)
        if summarize is not None:
            try:
                op.summary = summarize(result)
            except Exception as exc:  # an output that cannot be read is a wrong output
                op.error = f"unreadable output: {type(exc).__name__}: {exc}"
        return result

    @property
    def seconds(self) -> float:
        return sum(op.seconds for op in self.ops)


@dataclass
class PassRecord:
    index: int
    traced: bool
    seconds: float
    ops: list[Op] = field(default_factory=list)


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def refused(reason: str) -> tuple[dict, dict]:
    line = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    return line, {"refused": reason, "error_rate": 1.0}


def run_workload(wl, seed: int, seconds: float, trace: bool, clock=time.perf_counter):
    """Returns (result line, details, tracer or None)."""
    reason = memory_refusal(wl.need_bytes(), read_meminfo())
    if reason is not None:
        return (*refused(f"{wl.name}: {reason}"), None)

    tracer = Tracer(clock) if trace else None
    with tracer.install() if tracer else nullcontext():
        state = None
        setup_seconds = []
        for k in range(SETUP_REPEATS):
            if state is not None:
                wl.close(state)
            start = clock()
            with tracer.recording(f"setup{k}") if tracer and wl.trace_setup else nullcontext():
                state = wl.setup(seed)
            wl.warm_up(state)
            setup_seconds.append(clock() - start)

        passes: list[PassRecord] = []
        loop_start = clock()
        try:
            while True:
                traced = trace and len(passes) % 2 == 1
                ctx = PassContext(in_process=trace and wl.in_process_when_traced, tracer=tracer, clock=clock)
                wall_start = clock()
                with tracer.recording(f"pass{len(passes)}") if traced else nullcontext():
                    wl.run_pass(state, ctx)
                wall = clock() - wall_start
                passes.append(PassRecord(len(passes), traced, ctx.seconds, ctx.ops))
                if trace and len(passes) < 3:
                    continue
                if clock() - loop_start + wall > seconds:
                    break
            peak_rss = _peak_rss_mb(children=wl.peak_rss_of_children)
            ref = wl.reference(state)
            problems = [
                (p.index, i, problem)
                for p in passes
                for i, problem in wl.check(p.ops, ref)
            ]
            digests = wl.digests(passes[0].ops)
        finally:
            wl.close(state)

    attempted = sum(len(p.ops) for p in passes)
    failed_ops = {(p.index, i) for p in passes for i, op in enumerate(p.ops) if op.error}
    failed_ops |= {(pi, i) for pi, i, _ in problems}
    failures = [
        {"pass": p.index, "op": p.ops[i].name, "batch": p.ops[i].batch, "error": p.ops[i].error}
        for p in passes
        for i, op in enumerate(p.ops)
        if op.error
    ] + [{"pass": pi, "op": passes[pi].ops[i].name, "batch": passes[pi].ops[i].batch, "error": msg} for pi, i, msg in problems]

    untraced = [p for p in passes if not p.traced]
    run_s = stats.median([p.seconds for p in untraced])
    if wl.batched:
        latencies = []
        for p in untraced:
            per_batch = {}
            for op in p.ops:
                if op.batch is not None:
                    per_batch[op.batch] = per_batch.get(op.batch, 0.0) + op.seconds
            latencies.extend(per_batch.values())
    else:
        latencies = [p.seconds for p in untraced]
    tail = stats.tail(latencies)

    details = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "passes": [{"index": p.index, "traced": p.traced, "seconds": p.seconds, "ops": len(p.ops)} for p in passes],
        "setup_seconds": setup_seconds,
        "rows_per_pass": wl.rows_per_pass(),
        "batch_samples": len(latencies),
        "batch_tail_percentile": tail.percentile,
        "batch_tail_beyond": tail.beyond,
        "error_rate": len(failed_ops) / attempted if attempted else 1.0,
        "failures": failures[:50],
        "rank_digests": digests,
    }

    if trace:
        traced = [p for p in passes if p.traced]
        # The first pass runs on a colder allocator than later ones; leave
        # it out of the comparison (trace runs make at least three passes).
        baseline = stats.median([p.seconds for p in untraced[1:]])
        overhead = stats.median([p.seconds for p in traced]) - baseline
        totals = per_run_totals(tracer.spans)
        pass_totals = [totals.get(f"pass{p.index}", {}) for p in traced]
        setup_totals = [totals.get(f"setup{k}", {}) for k in range(SETUP_REPEATS)] if wl.trace_setup else []
        values = layers.layer_metrics(pass_totals, setup_totals, overhead)
        metrics = {name: _metric(values[name], unit) for name, unit, _ in layers.PER_LAYER}
        details["trace_overhead_s"] = overhead
        details["trace_overhead_share"] = overhead / baseline if baseline > 0 else None
        details["self_time_by_span"] = layers.span_breakdown(pass_totals, setup_totals)
    else:
        metrics = {
            "run_s": _metric(run_s, "s"),
            "queries_per_s": _metric(wl.rows_per_pass() / run_s, "1/s"),
            "batch_ms_p50": _metric(1000.0 * stats.median(latencies), "ms"),
            "batch_ms_tail": _metric(1000.0 * tail.value, "ms"),
            "peak_rss_mb": _metric(peak_rss, "MB"),
            "setup_s": _metric(stats.median(setup_seconds), "s"),
        }

    line = {
        "correct": not failed_ops,
        "attempted": attempted,
        "failed": len(failed_ops),
        "metrics": metrics,
    }
    return line, details, tracer
