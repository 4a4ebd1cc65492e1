"""Spans around calls into hubkit, recorded from outside the library.

``Tracer.install`` replaces each instrumented public function, in every
hubkit module that holds a reference to it, by a wrapper that records a span
(name, start, end, parent span, run id) and optional counts derived from the
call.  Calls between hubkit modules therefore nest: ``sn_normalize`` calling
``sinkhorn`` yields a child span.  Spans stay in memory until ``write``.

A span's self time is its duration minus the part of its interval that its
direct children cover.
"""

import functools
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    counts: dict = field(default_factory=dict)


def _sim_bytes(matrix) -> int:
    rows, cols = matrix.values.shape
    return 12 + 4 * rows * cols


def _emb_bytes(emb) -> int:
    rows, cols = emb.data.shape
    return 12 + 4 * rows * cols


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# (module, function, counts(args, result) -> dict).  The span is named
# "<module>.<function>".  Byte counts are computed from array shapes and
# file sizes, not measured at the device.
INSTRUMENTED = [
    ("core", "cosine_similarity_matrix", None),
    ("core", "row_argsort_desc", None),
    ("scaling", "inverted_softmax", None),
    ("scaling", "is_hubness", None),
    ("scaling", "apply_hubness", None),
    ("sinkhorn", "sinkhorn", lambda args, res: {"sweeps": res.iterations_run}),
    ("sinkhorn", "sn_normalize", None),
    ("sinkhorn", "estimate_target_hubness", None),
    ("sinkhorn", "dbsn", None),
    ("sinkhorn", "plan_entropy", None),
    ("sinkhorn", "marginal_violation", None),
    ("retrieval", "evaluate", None),
    ("retrieval", "best_rank", None),
    ("diagnostics", "k_occurrence", None),
    ("diagnostics", "skewness", None),
    ("diagnostics", "emd", None),
    ("variants", "otn", lambda args, res: {"sweeps": res.iterations_run}),
    ("variants", "l2n", lambda args, res: {"sweeps": res.iterations_run}),
    ("variants", "hn", None),
    ("variants", "sparsity", None),
    ("synth", "generate_paired", None),
    ("synth", "generate_banks", None),
    ("io", "read_similarity", lambda args, res: {"bytes_read": _sim_bytes(res)}),
    ("io", "write_similarity", lambda args, res: {"bytes_written": _sim_bytes(args[0])}),
    ("io", "read_embeddings", lambda args, res: {"bytes_read": _emb_bytes(res)}),
    ("io", "write_embeddings", lambda args, res: {"bytes_written": _emb_bytes(args[0])}),
    ("io", "read_ground_truth", lambda args, res: {"bytes_read": _file_size(args[0])}),
    ("io", "write_ground_truth", lambda args, res: {"bytes_written": _file_size(args[1])}),
    ("io", "write_report", lambda args, res: {"bytes_written": _file_size(args[1])}),
]


class Tracer:
    """In-memory span recorder.  Records only while ``enabled`` is true."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.run_id = "setup"
        self.enabled = False
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, counts: dict | None = None):
        if not self.enabled:
            yield None
            return
        span = Span(
            id=len(self.spans),
            name=name,
            start=self.clock(),
            end=float("nan"),
            parent=self._stack[-1] if self._stack else None,
            run_id=self.run_id,
            counts=dict(counts or {}),
        )
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = self.clock()

    @contextmanager
    def recording(self, run_id: str):
        """Record spans under ``run_id`` for the duration of the block."""
        previous = (self.enabled, self.run_id)
        self.enabled, self.run_id = True, run_id
        try:
            yield
        finally:
            self.enabled, self.run_id = previous

    def wrap(self, name: str, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                if counts is not None:
                    span.counts.update(counts(args, result))
                return result

        return traced

    @contextmanager
    def install(self, package: str = "hubkit", instrumented=INSTRUMENTED):
        """Swap every instrumented function for its wrapper in all loaded
        ``package`` modules; restore the originals on exit."""
        modules = [m for n, m in list(sys.modules.items()) if m is not None and (n == package or n.startswith(package + "."))]
        replaced = []
        for module_name, fn_name, counts in instrumented:
            home = sys.modules[f"{package}.{module_name}"]
            original = getattr(home, fn_name)
            wrapper = self.wrap(f"{module_name}.{fn_name}", original, counts)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        replaced.append((module, attr, original))
        try:
            yield self
        finally:
            for module, attr, original in reversed(replaced):
                setattr(module, attr, original)

    def write(self, path) -> None:
        """Write every span as one JSON line, with its self time."""
        selfs = self_times(self.spans)
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                doc = {
                    "id": s.id,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "run_id": s.run_id,
                    "self_s": selfs[s.id],
                    "counts": s.counts,
                }
                fh.write(json.dumps(doc) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration minus the union of the direct children's intervals,
    each clipped to the parent's interval."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        intervals = sorted(
            (max(c.start, s.start), min(c.end, s.end)) for c in children[s.id]
        )
        covered = 0.0
        cur_start = cur_end = None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.id] = (s.end - s.start) - covered
    return out


def per_run_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """For each run id: self time summed by span name (key ``<name>``) and
    counts summed by ``<name>#<count>``."""
    selfs = self_times(spans)
    totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        totals[s.run_id][s.name] += selfs[s.id]
        for key, value in s.counts.items():
            totals[s.run_id][f"{s.name}#{key}"] += value
    return {run: dict(values) for run, values in totals.items()}
