"""BENCHMARK.json and the code that fills it agree; the benchmark refuses to
run without the hubkit sources."""

import json
import os
import shutil
import subprocess
import sys

from hubbench import layers, workloads

from conftest import BENCH, ROOT

END_TO_END = ["run_s", "queries_per_s", "batch_ms_p50", "batch_ms_tail", "peak_rss_mb", "setup_s"]


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_and_workload_names_match_the_code():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, u) for n, u, _ in layers.PER_LAYER]
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"]) <= 0.25


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "results", "tests"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plans", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
