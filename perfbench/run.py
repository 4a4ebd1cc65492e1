"""hubkit's benchmark.

    python3 perfbench/run.py --workload transductive --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --out results.json

Runs one workload (or, with ``all``, each workload in its own process) on
the hubkit sources in ``src/`` next to this directory, prints every metric
by name with its unit, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones from a
traced run and writes its spans to ``.perfbench_out/``.  See README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from hubbench.env import cap_threads  # noqa: E402  (imports nothing numeric)

THREADS = cap_threads()  # before numpy loads, here and in every child

WORKLOAD_NAMES = ("transductive", "bank-stream", "cli-files", "plans")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full results document (JSON) here")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def _import_hubkit():
    """Import hubkit from ROOT/src and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "hubkit", "__init__.py")):
        sys.exit(f"perfbench: no hubkit sources at {src}")
    sys.path.insert(0, src)
    import hubkit

    if os.path.dirname(os.path.dirname(os.path.abspath(hubkit.__file__))) != src:
        sys.exit(f"perfbench: hubkit imported from {hubkit.__file__}, not from {src}")


def _print_metrics(line: dict, details: dict) -> None:
    name = details.get("workload", "?")
    print(f"# {name}: {line['attempted']} operations, {line['failed']} failed, error_rate {details['error_rate']:.6g}")
    if "refused" in details:
        print(f"# refused: {details['refused']}")
    for metric, m in line["metrics"].items():
        note = ""
        if metric == "batch_ms_tail":
            note = f"  (p{details['batch_tail_percentile']:.4g} of {details['batch_samples']} samples, {details['batch_tail_beyond']} beyond)"
        print(f"{name} {metric} {m['value']:.6g} {m['unit']}{note}")
    if details.get("trace"):
        share = details.get("trace_overhead_share")
        share_text = "n/a" if share is None else f"{100 * share:.3g}%"
        print(f"# {name}: tracing overhead {details['trace_overhead_s']:.4g} s per pass ({share_text})")
    for failure in details.get("failures", [])[:10]:
        print(f"# FAILED {failure}")


def _run_one(args) -> int:
    from hubbench import env, runner, workloads

    wl = workloads.make(args.workload, ROOT)
    line, details, tracer = runner.run_workload(wl, args.seed, args.seconds, bool(args.trace))
    details.setdefault("workload", wl.name)
    details["env"] = env.record(ROOT, args.seed, THREADS)
    details["why"] = wl.why
    if tracer is not None:
        spans = os.path.join(ROOT, ".perfbench_out", f"spans-{wl.name}-seed{args.seed}.jsonl")
        tracer.write(spans)
        details["spans_file"] = os.path.relpath(spans, ROOT)
    if args.out:
        _write_json(args.out, {"env": details["env"], "result": line, "details": details})
    _print_metrics(line, details)
    print(f"# env {json.dumps(details['env'], sort_keys=True)}")
    print(json.dumps(line))
    return 0 if "refused" not in details else 3


def _run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    import tempfile

    docs = {}
    code = 0
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    for name in WORKLOAD_NAMES:
        fd, path = tempfile.mkstemp(suffix=".json", dir=out_dir)
        os.close(fd)
        try:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", path]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or os.path.getsize(path) == 0:
                code = code or proc.returncode or 1
                continue
            with open(path, encoding="utf-8") as fh:
                docs[name] = json.load(fh)
        finally:
            os.unlink(path)
    summary = {
        "correct": code == 0 and all(d["result"]["correct"] for d in docs.values()),
        "attempted": sum(d["result"]["attempted"] for d in docs.values()),
        "failed": sum(d["result"]["failed"] for d in docs.values()),
        "workloads": {name: d["result"] for name, d in docs.items()},
    }
    if args.out:
        env = next(iter(docs.values()))["env"] if docs else {}
        _write_json(args.out, {"env": env, "seconds": args.seconds, "trace": bool(args.trace), "workloads": docs})
    print(json.dumps(summary))
    return code


def _write_json(path, doc) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True, default=str)
        fh.write("\n")


def main(argv=None) -> int:
    args = _parse(argv)
    _import_hubkit()
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
