"""Run perfbench alternately from two source trees and compare them.

    python tools/bench_pairs.py DIR_PARENT DIR_CHANGE --workload plans --pairs 10 --seed 0

runs ``python3 DIR/perfbench/run.py --workload W --seed S --seconds T --out
FILE`` from each tree in turn, ``--pairs`` times each: odd pairs run the
parent first, even pairs the change first.  Each tree runs its own perfbench
on its own ``src/``; the tool writes nothing in either tree (perfbench itself
writes its scratch files to ``.perfbench_out/``).

For every workload and end-to-end metric it prints each side's median and
quartiles (linear interpolation, as ``numpy.percentile``), how many pairs
the change won, the change's median over the parent's, whether that is
inside the metric's bound, and whether the gap between the medians, in the
change's favour, exceeds the parent's interquartile range.  Directions and
bounds come from the parent tree's ``BENCHMARK.json``.  It also says whether
both sides' rank digests agree in every pair.  A run that exits nonzero or
reports incorrect results stops the tool.  ``--out`` writes every run's
metrics and the summary as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

SIDES = ("parent", "change")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="source tree of the parent commit (holds perfbench/ and src/)")
    parser.add_argument("change", help="source tree of the change")
    parser.add_argument("--workload", required=True, help="a perfbench workload, or all")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", help="also write the runs and the summary (JSON) here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    for tree in (args.parent, args.change):
        if not os.path.isfile(os.path.join(tree, "perfbench", "run.py")):
            parser.error(f"no perfbench/run.py under {tree}")
    return args


def _run(tree: str, args, out: str) -> dict:
    """One perfbench run from ``tree``: {workload: {"metrics": {name: value}, "rank_digests": ...}}."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--out", out]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.DEVNULL, timeout=3600)
    if proc.returncode != 0:
        sys.exit(f"bench_pairs: {' '.join(cmd)} exited {proc.returncode}")
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    docs = doc["workloads"] if "workloads" in doc else {doc["details"]["workload"]: doc}
    runs = {}
    for name, d in docs.items():
        result = d["result"]
        if not result["correct"] or result["failed"]:
            sys.exit(f"bench_pairs: {tree}: {name} ran incorrectly ({result['failed']} failed)")
        runs[name] = {
            "metrics": {metric: m["value"] for metric, m in result["metrics"].items()},
            "rank_digests": d["details"].get("rank_digests"),
        }
    return runs


def _quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _summary(pairs: list[dict], rules: dict) -> dict:
    """Per workload and metric: both sides' quartiles, the change's wins and its gap."""
    out = {}
    for name, first in pairs[0]["parent"].items():
        out[name] = {}
        for metric in first["metrics"]:
            better, bound = rules.get(metric, ("lower", None))
            sign = 1.0 if better == "lower" else -1.0
            values = {side: [p[side][name]["metrics"][metric] for p in pairs] for side in SIDES}
            parent, change = _quartiles(values["parent"]), _quartiles(values["change"])
            wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
            ratio = change["median"] / parent["median"] if parent["median"] else float("nan")
            worse_by = sign * (ratio - 1.0)
            out[name][metric] = {
                "better": better,
                "bound": bound,
                "parent": parent,
                "change": change,
                "change_over_parent": ratio,
                "change_wins": f"{wins}/{len(pairs)}",
                "within_bound": bound is None or worse_by <= bound,
                "gap_exceeds_parent_iqr": sign * (parent["median"] - change["median"]) > parent["q3"] - parent["q1"],
            }
        out[name]["rank_digests_equal"] = all(p["parent"][name]["rank_digests"] == p["change"][name]["rank_digests"]
                                              for p in pairs)
    return out


def _rules(tree: str) -> dict:
    """metric -> (better, bound) from the tree's BENCHMARK.json, if it has one."""
    try:
        with open(os.path.join(tree, "BENCHMARK.json"), encoding="utf-8") as fh:
            return {m["name"]: (m["better"], m.get("bound")) for m in json.load(fh).get("end_to_end", [])}
    except (OSError, ValueError, KeyError):
        return {"queries_per_s": ("higher", None)}


def _print(summary: dict) -> None:
    def q(s):
        return f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}]"

    for name, metrics in summary.items():
        print(f"# {name}: rank digests equal in every pair: {'yes' if metrics['rank_digests_equal'] else 'NO'}")
        for metric, s in metrics.items():
            if metric == "rank_digests_equal":
                continue
            print(f"{name} {metric} ({s['better']} is better): parent {q(s['parent'])}  change {q(s['change'])}  "
                  f"change/parent {s['change_over_parent']:.4f}  wins {s['change_wins']}  "
                  f"within bound {'yes' if s['within_bound'] else 'NO'}  "
                  f"gap > parent IQR {'yes' if s['gap_exceeds_parent_iqr'] else 'no'}")


def main(argv=None) -> int:
    args = _parse(argv)
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    pairs = []
    with tempfile.TemporaryDirectory() as tmp:
        for k in range(1, args.pairs + 1):
            order = SIDES if k % 2 else SIDES[::-1]
            pair = {"pair": k, "first": order[0]}
            for side in order:
                pair[side] = _run(trees[side], args, os.path.join(tmp, f"{side}-{k}.json"))
            pairs.append(pair)
            print(f"# pair {k}/{args.pairs} done ({order[0]} first)", file=sys.stderr)
    summary = _summary(pairs, _rules(trees["parent"]))
    _print(summary)
    if args.out:
        doc = {"command": vars(args), "order": "odd pairs run the parent first, even pairs the change first",
               "summary": summary, "runs": pairs}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
