"""Print the sha256 of every file the README's CLI pipeline writes.

    python tools/cli_digests.py --src src

runs ``python -m hubkit.cli`` from the package under ``--src`` in a fresh
temporary directory: ``synth --seed 5 --pairs 600`` with banks, four ``sim``
matrices (queries, query bank and target bank against the targets, and the
query bank against the target bank), ``normalize`` with every method and
every bank form (``sn`` and ``dbsn`` at three temperatures, ``hn`` also
with ``--hn-literal``), ``evaluate --skew-k 10`` and ``diagnose`` on each
output, then ``sweep-tau`` and ``banksweep``, and ``emd`` of the query
bank against the targets with each ``--cost``, its printed value saved as
``emd_<cost>.txt``.  It prints one ``<sha256>  <file>`` line per output,
sorted by name, so two source trees can be compared with ``diff``.  A
failing command stops the run.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

#: normalize runs: output stem -> arguments after --input raw.sim.
_BANK = ["--bank-targets-sim", "bq_t.sim"]
_NORMALIZE = {
    "none": ["--method", "none"],
    "is": ["--method", "is"],
    "is_bank": ["--method", "is", *_BANK],
    "dis": ["--method", "dis", *_BANK],
    "dualis": ["--method", "dualis", *_BANK, "--tbank-targets-sim", "bt_t.sim"],
    "otn": ["--method", "otn"],
    "l2n": ["--method", "l2n"],
    "hn": ["--method", "hn"],
    "hn_literal": ["--method", "hn", "--hn-literal"],
}
for _tau in ("0.01", "0.005", "0.002"):
    _NORMALIZE[f"sn_{_tau}"] = ["--method", "sn", "--tau", _tau]
    _NORMALIZE[f"sn_bank_{_tau}"] = ["--method", "sn", "--tau", _tau, *_BANK]
    _NORMALIZE[f"dbsn_{_tau}"] = ["--method", "dbsn", "--tau", _tau, *_BANK, "--bank-bank-sim", "bq_bt.sim"]

#: commands whose standard output is their result: file it is saved to -> arguments.
_PRINTED = {
    f"emd_{cost}.txt": ["emd", "--x", "bq.emb", "--y", "t.emb", "--cost", cost]
    for cost in ("euclidean", "one_minus_cosine")
}


def _pipeline() -> list[list[str]]:
    """The CLI argument lists, in the order they run."""
    runs = [
        ["synth", "--seed", "5", "--pairs", "600", "--out-queries", "q.emb", "--out-targets", "t.emb",
         "--out-gt", "gt.txt", "--out-bank-queries", "bq.emb", "--out-bank-targets", "bt.emb"],
        ["sim", "--queries", "q.emb", "--targets", "t.emb", "--out", "raw.sim"],
        ["sim", "--queries", "bq.emb", "--targets", "t.emb", "--out", "bq_t.sim"],
        ["sim", "--queries", "bq.emb", "--targets", "bt.emb", "--out", "bq_bt.sim"],
        ["sim", "--queries", "bt.emb", "--targets", "t.emb", "--out", "bt_t.sim"],
    ]
    for stem, args in _NORMALIZE.items():
        runs.append(["normalize", "--input", "raw.sim", *args, "--out", f"{stem}.sim"])
    for stem in ["raw", *_NORMALIZE]:
        runs.append(["evaluate", "--sim", f"{stem}.sim", "--gt", "gt.txt", "--skew-k", "10",
                     "--out", f"{stem}.json"])
        runs.append(["diagnose", "--sim", f"{stem}.sim", "--k", "10", "--out", f"{stem}.tsv"])
    runs.append(["sweep-tau", "--sim", "raw.sim", "--gt", "gt.txt", "--out", "sweep.tsv"])
    runs.append(["banksweep", "--queries", "q.emb", "--targets", "t.emb", "--gt", "gt.txt",
                 "--bank-queries", "bq.emb", "--bank-targets", "bt.emb", "--out", "banks.tsv"])
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the hubkit package")
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=str(Path(args.src).resolve()))
    with tempfile.TemporaryDirectory() as work:
        for run in _pipeline():
            subprocess.run([sys.executable, "-m", "hubkit.cli", *run], cwd=work, env=env, check=True)
        for name, run in _PRINTED.items():
            with open(Path(work) / name, "wb") as out:
                subprocess.run([sys.executable, "-m", "hubkit.cli", *run], cwd=work, env=env, check=True, stdout=out)
        for path in sorted(Path(work).iterdir()):
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
