"""The four workloads.  Each is one client in a closed loop; each is built so
that one layer does most of its work and others little.

A workload makes its inputs from the seed with ``hubkit.synth`` (``setup``),
runs passes of timed operations (``run_pass``), computes a reference that
does not call hubkit (``reference``) and checks every operation against it
(``check``).  ``tiny()`` gives the same workload at toy size; its pass is
the warm-up before timing, and the tests use it.

Operation names: a matrix-producing operation is checked on its own; an
operation named ``<kind>@<source>`` (evaluate, argsort, k_occurrence,
skewness, diagnose) consumed the output of the operation ``<source>`` in
the same pass and batch, and is checked against the oracle's reading of
that output.  So a wrong matrix fails the operation that produced it, and a
wrong ranking of a right matrix fails the ranking operation.
"""

import importlib
import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np

from . import oracle
from .runner import PassContext

MB = 2**20
WARM_UP_SEED = 0


def _mod(name: str):
    """A hubkit module.  Attributes are looked up at call time, so functions
    the tracer wrapped are the ones called."""
    return importlib.import_module(f"hubkit.{name}")


def _report(report) -> dict:
    return {"r_at": dict(report.r_at), "mdr": report.mdr, "mnr": report.mnr}


def _matrix_summary(gt_idx, k, with_ranks=True):
    """Untimed reading of a similarity output: oracle ranks and top-k counts
    (for the operations that consume it) and a fixed sample of values."""

    def summarize(M):
        V = M.values if hasattr(M, "values") else M
        pos = oracle.sample_positions(V.shape)
        out = {"shape": V.shape, "sample": V[pos]}
        if with_ranks:
            out["ranks"] = oracle.best_ranks(V, gt_idx)
            out["counts"] = oracle.topk_counts(V, k)
        return out

    return summarize


def _expect(R, gt_idx, sample, tol, relative=False) -> dict:
    return {
        "shape": R.shape,
        "interval": oracle.rank_intervals(R, gt_idx, tol) if gt_idx is not None else None,
        "sample": sample,
        "relative": relative,
    }


def _check_matrix(summary, expected) -> str | None:
    if tuple(summary["shape"]) != tuple(expected["shape"]):
        return f"shape {summary['shape']} != {expected['shape']}"
    got, want = summary["sample"], expected["sample"]
    err = np.abs(got - want)
    if expected["relative"]:
        err = err / np.maximum(np.abs(want), np.finfo(float).tiny)
    if not np.all(err <= oracle.VALUE_TOL):
        return f"sampled values differ from the reference by up to {float(np.nanmax(err)):.3g}"
    if expected["interval"] is not None:
        outside = oracle.ranks_outside(summary["ranks"], expected["interval"])
        if outside:
            return f"{outside} queries ranked differently from the reference"
    return None


class Workload:
    name = ""
    why = ""
    batched = False  # batch latency is per batch (else per pass)
    trace_setup = True  # record synth spans during set-up
    in_process_when_traced = False
    peak_rss_of_children = False
    ks = (1, 5, 10)
    k_occ = 10

    def tiny(self) -> "Workload":
        raise NotImplementedError

    def need_bytes(self) -> int:
        raise NotImplementedError

    def rows_per_pass(self) -> int:
        raise NotImplementedError

    def warm_up(self, state) -> None:
        """One untimed pass of the toy-size workload on fixed inputs: loads
        lazy imports and starts the BLAS threads before timing.  The inputs
        do not follow the workload seed, so neither does its cost (OTN's
        annealing, for one, takes a data-dependent number of sweeps)."""
        tiny = self.tiny()
        small = tiny.setup(WARM_UP_SEED)
        try:
            tiny.run_pass(small, PassContext())
        finally:
            tiny.close(small)

    def close(self, state) -> None:
        pass

    def _rank_ops(self, ctx, source, M, gt):
        """evaluate + k-occurrence (+ its skewness) of the output of ``source``."""
        core, retrieval, diagnostics = _mod("core"), _mod("retrieval"), _mod("diagnostics")
        ctx.op(f"evaluate@{source}", retrieval.evaluate, M, gt, list(self.ks), summarize=_report)
        R = ctx.op(f"argsort@{source}", core.row_argsort_desc, M)
        occ = ctx.op(f"k_occurrence@{source}", diagnostics.k_occurrence, R, self.k_occ, summarize=lambda o: np.array(o.counts))
        ctx.op(f"skewness@{source}", diagnostics.skewness, occ, summarize=float)

    def _check_consumer(self, op, source) -> str | None:
        kind = op.name.partition("@")[0]
        if source is None or source.summary is None:
            return "its input was not produced"
        s = source.summary
        if kind == "evaluate":
            want = oracle.report_from_ranks(s["ranks"], self.ks)
            got = {key: op.summary[key] for key in ("r_at", "mdr", "mnr")}
            return None if got == want else f"report {got} != oracle {want}"
        if kind == "k_occurrence":
            return None if np.array_equal(op.summary, s["counts"]) else "k-occurrence counts differ from the oracle"
        if kind == "skewness":
            want = oracle.skewness(s["counts"])
            return None if oracle.close(op.summary, want) else f"skewness {op.summary} != {want}"
        return None

    def check(self, ops, ref) -> list[tuple[int, str]]:
        """(operation index, problem) for every wrong output of one pass."""
        by_key = {(op.batch, op.name): op for op in ops}
        problems = []
        for i, op in enumerate(ops):
            if op.error:
                continue
            if "@" in op.name:
                msg = self._check_consumer(op, by_key.get((op.batch, op.name.partition("@")[2])))
            else:
                msg = self.check_output(op, ref)
            if msg:
                problems.append((i, msg))
        return problems

    def check_output(self, op, ref) -> str | None:
        raise NotImplementedError

    def digests(self, ops) -> dict[str, str]:
        """Digest of each output's best-rank vector (batches concatenated)."""
        ranks: dict[str, list] = {}
        for op in ops:
            if isinstance(op.summary, dict) and "ranks" in op.summary:
                ranks.setdefault(op.name, []).append(op.summary["ranks"])
        return {name: oracle.digest(np.concatenate(parts)) for name, parts in ranks.items()}


class Transductive(Workload):
    name = "transductive"
    why = (
        "the headline operating point: SN and IS fitted on the test queries themselves, "
        "Sinkhorn sweeps dominate, then ranking"
    )

    def __init__(self, n=4000, dim=256, sn_tau=0.01, sweeps=10, is_tau=0.02):
        self.n, self.dim, self.sn_tau, self.sweeps, self.is_tau = n, dim, sn_tau, sweeps, is_tau

    def tiny(self):
        return Transductive(n=64, dim=16)

    def need_bytes(self):
        # Peak measured on the library at n = 4000: ~7.7 live n x n float64 matrices.
        return 8 * 8 * self.n * self.n + 256 * MB

    def rows_per_pass(self):
        return 3 * self.n

    def setup(self, seed):
        synth = _mod("synth")
        Q, T, gt = synth.generate_paired(synth.SynthConfig(dim=self.dim, n_pairs=self.n, seed=seed))
        return SimpleNamespace(seed=seed, Q=Q, T=T, gt=gt, gt_idx=np.arange(self.n))

    def run_pass(self, st, ctx):
        core, scaling, sinkhorn = _mod("core"), _mod("scaling"), _mod("sinkhorn")
        summarize = _matrix_summary(st.gt_idx, self.k_occ)
        S = ctx.op("cosine", core.cosine_similarity_matrix, st.Q, st.T, summarize=summarize)
        cfg = sinkhorn.SinkhornConfig(tau=self.sn_tau, max_iters=self.sweeps)
        N_sn = ctx.op("sn", sinkhorn.sn_normalize, S, cfg, summarize=summarize)
        N_is = ctx.op("is", scaling.inverted_softmax, S, self.is_tau, summarize=summarize)
        for source, M in (("cosine", S), ("sn", N_sn), ("is", N_is)):
            self._rank_ops(ctx, source, M, st.gt)

    def reference(self, st):
        raw = st.Q.data @ st.T.data.T
        pos = oracle.sample_positions(raw.shape)
        ref = {"cosine": _expect(raw, st.gt_idx, raw[pos], oracle.RANK_TOL)}
        sn = raw + oracle.sinkhorn_g(raw, self.sn_tau, self.sweeps)[None, :]
        ref["sn"] = _expect(sn, st.gt_idx, sn[pos], oracle.RANK_TOL)
        del sn
        lse = oracle.column_lse(raw, self.is_tau)
        additive = raw - self.is_tau * lse[None, :]
        ref["is"] = _expect(additive, st.gt_idx, np.exp(raw[pos] / self.is_tau - lse[pos[1]]), oracle.RANK_TOL, relative=True)
        return ref

    def check_output(self, op, ref):
        return _check_matrix(op.summary, ref[op.name])


class BankStream(Workload):
    name = "bank-stream"
    why = (
        "the bank setting: IS and DBSN compensations fitted once on small banks, then a "
        "gallery ranked batch after batch, so ranking dominates and Sinkhorn is a small share"
    )
    batched = True
    methods = ("is", "dbsn")

    def __init__(self, gallery=8000, dim=256, bank=250, batch=100, is_tau=0.02, sn_tau=0.01, sweeps=10):
        self.gallery, self.dim, self.bank, self.batch = gallery, dim, bank, batch
        self.is_tau, self.sn_tau, self.sweeps = is_tau, sn_tau, sweeps

    def tiny(self):
        return BankStream(gallery=64, dim=16, bank=16, batch=16)

    def need_bytes(self):
        per_batch = 6 * 8 * self.batch * self.gallery
        fit = 8 * 8 * self.bank * (self.gallery + self.bank)
        data = 4 * 8 * self.gallery * self.dim
        return per_batch + fit + data + 256 * MB

    def rows_per_pass(self):
        return self.gallery

    def setup(self, seed):
        core, synth, retrieval = _mod("core"), _mod("synth"), _mod("retrieval")
        Q, T, _ = synth.generate_paired(synth.SynthConfig(dim=self.dim, n_pairs=self.gallery, seed=seed))
        Bq, Bt = synth.generate_banks(synth.SynthConfig(dim=self.dim, n_pairs=self.bank, seed=seed))
        batches = []
        for b, lo in enumerate(range(0, self.gallery, self.batch)):
            idx = np.arange(lo, min(lo + self.batch, self.gallery))
            batches.append(
                SimpleNamespace(
                    Q=core.EmbeddingSet(Q.data[idx], role=core.Role.QUERY),
                    gt=retrieval.GroundTruth.from_indices(idx),
                    gt_idx=idx,
                    method=self.methods[b % len(self.methods)],
                )
            )
        return SimpleNamespace(seed=seed, T=T, Bq=Bq, Bt=Bt, batches=batches)

    def _fit_dbsn(self, S_bank_targets, S_bank_tbank):
        """DBSN's fit as ``sinkhorn.dbsn`` does it: balance the query bank
        against [targets | target bank], keep the targets' share of g."""
        core, scaling, sinkhorn = _mod("core"), _mod("scaling"), _mod("sinkhorn")
        extended = core.SimilarityMatrix(
            np.hstack([S_bank_targets.values, S_bank_tbank.values]),
            row_role=S_bank_targets.row_role,
            col_role=S_bank_targets.col_role,
        )
        cfg = sinkhorn.SinkhornConfig(tau=self.sn_tau, max_iters=self.sweeps)
        h = sinkhorn.estimate_target_hubness(extended, cfg)
        return scaling.HubnessVector(h.values[: S_bank_targets.cols], temperature=self.sn_tau)

    def run_pass(self, st, ctx):
        core, scaling = _mod("core"), _mod("scaling")
        sample = _matrix_summary(None, self.k_occ, with_ranks=False)
        ctx.batch = None
        Sbt = ctx.op("cosine.bank_targets", core.cosine_similarity_matrix, st.Bq, st.T, summarize=sample)
        Sbb = ctx.op("cosine.bank_tbank", core.cosine_similarity_matrix, st.Bq, st.Bt, summarize=sample)
        values = lambda h: np.array(h.values)  # noqa: E731
        h = {
            "is": ctx.op("fit.is", scaling.is_hubness, Sbt, self.is_tau, summarize=values),
            "dbsn": ctx.op("fit.dbsn", self._fit_dbsn, Sbt, Sbb, summarize=values),
        }
        for b, batch in enumerate(st.batches):
            ctx.batch = b
            S = ctx.op("cosine", core.cosine_similarity_matrix, batch.Q, st.T, summarize=sample)
            N = ctx.op("apply", scaling.apply_hubness, S, h[batch.method], summarize=_matrix_summary(batch.gt_idx, self.k_occ))
            self._rank_ops(ctx, "apply", N, batch.gt)
        ctx.batch = None

    def reference(self, st):
        T = st.T.data
        Vbt = st.Bq.data @ T.T
        Vbb = st.Bq.data @ st.Bt.data.T
        h = {
            "is": oracle.is_compensation(Vbt, self.is_tau),
            "dbsn": oracle.sinkhorn_g(np.hstack([Vbt, Vbb]), self.sn_tau, self.sweeps)[: self.gallery],
        }
        ref = {
            "cosine.bank_targets": _expect(Vbt, None, Vbt[oracle.sample_positions(Vbt.shape)], 0.0),
            "cosine.bank_tbank": _expect(Vbb, None, Vbb[oracle.sample_positions(Vbb.shape)], 0.0),
            "fit.is": h["is"],
            "fit.dbsn": h["dbsn"],
            "batches": [],
        }
        for batch in st.batches:
            V = batch.Q.data @ T.T
            pos = oracle.sample_positions(V.shape)
            N = V + h[batch.method][None, :]
            ref["batches"].append(
                {
                    "cosine": _expect(V, None, V[pos], 0.0),
                    "apply": _expect(N, batch.gt_idx, N[pos], oracle.RANK_TOL),
                }
            )
        return ref

    def check_output(self, op, ref):
        if op.name.startswith("fit."):
            want = ref[op.name]
            if op.summary.shape != want.shape:
                return f"hubness vector shape {op.summary.shape} != {want.shape}"
            err = float(np.abs(op.summary - want).max())
            return None if err <= oracle.VALUE_TOL else f"hubness vector off the reference by {err:.3g}"
        expected = ref["batches"][op.batch][op.name] if op.batch is not None else ref[op.name]
        return _check_matrix(op.summary, expected)


class CliFiles(Workload):
    name = "cli-files"
    why = (
        "the README file pipeline as serial CLI processes: the only workload that pays "
        "interpreter start-up and SIM1/EMB1 reads and writes"
    )
    trace_setup = False
    in_process_when_traced = True
    peak_rss_of_children = True
    methods = ("is", "sn", "dbsn")

    def __init__(self, n=2000, dim=128, root=None):
        self.n, self.dim = n, dim
        self.root = os.path.abspath(root or os.getcwd())

    def tiny(self):
        return CliFiles(n=64, dim=16, root=self.root)

    def need_bytes(self):
        # One child holds the DBSN problem (n x 2n) at ~8 live copies.
        return 8 * 8 * self.n * 2 * self.n + 512 * MB

    def rows_per_pass(self):
        return len(self.methods) * self.n

    def _env(self):
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return env

    def setup(self, seed):
        synth = _mod("synth")
        work = os.path.join(self.root, ".perfbench_out", f"cli-{os.getpid()}-{self.n}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        cfg = synth.SynthConfig(dim=self.dim, n_pairs=self.n, seed=seed)
        Q, T, _ = synth.generate_paired(cfg)
        Bq, Bt = synth.generate_banks(cfg, base=(Q, T))
        return SimpleNamespace(seed=seed, work=work, Q=Q, T=T, Bq=Bq, Bt=Bt, gt_idx=np.arange(self.n))

    def warm_up(self, state):
        self._subprocess(["--help"], state.work)

    def close(self, state):
        shutil.rmtree(state.work, ignore_errors=True)

    def _subprocess(self, argv, cwd):
        proc = subprocess.run(
            [sys.executable, "-m", "hubkit.cli", *argv],
            env=self._env(),
            cwd=cwd,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=170,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-400:]}")

    def _in_process(self, argv, ctx):
        cli = _mod("cli")
        with ctx.tracer.span(f"cli.{argv[0]}"):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"exit {code}")

    def steps(self, st):
        p = lambda name: os.path.join(st.work, name)  # noqa: E731
        steps = [
            ("synth", ["synth", "--seed", str(st.seed), "--pairs", str(self.n), "--dim", str(self.dim),
                       "--out-queries", p("q.emb"), "--out-targets", p("t.emb"), "--out-gt", p("gt.txt"),
                       "--out-bank-queries", p("bq.emb"), "--out-bank-targets", p("bt.emb")]),
            ("sim.raw", ["sim", "--queries", p("q.emb"), "--targets", p("t.emb"), "--out", p("raw.sim")]),
            ("sim.bank_targets", ["sim", "--queries", p("bq.emb"), "--targets", p("t.emb"), "--out", p("bq_t.sim")]),
            ("sim.bank_tbank", ["sim", "--queries", p("bq.emb"), "--targets", p("bt.emb"), "--out", p("bq_bt.sim")]),
            ("normalize.is", ["normalize", "--input", p("raw.sim"), "--method", "is", "--tau", "0.02",
                              "--bank-targets-sim", p("bq_t.sim"), "--out", p("is.sim")]),
            ("normalize.sn", ["normalize", "--input", p("raw.sim"), "--method", "sn", "--tau", "0.01",
                              "--iters", "10", "--out", p("sn.sim")]),
            ("normalize.dbsn", ["normalize", "--input", p("raw.sim"), "--method", "dbsn", "--tau", "0.01",
                                "--iters", "10", "--bank-targets-sim", p("bq_t.sim"),
                                "--bank-bank-sim", p("bq_bt.sim"), "--out", p("dbsn.sim")]),
        ]
        for m in self.methods:
            steps.append((f"evaluate@normalize.{m}", ["evaluate", "--sim", p(f"{m}.sim"), "--gt", p("gt.txt"),
                                                      "--Ks", ",".join(map(str, self.ks)), "--method", m,
                                                      "--skew-k", str(self.k_occ), "--out", p(f"{m}.json")]))
        steps.append(("diagnose@sim.raw", ["diagnose", "--sim", p("raw.sim"), "--k", str(self.k_occ), "--out", p("diag.txt")]))
        return steps

    def _summarizer(self, name, argv, st):
        out = argv[argv.index("--out") + 1] if "--out" in argv else None
        if name == "synth":
            files = ("q.emb", "t.emb", "bq.emb", "bt.emb", "gt.txt")

            def read_files(_):
                digests = {}
                for f in files:
                    with open(os.path.join(st.work, f), "rb") as fh:
                        digests[f] = oracle.sha(fh.read())
                return digests

            return read_files
        if name.startswith("sim.") or name.startswith("normalize."):
            ranked = name == "sim.raw" or name.startswith("normalize.")
            matrix = _matrix_summary(st.gt_idx, self.k_occ, with_ranks=ranked)

            def read_sim(_):
                V = oracle.read_matrix_file(out)
                summary = matrix(V)
                summary["sparsity"] = oracle.sparsity(V)
                return summary

            return read_sim
        if name.startswith("evaluate@"):

            def read_report(_):
                with open(out, encoding="utf-8") as fh:
                    doc = json.load(fh)
                return {
                    "r_at": {int(k): v for k, v in doc["r_at"].items()},
                    "mdr": doc["mdr"],
                    "mnr": doc["mnr"],
                    "skewness": doc.get("skewness"),
                }

            return read_report

        def read_diagnosis(_):
            histogram, named = {}, {}
            with open(out, encoding="utf-8") as fh:
                for line in fh:
                    key, value = line.split("\t")
                    if key.isdigit():
                        histogram[int(key)] = int(value)
                    else:
                        named[key] = float(value)
            return {"histogram": histogram, "skewness": named["skewness"], "sparsity": named["sparsity"]}

        return read_diagnosis

    def run_pass(self, st, ctx):
        if ctx.in_process:
            ctx.op("startup", self._startup, ctx)
        for name, argv in self.steps(st):
            if ctx.in_process:
                fn = lambda a=argv: self._in_process(a, ctx)  # noqa: E731
            else:
                fn = lambda a=argv: self._subprocess(a, st.work)  # noqa: E731
            ctx.op(name, fn, summarize=self._summarizer(name, argv, st))

    def _startup(self, ctx):
        with ctx.tracer.span("cli.startup"):
            self._subprocess(["--help"], self.root)

    def reference(self, st):
        Q, T, Bq, Bt = (oracle.f32(x.data) for x in (st.Q, st.T, st.Bq, st.Bt))
        files = {
            "q.emb": oracle.sha(oracle.matrix_file_bytes(b"EMB1", st.Q.data)),
            "t.emb": oracle.sha(oracle.matrix_file_bytes(b"EMB1", st.T.data)),
            "bq.emb": oracle.sha(oracle.matrix_file_bytes(b"EMB1", st.Bq.data)),
            "bt.emb": oracle.sha(oracle.matrix_file_bytes(b"EMB1", st.Bt.data)),
            "gt.txt": oracle.sha("".join(f"{i}\n" for i in range(self.n)).encode()),
        }
        raw = oracle.f32(Q @ T.T)
        bqt = oracle.f32(Bq @ T.T)
        bqbt = oracle.f32(Bq @ Bt.T)
        outputs = {
            "is": raw + oracle.is_compensation(bqt, 0.02)[None, :],
            "sn": raw + oracle.sinkhorn_g(raw, 0.01, 10)[None, :],
            "dbsn": raw + oracle.sinkhorn_g(np.hstack([bqt, bqbt]), 0.01, 10)[None, : self.n],
        }
        ref = {"synth": files}
        for name, V, gt in (("sim.raw", raw, None), ("sim.bank_targets", bqt, None), ("sim.bank_tbank", bqbt, None)):
            ref[name] = _expect(V, gt, V[oracle.sample_positions(V.shape)], 0.0)
        for m, V in outputs.items():
            V = oracle.f32(V)
            ref[f"normalize.{m}"] = _expect(V, st.gt_idx, V[oracle.sample_positions(V.shape)], oracle.RANK_TOL_F32)
        return ref

    def check_output(self, op, ref):
        if op.name == "startup":
            return None
        if op.name == "synth":
            bad = sorted(f for f, h in ref["synth"].items() if op.summary.get(f) != h)
            return None if not bad else f"files differ from the expected bytes: {bad}"
        return _check_matrix(op.summary, ref[op.name])

    def _check_consumer(self, op, source):
        kind = op.name.partition("@")[0]
        if source is None or source.summary is None:
            return "its input was not produced"
        s = source.summary
        if kind == "evaluate":
            problem = super()._check_consumer(op, source)
            if problem:
                return problem
            want = oracle.skewness(s["counts"])
            skew = op.summary["skewness"]
            return None if skew is not None and oracle.close(skew, want) else f"skewness {skew} != {want}"
        # diagnose: histogram of the top-k counts, their skewness, the sparsity
        values, freqs = np.unique(s["counts"], return_counts=True)
        histogram = {int(v): int(f) for v, f in zip(values, freqs)}
        if op.summary["histogram"] != histogram:
            return "k-occurrence histogram differs from the oracle"
        if not oracle.close(op.summary["skewness"], oracle.skewness(s["counts"]), abs_=1e-9):
            return f"skewness {op.summary['skewness']} differs from the oracle"
        if not oracle.close(op.summary["sparsity"], s["sparsity"], abs_=1e-9):
            return f"sparsity {op.summary['sparsity']} != {s['sparsity']}"
        return None


class Plans(Workload):
    name = "plans"
    why = (
        "transport plans themselves: feasibility-mode Sinkhorn that builds the plan and checks "
        "convergence every sweep, the OTN/L2N/HN ablations, and EMD"
    )

    def __init__(self, n=1000, dim=256, tau=0.01, tol=1e-8, max_iters=80, n_small=128, l2n_n=16, l2n_count=4,
                 emd_subsample=256, emd_repeats=8):
        self.n, self.dim, self.tau, self.tol, self.max_iters = n, dim, tau, tol, max_iters
        self.n_small, self.l2n_n, self.l2n_count = n_small, l2n_n, l2n_count
        self.emd_subsample, self.emd_repeats = emd_subsample, emd_repeats

    def tiny(self):
        return Plans(n=48, dim=16, max_iters=5, n_small=12, l2n_n=6, l2n_count=1, emd_subsample=8, emd_repeats=1)

    def need_bytes(self):
        return 10 * 8 * self.n * self.n + 256 * MB

    def rows_per_pass(self):
        return self.n + 2 * self.n_small + self.l2n_count * self.l2n_n

    def setup(self, seed):
        core, synth, sinkhorn = _mod("core"), _mod("synth"), _mod("sinkhorn")

        def pairs(n, s):
            Q, T, _ = synth.generate_paired(synth.SynthConfig(dim=self.dim, n_pairs=n, seed=s))
            return Q, T, core.SimilarityMatrix(Q.data @ T.data.T)

        Q, T, S = pairs(self.n, seed)
        _, _, S_small = pairs(self.n_small, seed)
        # Distinct seeds give disjoint sub-seed sets: 4*seed + j for j < 4.
        l2n_inputs = [pairs(self.l2n_n, self.l2n_count * seed + j)[2] for j in range(self.l2n_count)]
        return SimpleNamespace(
            seed=seed,
            Q=Q,
            T=T,
            S=S,
            S_small=S_small,
            l2n_inputs=l2n_inputs,
            marg=sinkhorn.Marginals.uniform(self.n, self.n),
            marg_small=sinkhorn.Marginals.uniform(self.n_small, self.n_small),
            marg_l2n=sinkhorn.Marginals.uniform(self.l2n_n, self.l2n_n),
        )

    @staticmethod
    def _plan_summary(marg, S=None):
        def summarize(plan):
            facts = oracle.plan_facts(plan.pi, marg.a, marg.b)
            facts.update(
                reported_violation=plan.marginal_violation,
                converged=plan.converged,
                iterations=plan.iterations_run,
            )
            if S is not None:
                facts["objective"] = float((S.values * plan.pi).sum())
                facts["product_objective"] = float(marg.a @ S.values @ marg.b)
            return facts

        return summarize

    def run_pass(self, st, ctx):
        sinkhorn, variants, diagnostics = _mod("sinkhorn"), _mod("variants"), _mod("diagnostics")
        cfg = sinkhorn.SinkhornConfig(tau=self.tau, max_iters=self.max_iters, tol=self.tol)
        plan = ctx.op("sinkhorn", sinkhorn.sinkhorn, st.S, st.marg, cfg, summarize=self._plan_summary(st.marg))
        ctx.op("plan_entropy@sinkhorn", sinkhorn.plan_entropy, plan, summarize=float)
        ctx.op("marginal_violation@sinkhorn", sinkhorn.marginal_violation, plan, st.marg, summarize=float)
        plans = {
            "otn": ctx.op("otn", variants.otn, st.S_small, st.marg_small, summarize=self._plan_summary(st.marg_small, st.S_small)),
            "hn": ctx.op("hn", variants.hn, st.S_small, summarize=self._plan_summary(st.marg_small, st.S_small)),
        }
        for j, S in enumerate(st.l2n_inputs):
            plans[f"l2n.{j}"] = ctx.op(f"l2n.{j}", variants.l2n, S, st.marg_l2n, summarize=self._plan_summary(st.marg_l2n))
        for name, p in plans.items():
            ctx.op(f"sparsity@{name}", variants.sparsity, p, summarize=float)
        cfg_emd = diagnostics.EmdConfig(subsample=self.emd_subsample, repeats=self.emd_repeats, seed=st.seed)
        ctx.op("emd", diagnostics.emd, st.Q, st.T, cfg_emd, summarize=float)

    def reference(self, st):
        return {
            "emd": oracle.emd(st.Q.data, st.T.data, self.emd_subsample, self.emd_repeats, st.seed),
            "assignment": oracle.assignment_optimum(st.S_small.values),
        }

    def check_output(self, op, ref):
        if op.name == "emd":
            return None if oracle.close(op.summary, ref["emd"]) else f"emd {op.summary} != {ref['emd']}"
        f = op.summary
        if op.name == "hn":
            if not f["permutation"]:
                return "assignment plan is not a permutation"
            if not oracle.close(f["objective"], ref["assignment"]):
                return f"assignment score {f['objective']} != optimum {ref['assignment']}"
            return None
        if not f["finite"] or f["min"] < 0.0:
            return "plan has negative or non-finite entries"
        total = f["row_violation"] + f["col_violation"]
        if not oracle.close(f["reported_violation"], total, rel=1e-6, abs_=1e-14):
            return f"reported violation {f['reported_violation']} != measured {total}"
        if op.name == "sinkhorn":
            if f["col_violation"] > 1e-10:
                return f"column marginal off by {f['col_violation']:.3g} after a column update"
            if f["converged"] and total > self.tol * (1 + 1e-6):
                return f"converged with violation {total:.3g} > tol {self.tol}"
            if not f["converged"] and f["iterations"] != self.max_iters:
                return f"stopped after {f['iterations']} sweeps without converging"
            return None
        if op.name == "otn":
            if total > 1e-9:
                return f"marginal violation {total:.3g}"
            if f["objective"] < f["product_objective"] - 1e-12:
                return f"objective {f['objective']} below the product plan's {f['product_objective']}"
            bound = ref["assignment"] / self.n_small
            if f["objective"] > bound + 1e-9:
                return f"objective {f['objective']} above the LP optimum {bound}"
            return None
        # l2n
        if f["converged"] and total > 1e-8:
            return f"converged with marginal violation {total:.3g}"
        return None

    def _check_consumer(self, op, source):
        kind = op.name.partition("@")[0]
        if source is None or source.summary is None:
            return "its input was not produced"
        s = source.summary
        want = {
            "plan_entropy": s["entropy"],
            "marginal_violation": s["row_violation"] + s["col_violation"],
            "sparsity": s["sparsity"],
        }[kind]
        return None if oracle.close(op.summary, want, rel=1e-9, abs_=1e-15) else f"{kind} {op.summary} != {want}"


WORKLOADS = {w.name: w for w in (Transductive, BankStream, CliFiles, Plans)}


def make(name: str, root) -> Workload:
    cls = WORKLOADS[name]
    return cls(root=root) if cls is CliFiles else cls()
