"""A wrong output, however it arises, must count as a failed operation."""

import importlib

import numpy as np
import pytest

from hubbench import env, runner, workloads
from hubbench.runner import PassContext

from conftest import ROOT


def _one_pass(wl, seed=3):
    st = wl.setup(seed)
    try:
        ctx = PassContext()
        wl.run_pass(st, ctx)
        return ctx.ops, wl.check(ctx.ops, wl.reference(st))
    finally:
        wl.close(st)


def _names(ops, problems):
    return {ops[i].name for i, _ in problems}


@pytest.mark.parametrize("name", ["transductive", "bank-stream", "plans"])
def test_library_workloads_pass_their_checks(name):
    ops, problems = _one_pass(workloads.make(name, ROOT).tiny())
    assert ops and not any(op.error for op in ops)
    assert problems == []


def test_corrupted_report_fails_only_the_evaluation():
    wl = workloads.make("transductive", ROOT).tiny()
    st = wl.setup(3)
    ctx = PassContext()
    wl.run_pass(st, ctx)
    ref = wl.reference(st)
    evaluate = next(op for op in ctx.ops if op.name == "evaluate@sn")
    evaluate.summary["mnr"] += 1.0
    counts = next(op for op in ctx.ops if op.name == "k_occurrence@is")
    counts.summary = counts.summary[::-1].copy()
    assert _names(ctx.ops, wl.check(ctx.ops, ref)) == {"evaluate@sn", "k_occurrence@is"}


def test_corrupted_normalizer_fails_its_operation(monkeypatch):
    sinkhorn = importlib.import_module("hubkit.sinkhorn")
    real = sinkhorn.sn_normalize

    def swapped_columns(S, cfg):
        out = real(S, cfg).values.copy()
        out[:, [0, 1]] = out[:, [1, 0]]
        return S.with_values(out)

    monkeypatch.setattr(sinkhorn, "sn_normalize", swapped_columns)
    ops, problems = _one_pass(workloads.make("transductive", ROOT).tiny())
    assert "sn" in _names(ops, problems)
    assert "cosine" not in _names(ops, problems)


def test_raising_operation_is_a_failure_and_starves_its_consumers(monkeypatch):
    scaling = importlib.import_module("hubkit.scaling")

    def broken(*args):
        raise FloatingPointError("boom")

    monkeypatch.setattr(scaling, "inverted_softmax", broken)
    wl = workloads.make("transductive", ROOT).tiny()
    line, details, _ = runner.run_workload(wl, seed=1, seconds=0.01, trace=False)
    assert not line["correct"]
    failed = {f["op"] for f in details["failures"]}
    assert {"is", "evaluate@is", "argsort@is", "k_occurrence@is", "skewness@is"} <= failed
    assert line["failed"] == 5 * len(details["passes"])


def test_plan_checks_are_independent_of_the_solvers(monkeypatch):
    variants = importlib.import_module("hubkit.variants")
    real_hn, real_otn = variants.hn, variants.otn

    def not_a_permutation(S):
        plan = real_hn(S)
        pi = plan.pi.copy()
        pi[0, :] = 0.0
        return type(plan)(pi=pi, f=None, g=None, tau=0.0, iterations_run=1, marginal_violation=0.0)

    def below_product(S, marg, *rest):
        plan = real_otn(S, marg, *rest)
        pi = np.outer(marg.a, marg.b)
        worst = np.argsort(S.values, axis=None)[: pi.shape[0]]
        pi = pi * 0.5
        pi.flat[worst] += 0.5 / pi.shape[0]
        return type(plan)(pi=pi, f=None, g=None, tau=plan.tau, iterations_run=1, marginal_violation=float(np.abs(pi.sum(1) - marg.a).sum() + np.abs(pi.sum(0) - marg.b).sum()))

    monkeypatch.setattr(variants, "hn", not_a_permutation)
    monkeypatch.setattr(variants, "otn", below_product)
    ops, problems = _one_pass(workloads.make("plans", ROOT).tiny())
    assert {"hn", "otn"} <= _names(ops, problems)


def test_cli_pipeline_checks_files_and_reports():
    wl = workloads.make("cli-files", ROOT).tiny()
    st = wl.setup(2)
    try:
        ctx = PassContext()
        wl.run_pass(st, ctx)
        ref = wl.reference(st)
        assert not any(op.error for op in ctx.ops), [op.error for op in ctx.ops if op.error]
        assert wl.check(ctx.ops, ref) == []
        report = next(op for op in ctx.ops if op.name == "evaluate@normalize.dbsn")
        report.summary["r_at"][1] += 1.0
        synth = next(op for op in ctx.ops if op.name == "synth")
        synth.summary["t.emb"] = "0" * 64
        assert _names(ctx.ops, wl.check(ctx.ops, ref)) == {"evaluate@normalize.dbsn", "synth"}
    finally:
        wl.close(st)


def test_memory_guard_refuses_instead_of_running(monkeypatch):
    assert env.memory_refusal(2 * 2**30, {"MemAvailable": 1024 * 1024}) is not None
    assert env.memory_refusal(2**30, {"MemAvailable": 2 * 1024 * 1024}) is None
    assert env.memory_refusal(2**40, {}) is None
    monkeypatch.setattr(runner, "read_meminfo", lambda: {"MemAvailable": 1024})
    line, details, tracer = runner.run_workload(workloads.make("plans", ROOT).tiny(), 0, 1.0, False)
    assert line == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    assert "MemAvailable" in details["refused"] and tracer is None


def test_no_transductive_size_fits_sixteen_thousand_on_eight_gigabytes():
    need = workloads.Transductive(n=16000).need_bytes()
    assert env.memory_refusal(need, {"MemAvailable": 8 * 1024 * 1024}) is not None


def test_meminfo_parsing():
    text = "MemTotal:        8211568 kB\nMemAvailable:    7758012 kB\nHugePages_Total:       0\n"
    assert env.meminfo_kib(text) == {"MemTotal": 8211568, "MemAvailable": 7758012, "HugePages_Total": 0}
