"""End-to-end checks of the command line against the library."""

import filecmp
import functools
import json
import os
import re
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import hubkit as hk
from hubkit import (
    GroundTruth,
    SimilarityMatrix,
    best_rank,
    evaluate,
    inverted_softmax,
    read_similarity,
    row_argsort_desc,
    write_ground_truth,
    write_similarity,
)
from hubkit import cli
from hubkit.cli import main


def _synth_args(out, pairs=60, dim=16, seed=0, banks=False, **extra):
    args = [
        "synth", "--seed", str(seed), "--pairs", str(pairs), "--dim", str(dim),
        "--out-queries", str(out / "q.emb"),
        "--out-targets", str(out / "t.emb"),
        "--out-gt", str(out / "gt.txt"),
    ]
    for flag, value in extra.items():
        args += [f"--{flag.replace('_', '-')}", str(value)]
    if banks:
        args += [
            "--out-bank-queries", str(out / "bq.emb"),
            "--out-bank-targets", str(out / "bt.emb"),
        ]
    return args


class TestPipeline:
    def test_synth_sim_normalize_evaluate(self, tmp_path):
        assert main(_synth_args(tmp_path)) == 0
        assert main([
            "sim", "--queries", str(tmp_path / "q.emb"),
            "--targets", str(tmp_path / "t.emb"), "--out", str(tmp_path / "raw.sim"),
        ]) == 0
        assert main([
            "normalize", "--input", str(tmp_path / "raw.sim"),
            "--method", "is", "--out", str(tmp_path / "is.sim"),
        ]) == 0
        assert main([
            "evaluate", "--sim", str(tmp_path / "is.sim"), "--gt", str(tmp_path / "gt.txt"),
            "--Ks", "1,5,10", "--method", "is", "--skew-k", "1",
            "--out", str(tmp_path / "report.json"),
        ]) == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        recalls = [doc["r_at"][k] for k in ("1", "5", "10")]
        assert all(0.0 <= v <= 100.0 for v in recalls)
        assert recalls == sorted(recalls)
        assert doc["normalization"] == "is"
        assert "skewness" in doc

    def test_matches_library_composition(self, tmp_path):
        """normalize + evaluate through files equals the in-memory pipeline."""
        assert main(_synth_args(tmp_path)) == 0
        assert main([
            "sim", "--queries", str(tmp_path / "q.emb"),
            "--targets", str(tmp_path / "t.emb"), "--out", str(tmp_path / "raw.sim"),
        ]) == 0
        assert main([
            "normalize", "--input", str(tmp_path / "raw.sim"),
            "--method", "is", "--tau", "0.02", "--out", str(tmp_path / "is.sim"),
        ]) == 0
        assert main([
            "evaluate", "--sim", str(tmp_path / "is.sim"), "--gt", str(tmp_path / "gt.txt"),
            "--Ks", "1,5", "--out", str(tmp_path / "report.json"),
        ]) == 0
        doc = json.loads((tmp_path / "report.json").read_text())

        S = read_similarity(tmp_path / "raw.sim")
        rescaled = inverted_softmax(S, tau=0.02)
        # the normalize step stored float32; reproduce that quantization
        quantized = SimilarityMatrix(rescaled.values.astype(np.float32).astype(np.float64))
        gt = GroundTruth.from_indices(
            [int(line) for line in (tmp_path / "gt.txt").read_text().split()]
        )
        report = evaluate(quantized, gt, Ks=[1, 5])
        assert doc["r_at"]["1"] == report.r_at[1]
        assert doc["r_at"]["5"] == report.r_at[5]
        assert doc["mdr"] == report.mdr
        assert doc["mnr"] == report.mnr

    def test_reruns_are_byte_identical(self, tmp_path):
        d1, d2 = tmp_path / "one", tmp_path / "two"
        for d in (d1, d2):
            d.mkdir()
            assert main(_synth_args(d, banks=True, bank_shift=0.3)) == 0
            assert main([
                "sim", "--queries", str(d / "q.emb"), "--targets", str(d / "t.emb"),
                "--out", str(d / "raw.sim"),
            ]) == 0
            assert main([
                "normalize", "--input", str(d / "raw.sim"), "--method", "sn",
                "--out", str(d / "sn.sim"),
            ]) == 0
            assert main([
                "evaluate", "--sim", str(d / "sn.sim"), "--gt", str(d / "gt.txt"),
                "--out", str(d / "report.json"),
            ]) == 0
        for name in ("q.emb", "t.emb", "gt.txt", "bq.emb", "bt.emb", "raw.sim", "sn.sim", "report.json"):
            assert filecmp.cmp(d1 / name, d2 / name, shallow=False), name

    def test_evaluate_multi_target_file(self, tmp_path):
        rng = np.random.default_rng(65)
        S = SimilarityMatrix(np.round(rng.uniform(-1, 1, (30, 40)), 1))
        gt = GroundTruth(tuple(
            frozenset(rng.choice(40, size=rng.integers(1, 4), replace=False).tolist())
            for _ in range(30)
        ))
        write_similarity(S, tmp_path / "s.sim")
        write_ground_truth(gt, tmp_path / "gt.txt")
        assert "," in (tmp_path / "gt.txt").read_text()
        assert main([
            "evaluate", "--sim", str(tmp_path / "s.sim"), "--gt", str(tmp_path / "gt.txt"),
            "--Ks", "1,5,10", "--out", str(tmp_path / "report.json"),
        ]) == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        # the library route, through sorted positions rather than counts
        br = best_rank(row_argsort_desc(read_similarity(tmp_path / "s.sim")), gt)
        assert doc["r_at"] == {str(k): float(100.0 * np.mean(br <= k)) for k in (1, 5, 10)}
        assert doc["mdr"] == float(np.sort(br)[(br.size - 1) // 2])
        assert doc["mnr"] == float(br.mean())


class TestNormalizeMethods:
    @pytest.fixture()
    def sim_file(self, tmp_path):
        rng = np.random.default_rng(62)
        path = tmp_path / "s.sim"
        write_similarity(SimilarityMatrix(rng.uniform(-1, 1, (12, 12))), path)
        return path

    def test_constant_matrix_sn_yields_ties(self, tmp_path):
        path = tmp_path / "c.sim"
        write_similarity(SimilarityMatrix(np.full((6, 6), 0.25)), path)
        out = tmp_path / "o.sim"
        assert main(["normalize", "--input", str(path), "--method", "sn", "--out", str(out)]) == 0
        values = read_similarity(out).values
        assert values.max() - values.min() <= 1e-9

    def test_none_copies_input_values(self, sim_file, tmp_path):
        out = tmp_path / "o.sim"
        assert main(["normalize", "--input", str(sim_file), "--method", "none", "--out", str(out)]) == 0
        np.testing.assert_array_equal(read_similarity(out).values, read_similarity(sim_file).values)

    @pytest.mark.parametrize("method", ["otn", "l2n", "hn"])
    def test_plan_methods_write_plan_values(self, sim_file, tmp_path, method):
        out = tmp_path / "o.sim"
        assert main(["normalize", "--input", str(sim_file), "--method", method, "--out", str(out)]) == 0
        values = read_similarity(out).values
        assert np.all(np.isfinite(values))
        if method == "hn":
            # default semantics keep raw scores plus an assignment boost
            assert values.shape == (12, 12)
        else:
            np.testing.assert_allclose(values.sum(), 1.0, atol=1e-5)

    def test_bank_methods_require_bank_files(self, sim_file, tmp_path):
        out = tmp_path / "o.sim"
        code = main(["normalize", "--input", str(sim_file), "--method", "dbsn", "--out", str(out)])
        assert code == 1
        code = main(["normalize", "--input", str(sim_file), "--method", "dualis", "--out", str(out)])
        assert code == 1

    def test_dis_with_bank(self, sim_file, tmp_path):
        rng = np.random.default_rng(63)
        bank = tmp_path / "bank.sim"
        write_similarity(SimilarityMatrix(rng.uniform(-1, 1, (8, 12))), bank)
        out = tmp_path / "o.sim"
        assert main([
            "normalize", "--input", str(sim_file), "--method", "dis",
            "--bank-targets-sim", str(bank), "--k", "2", "--out", str(out),
        ]) == 0
        assert np.all(np.isfinite(read_similarity(out).values))


def _uniform(S):
    return hk.Marginals.uniform(S.rows, S.cols)


def _sn(tau=0.01, iters=10):
    return hk.SinkhornConfig(tau=tau, max_iters=iters)


# (id, extra normalize flags, library call on the read inputs).  ``B`` holds
# the read bank files: qt (query bank x targets), qb (query bank x target
# bank), bt (target bank x targets).
_NORMALIZE_CASES = [
    ("none", ["--method", "none"], lambda S, B: S),
    ("is", ["--method", "is"], lambda S, B: hk.inverted_softmax(S, 0.02)),
    ("is-tau", ["--method", "is", "--tau", "0.05"], lambda S, B: hk.inverted_softmax(S, 0.05)),
    ("is-bank", ["--method", "is", "--bank-targets-sim", "qt"],
     lambda S, B: hk.apply_hubness(S, hk.is_hubness(B["qt"], 0.02))),
    ("dis", ["--method", "dis", "--bank-targets-sim", "qt", "--k", "2"],
     lambda S, B: hk.dynamic_inverted_softmax(S, B["qt"], hk.DISConfig(k=2), 0.02)),
    ("dualis", ["--method", "dualis", "--bank-targets-sim", "qt", "--tbank-targets-sim", "bt"],
     lambda S, B: hk.dual_inverted_softmax(S, B["qt"], B["bt"], hk.DualISConfig(0.02, 0.02))),
    ("sn", ["--method", "sn"], lambda S, B: hk.sn_normalize(S, _sn())),
    ("sn-bank", ["--method", "sn", "--bank-targets-sim", "qt"],
     lambda S, B: hk.apply_hubness(S, hk.estimate_target_hubness(B["qt"], _sn()))),
    ("dbsn", ["--method", "dbsn", "--bank-targets-sim", "qt", "--bank-bank-sim", "qb"],
     lambda S, B: hk.dbsn(S, B["qt"], B["qb"], _sn())),
    ("dbsn-tau", ["--method", "dbsn", "--bank-targets-sim", "qt", "--bank-bank-sim", "qb",
                  "--tau", "0.05", "--iters", "3"],
     lambda S, B: hk.dbsn(S, B["qt"], B["qb"], _sn(0.05, 3))),
    ("otn", ["--method", "otn"], lambda S, B: S.with_values(hk.otn(S, _uniform(S)).pi)),
    ("l2n", ["--method", "l2n"], lambda S, B: S.with_values(hk.l2n(S, _uniform(S), coeff=100.0).pi)),
    ("hn", ["--method", "hn"], lambda S, B: hk.hn_normalize(S)),
    ("hn-literal", ["--method", "hn", "--hn-literal"], lambda S, B: hk.hn_normalize(S, literal=True)),
]


def _skew_at_1(S):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", hk.ZeroVarianceWarning)
        return hk.skewness(hk.k_occurrence(row_argsort_desc(S), 1))


class TestMethodsMatchLibrary:
    """Each subcommand writes exactly the bytes of the library composition."""

    @pytest.fixture(scope="class")
    def data(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("methods")
        cfg = hk.SynthConfig(dim=16, n_pairs=40, bank_shift=0.3, seed=5)
        Q, T, gt = hk.generate_paired(cfg)
        Bq, Bt = hk.generate_banks(cfg, base=(Q, T))
        for name, emb in (("q", Q), ("t", T), ("bq", Bq), ("bt", Bt)):
            hk.write_embeddings(emb, out / f"{name}.emb")
        write_ground_truth(gt, out / "gt.txt")
        pairs = {"raw": (Q, T), "qt": (Bq, T), "qb": (Bq, Bt), "bt": (Bt, T)}
        for name, (X, Y) in pairs.items():
            write_similarity(hk.cosine_similarity_matrix(X, Y), out / f"{name}.sim")
        return out

    @pytest.mark.parametrize(("flags", "library"), [c[1:] for c in _NORMALIZE_CASES],
                             ids=[c[0] for c in _NORMALIZE_CASES])
    def test_normalize_writes_the_library_result(self, data, tmp_path, flags, library):
        argv = ["normalize", "--input", str(data / "raw.sim"), "--out", str(tmp_path / "cli.sim")]
        banks = ("qt", "qb", "bt")
        argv += [str(data / f"{flag}.sim") if flag in banks else flag for flag in flags]
        assert main(argv) == 0
        B = {name: read_similarity(data / f"{name}.sim") for name in banks}
        write_similarity(library(read_similarity(data / "raw.sim"), B), tmp_path / "lib.sim")
        assert (tmp_path / "cli.sim").read_bytes() == (tmp_path / "lib.sim").read_bytes()

    def test_sweep_tau_rows_are_the_library_composition(self, data, tmp_path):
        out = tmp_path / "sweep.tsv"
        assert main(["sweep-tau", "--sim", str(data / "raw.sim"), "--gt", str(data / "gt.txt"),
                     "--taus", "0.1,0.02,0.005", "--iters", "4", "--out", str(out)]) == 0
        S, gt = read_similarity(data / "raw.sim"), hk.read_ground_truth(data / "gt.txt")
        expected = ""
        for tau in (0.1, 0.02, 0.005):
            for method, normalized in (("is", hk.inverted_softmax(S, tau)), ("sn", hk.sn_normalize(S, _sn(tau, 4)))):
                expected += f"{tau:g}\t{method}\t{evaluate(normalized, gt, [1]).r_at[1]:.4f}\n"
        assert out.read_text() == expected

    def test_banksweep_rows_are_the_library_composition(self, data, tmp_path):
        out = tmp_path / "banks.tsv"
        assert main(["banksweep", "--queries", str(data / "q.emb"), "--targets", str(data / "t.emb"),
                     "--gt", str(data / "gt.txt"), "--bank-queries", str(data / "bq.emb"),
                     "--bank-targets", str(data / "bt.emb"), "--fractions", "0.3,1.0", "--tau", "0.05",
                     "--iters", "4", "--subsample", "16", "--repeats", "2", "--out", str(out)]) == 0
        Q, T = hk.read_embeddings(data / "q.emb"), hk.read_embeddings(data / "t.emb")
        Bq, Bt = hk.read_embeddings(data / "bq.emb"), hk.read_embeddings(data / "bt.emb")
        gt = hk.read_ground_truth(data / "gt.txt")
        S = hk.cosine_similarity_matrix(Q, T)
        expected = ""
        for fraction in (0.3, 1.0):
            bq = hk.EmbeddingSet(Bq.data[: max(1, int(fraction * Bq.count))])
            bt = hk.EmbeddingSet(Bt.data[: max(1, int(fraction * Bt.count))])
            qt, qb = hk.cosine_similarity_matrix(bq, T), hk.cosine_similarity_matrix(bq, bt)
            gap = hk.emd(bq, T, hk.EmdConfig(subsample=16, repeats=2, seed=0))
            rows = [
                ("is", hk.apply_hubness(S, hk.is_hubness(qt, 0.02))),  # IS stays at 0.02
                ("sn", hk.apply_hubness(S, hk.estimate_target_hubness(qt, _sn(0.05, 4)))),
                ("dbsn", hk.dbsn(S, qt, qb, _sn(0.05, 4))),
            ]
            for method, normalized in rows:
                r1 = evaluate(normalized, gt, [1]).r_at[1]
                expected += f"{fraction:g}\t{method}\t{r1:.4f}\t{_skew_at_1(normalized):.6f}\t{gap:.6f}\n"
        assert out.read_text() == expected

    def test_synth_writes_the_library_result(self, tmp_path):
        (tmp_path / "cli").mkdir()
        (tmp_path / "lib").mkdir()
        assert main(_synth_args(tmp_path / "cli", pairs=30, dim=8, seed=7, banks=True,
                                noise=0.3, bank_shift=0.2)) == 0
        cfg = hk.SynthConfig(dim=8, n_pairs=30, noise_sigma=0.3, bank_shift=0.2, seed=7)
        Q, T, gt = hk.generate_paired(cfg)
        Bq, Bt = hk.generate_banks(cfg, base=(Q, T))
        for name, emb in (("q", Q), ("t", T), ("bq", Bq), ("bt", Bt)):
            hk.write_embeddings(emb, tmp_path / "lib" / f"{name}.emb")
        write_ground_truth(gt, tmp_path / "lib" / "gt.txt")
        for name in ("q.emb", "t.emb", "gt.txt", "bq.emb", "bt.emb"):
            assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes(), name

    @pytest.mark.parametrize("renormalize", [False, True])
    def test_sim_writes_the_library_result(self, data, tmp_path, renormalize):
        argv = ["sim", "--queries", str(data / "bq.emb"), "--targets", str(data / "t.emb"),
                "--out", str(tmp_path / "cli.sim")]
        assert main(argv + ["--renormalize"] * renormalize) == 0
        X, Y = (hk.read_embeddings(data / f"{name}.emb", renormalize=renormalize) for name in ("bq", "t"))
        write_similarity(hk.cosine_similarity_matrix(X, Y), tmp_path / "lib.sim")
        assert (tmp_path / "cli.sim").read_bytes() == (tmp_path / "lib.sim").read_bytes()

    @pytest.mark.parametrize("cost", ["euclidean", "one_minus_cosine"])
    def test_emd_prints_the_library_value(self, data, capsys, cost):
        assert main(["emd", "--x", str(data / "bq.emb"), "--y", str(data / "t.emb"), "--subsample", "16",
                     "--repeats", "2", "--seed", "3", "--cost", cost]) == 0
        cfg = hk.EmdConfig(subsample=16, repeats=2, seed=3, ground_cost=cost)
        value = hk.emd(hk.read_embeddings(data / "bq.emb"), hk.read_embeddings(data / "t.emb"), cfg)
        assert capsys.readouterr().out == f"{value:.10g}\n"

    def test_diagnose_lines_are_the_library_composition(self, data, tmp_path):
        out = tmp_path / "d.tsv"
        assert main(["diagnose", "--sim", str(data / "raw.sim"), "--k", "3", "--out", str(out)]) == 0
        S = read_similarity(data / "raw.sim")
        occ = hk.k_occurrence(hk.row_topk_desc(S, 3), 3)
        values, freqs = np.unique(occ.counts, return_counts=True)
        expected = "".join(f"{v}\t{c}\n" for v, c in zip(values, freqs))
        expected += f"skewness\t{hk.skewness(occ):.10g}\n"
        expected += f"sparsity\t{np.mean(S.values < 1e-9 * S.values.max()):.10g}\n"
        assert out.read_text() == expected

    def test_evaluate_report_is_the_library_composition(self, data, tmp_path):
        assert main(["evaluate", "--sim", str(data / "raw.sim"), "--gt", str(data / "gt.txt"), "--Ks", "1,5",
                     "--skew-k", "3", "--out", str(tmp_path / "cli.json")]) == 0
        S, gt = read_similarity(data / "raw.sim"), hk.read_ground_truth(data / "gt.txt")
        skew = hk.skewness(hk.k_occurrence(hk.row_topk_desc(S, 3), 3))
        hk.write_report(evaluate(S, gt, [1, 5], skew=skew), tmp_path / "lib.json")
        assert (tmp_path / "cli.json").read_bytes() == (tmp_path / "lib.json").read_bytes()


class TestLateBinding:
    """The CLI looks library functions up on their modules when it calls them,
    so a wrapper set on a module attribute after import is the one that runs."""

    def test_calls_go_through_module_attributes(self, tmp_path, monkeypatch):
        calls = []
        for module, name in ((hk.retrieval, "evaluate"), (hk.io, "read_similarity"), (hk.scaling, "is_hubness")):
            def record(*args, _name=name, _original=getattr(module, name), **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, record)
        S = SimilarityMatrix(np.random.default_rng(8).uniform(-1, 1, (5, 6)))
        write_similarity(S, tmp_path / "s.sim")
        write_similarity(S, tmp_path / "b.sim")
        write_ground_truth(GroundTruth.from_indices(range(5)), tmp_path / "gt.txt")
        assert main(["evaluate", "--sim", str(tmp_path / "s.sim"), "--gt", str(tmp_path / "gt.txt"),
                     "--Ks", "1", "--out", str(tmp_path / "r.json")]) == 0
        assert calls == ["read_similarity", "evaluate"]
        calls.clear()
        assert main(["normalize", "--input", str(tmp_path / "s.sim"), "--method", "is",
                     "--bank-targets-sim", str(tmp_path / "b.sim"), "--out", str(tmp_path / "o.sim")]) == 0
        # the bank is read and fitted before --input is read
        assert calls == ["read_similarity", "is_hubness", "read_similarity"]


class TestDiagnosticsCommands:
    def test_diagnose_output_shape(self, tmp_path):
        rng = np.random.default_rng(64)
        path = tmp_path / "s.sim"
        write_similarity(SimilarityMatrix(rng.uniform(-1, 1, (20, 20))), path)
        out = tmp_path / "d.tsv"
        assert main(["diagnose", "--sim", str(path), "--k", "3", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[-2].startswith("skewness\t")
        assert lines[-1].startswith("sparsity\t")
        hist = [line.split("\t") for line in lines[:-2]]
        assert sum(int(v) * int(c) for v, c in hist) == 3 * 20

    def test_emd_prints_value(self, tmp_path, capsys):
        assert main(_synth_args(tmp_path, pairs=40, dim=8, banks=True)) == 0
        assert main([
            "emd", "--x", str(tmp_path / "bq.emb"), "--y", str(tmp_path / "t.emb"),
            "--subsample", "16", "--repeats", "2",
        ]) == 0
        value = float(capsys.readouterr().out.strip())
        assert np.isfinite(value) and value >= 0

    def test_emd_cosine_cost_refuses_a_zero_row(self, tmp_path, capsys):
        rows = np.random.default_rng(65).standard_normal((4, 4))
        rows[1] = 0.0
        hk.write_embeddings(hk.EmbeddingSet(rows), tmp_path / "z.emb")
        hk.write_embeddings(hk.EmbeddingSet(np.eye(4)), tmp_path / "e.emb")
        emd = ["emd", "--x", str(tmp_path / "z.emb"), "--y", str(tmp_path / "e.emb"), "--subsample", "4"]
        assert main(emd) == 0  # the Euclidean cost takes a zero row
        capsys.readouterr()
        assert main([*emd, "--cost", "one_minus_cosine"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "row 1 is a zero vector" in err

    @pytest.mark.parametrize("flag", ["--x", "--y"])
    def test_emd_zero_row_refusal_names_its_file(self, tmp_path, capsys, flag):
        rows = np.vstack([np.eye(4), np.zeros((1, 4))])
        hk.write_embeddings(hk.EmbeddingSet(rows), tmp_path / "z.emb")
        hk.write_embeddings(hk.EmbeddingSet(np.eye(4)), tmp_path / "e.emb")
        files = {"--x": "e.emb", "--y": "e.emb", flag: "z.emb"}
        emd = ["emd", "--cost", "one_minus_cosine", "--subsample", "4"]
        for option, name in files.items():
            emd += [option, str(tmp_path / name)]
        assert main(emd) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"{flag} file {tmp_path / 'z.emb'}: row 4 is a zero vector" in err

    def test_sweep_tau_table(self, tmp_path):
        assert main(_synth_args(tmp_path, pairs=50, dim=8)) == 0
        assert main([
            "sim", "--queries", str(tmp_path / "q.emb"), "--targets", str(tmp_path / "t.emb"),
            "--out", str(tmp_path / "s.sim"),
        ]) == 0
        out = tmp_path / "sweep.tsv"
        assert main([
            "sweep-tau", "--sim", str(tmp_path / "s.sim"), "--gt", str(tmp_path / "gt.txt"),
            "--taus", "0.1,0.02", "--out", str(out),
        ]) == 0
        rows = [line.split("\t") for line in out.read_text().strip().split("\n")]
        assert [(r[0], r[1]) for r in rows] == [
            ("0.1", "is"), ("0.1", "sn"), ("0.02", "is"), ("0.02", "sn"),
        ]
        assert all(0.0 <= float(r[2]) <= 100.0 for r in rows)

    def test_banksweep_table(self, tmp_path):
        assert main(_synth_args(tmp_path, pairs=40, dim=8, banks=True)) == 0
        out = tmp_path / "banks.tsv"
        assert main([
            "banksweep",
            "--queries", str(tmp_path / "q.emb"), "--targets", str(tmp_path / "t.emb"),
            "--gt", str(tmp_path / "gt.txt"),
            "--bank-queries", str(tmp_path / "bq.emb"), "--bank-targets", str(tmp_path / "bt.emb"),
            "--fractions", "0.5,1.0", "--subsample", "16", "--repeats", "2",
            "--out", str(out),
        ]) == 0
        rows = [line.split("\t") for line in out.read_text().strip().split("\n")]
        assert len(rows) == 6  # 2 fractions x {is, sn, dbsn}
        assert all(len(r) == 5 for r in rows)
        assert [r[1] for r in rows] == ["is", "sn", "dbsn"] * 2


class TestExitCodes:
    def test_usage_errors_return_one(self, tmp_path):
        assert main(["nonsense"]) == 1
        assert main([]) == 1
        # one bank output flag without the other
        args = _synth_args(tmp_path)
        args += ["--out-bank-queries", str(tmp_path / "bq.emb")]
        assert main(args) == 1

    def test_data_errors_return_two(self, tmp_path):
        out = tmp_path / "o.sim"
        assert main(["normalize", "--input", str(tmp_path / "missing.sim"),
                     "--method", "is", "--out", str(out)]) == 2
        bad = tmp_path / "bad.sim"
        bad.write_bytes(b"NOPE" + b"\x00" * 20)
        assert main(["normalize", "--input", str(bad), "--method", "is", "--out", str(out)]) == 2

    @pytest.mark.parametrize("method", [
        ["--method", "is", "--bank-targets-sim", "qt"],
        ["--method", "sn", "--bank-targets-sim", "qt"],
        ["--method", "dbsn", "--bank-targets-sim", "qt", "--bank-bank-sim", "qb"],
    ], ids=["is", "sn", "dbsn"])
    def test_malformed_input_after_valid_banks_is_data_error(self, tmp_path, capsys, method):
        # the input's header is checked before the banks are read or fitted
        rng = np.random.default_rng(35)
        write_similarity(SimilarityMatrix(rng.uniform(-1, 1, (4, 6))), tmp_path / "qt.sim")
        write_similarity(SimilarityMatrix(rng.uniform(-1, 1, (4, 3))), tmp_path / "qb.sim")
        bad = tmp_path / "bad.sim"
        bad.write_bytes(b"SIM1" + struct.pack("<II", 6, 6) + b"\x00" * 20)
        out = tmp_path / "o.sim"
        argv = ["normalize", "--input", str(bad), "--out", str(out)]
        argv += [str(tmp_path / f"{flag}.sim") if flag in ("qt", "qb") else flag for flag in method]
        assert main(argv) == 2
        assert str(bad) in capsys.readouterr().err
        assert not out.exists()

    def test_dbsn_column_mismatch_is_data_error(self, tmp_path, capsys, monkeypatch):
        rng = np.random.default_rng(36)
        write_similarity(SimilarityMatrix(rng.uniform(-1, 1, (5, 6))), tmp_path / "s.sim")
        write_similarity(SimilarityMatrix(rng.uniform(-1, 1, (4, 7))), tmp_path / "qt.sim")
        write_similarity(SimilarityMatrix(rng.uniform(-1, 1, (4, 3))), tmp_path / "qb.sim")
        fits = []
        monkeypatch.setattr(cli.sinkhorn, "dbsn_hubness", lambda *args: fits.append(args))
        out = tmp_path / "o.sim"
        assert main(["normalize", "--input", str(tmp_path / "s.sim"), "--method", "dbsn",
                     "--bank-targets-sim", str(tmp_path / "qt.sim"), "--bank-bank-sim", str(tmp_path / "qb.sim"),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert {"6", "7"} <= set(re.findall(r"\d+", err))
        assert str(tmp_path / "s.sim") in err and str(tmp_path / "qt.sim") in err
        assert fits == []  # refused from the headers, before the fit
        assert not out.exists()

    @pytest.mark.parametrize("method", [
        ["--method", "dis", "--bank-targets-sim", "qt"],
        ["--method", "dualis", "--bank-targets-sim", "qt6", "--tbank-targets-sim", "qt"],
    ], ids=["dis", "dualis"])
    def test_bank_column_mismatch_is_refused_from_headers(self, tmp_path, capsys, monkeypatch, method):
        rng = np.random.default_rng(37)
        write_similarity(SimilarityMatrix(rng.uniform(-1, 1, (5, 6))), tmp_path / "s.sim")
        write_similarity(SimilarityMatrix(rng.uniform(-1, 1, (4, 6))), tmp_path / "qt6.sim")
        write_similarity(SimilarityMatrix(rng.uniform(-1, 1, (4, 7))), tmp_path / "qt.sim")
        reads = []
        monkeypatch.setattr(cli.io, "read_similarity", lambda path: reads.append(path))
        out = tmp_path / "o.sim"
        argv = ["normalize", "--input", str(tmp_path / "s.sim"), "--out", str(out)]
        argv += [str(tmp_path / f"{flag}.sim") if flag.startswith("qt") else flag for flag in method]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert {"6", "7"} <= set(re.findall(r"\d+", err))
        assert str(tmp_path / "s.sim") in err and str(tmp_path / "qt.sim") in err
        assert reads == []  # refused from the headers, before any matrix is read
        assert not out.exists()

    def test_bank_row_mismatch_is_refused_from_headers(self, tmp_path, capsys, monkeypatch):
        rng = np.random.default_rng(38)
        write_similarity(SimilarityMatrix(rng.uniform(-1, 1, (5, 6))), tmp_path / "s.sim")
        write_similarity(SimilarityMatrix(rng.uniform(-1, 1, (4, 6))), tmp_path / "bq_t.sim")
        write_similarity(SimilarityMatrix(rng.uniform(-1, 1, (3, 7))), tmp_path / "bq_bt.sim")
        reads = []
        monkeypatch.setattr(cli.io, "read_similarity", lambda path: reads.append(path))
        out = tmp_path / "o.sim"
        assert main(["normalize", "--input", str(tmp_path / "s.sim"), "--out", str(out), "--method", "dbsn",
                     "--bank-targets-sim", str(tmp_path / "bq_t.sim"),
                     "--bank-bank-sim", str(tmp_path / "bq_bt.sim")]) == 2
        err = capsys.readouterr().err
        assert {"4", "3"} <= set(re.findall(r"\d+", err))
        assert str(tmp_path / "bq_t.sim") in err and str(tmp_path / "bq_bt.sim") in err
        assert reads == []  # refused from the headers, before any matrix is read
        assert not out.exists()

    @pytest.mark.parametrize("method", [
        ["--method", "dis", "--bank-targets-sim", "bq_t"],
        ["--method", "dualis", "--bank-targets-sim", "bq_t", "--tbank-targets-sim", "bt_t"],
    ], ids=["dis", "dualis"])
    def test_exp_overflow_prints_only_the_refusal(self, tmp_path, capsys, method):
        assert main(_synth_args(tmp_path, seed=3, banks=True)) == 0
        for rows, name in (("q", "raw"), ("bq", "bq_t"), ("bt", "bt_t")):
            assert main(["sim", "--queries", str(tmp_path / f"{rows}.emb"),
                         "--targets", str(tmp_path / "t.emb"), "--out", str(tmp_path / f"{name}.sim")]) == 0
        raw = read_similarity(tmp_path / "raw.sim")
        write_similarity(raw.with_values(raw.values * 1e6), tmp_path / "big.sim")
        out = tmp_path / "o.sim"
        argv = ["normalize", "--input", str(tmp_path / "big.sim"), "--out", str(out)]
        argv += [str(tmp_path / f"{flag}.sim") if flag in ("bq_t", "bt_t") else flag for flag in method]
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert main(argv) == 2
        assert [str(w.message) for w in seen] == []
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("hubkit: error:")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--iters", "--tau", "--tau1", "--tau2"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_non_positive_solver_flags_are_usage_errors(self, tmp_path, flag, value):
        sim = tmp_path / "s.sim"
        write_similarity(SimilarityMatrix(np.eye(4)), sim)
        code = main(["normalize", "--input", str(sim), "--method", "sn",
                     flag, value, "--out", str(tmp_path / "o.sim")])
        assert code == 1
        assert not (tmp_path / "o.sim").exists()

    def test_non_positive_k_flags_are_usage_errors(self, tmp_path):
        sim = tmp_path / "s.sim"
        write_similarity(SimilarityMatrix(np.eye(4)), sim)
        write_ground_truth(GroundTruth.identity(4), tmp_path / "gt.txt")
        out = str(tmp_path / "o.txt")
        assert main(["diagnose", "--sim", str(sim), "--k", "0", "--out", out]) == 1
        assert main(["evaluate", "--sim", str(sim), "--gt", str(tmp_path / "gt.txt"),
                     "--skew-k", "0", "--out", out]) == 1
        assert main(["sweep-tau", "--sim", str(sim), "--gt", str(tmp_path / "gt.txt"),
                     "--iters", "0", "--out", out]) == 1

    @pytest.mark.parametrize(
        ("flag", "value"),
        [
            ("--pairs", "0"), ("--pairs", "-1"), ("--dim", "0"), ("--dim", "2.5"),
            ("--noise", "-1"), ("--noise", "nan"), ("--gap", "-0.5"), ("--gap", "inf"),
            ("--bank-shift", "-1"), ("--hub-fraction", "1.5"), ("--hub-strength", "-0.1"),
            ("--hub-strength", "nan"), ("--seed", "-1"),
        ],
    )
    def test_out_of_range_synth_flags_are_usage_errors(self, tmp_path, flag, value):
        assert main(_synth_args(tmp_path) + [flag, value]) == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["emd", "banksweep"])
    @pytest.mark.parametrize(("flag", "value"), [("--subsample", "0"), ("--repeats", "0"), ("--seed", "-1")])
    def test_out_of_range_emd_flags_are_usage_errors(self, tmp_path, command, flag, value):
        emb = str(tmp_path / "missing.emb")  # never read: the flag fails first
        files = {
            "emd": ["--x", emb, "--y", emb],
            "banksweep": [
                "--queries", emb, "--targets", emb, "--gt", str(tmp_path / "gt.txt"),
                "--bank-queries", emb, "--bank-targets", emb, "--out", str(tmp_path / "b.tsv"),
            ],
        }[command]
        assert main([command, *files, flag, value]) == 1

    @pytest.mark.parametrize("value", ["0", "-1", "nan"])
    def test_non_positive_l2n_coeff_is_usage_error(self, tmp_path, value):
        sim = tmp_path / "s.sim"
        write_similarity(SimilarityMatrix(np.eye(4)), sim)
        code = main(["normalize", "--input", str(sim), "--method", "l2n",
                     "--coeff", value, "--out", str(tmp_path / "o.sim")])
        assert code == 1
        assert not (tmp_path / "o.sim").exists()

    def test_list_flag_entries_out_of_range_are_usage_errors(self, tmp_path):
        sim = tmp_path / "s.sim"
        write_similarity(SimilarityMatrix(np.eye(4)), sim)
        write_ground_truth(GroundTruth.identity(4), tmp_path / "gt.txt")
        gt, out = str(tmp_path / "gt.txt"), str(tmp_path / "o.txt")
        for Ks in ("0", "1,0", "-5"):
            assert main(["evaluate", "--sim", str(sim), "--gt", gt, "--Ks", Ks, "--out", out]) == 1
        for taus in ("0", "0.1,-0.1", "nan"):
            assert main(["sweep-tau", "--sim", str(sim), "--gt", gt, "--taus", taus, "--out", out]) == 1
        for fractions in ("0", "0.5,1.5", ","):
            emb = str(tmp_path / "missing.emb")  # never read: the flag fails first
            assert main(["banksweep", "--queries", emb, "--targets", emb, "--gt", gt,
                         "--bank-queries", emb, "--bank-targets", emb,
                         "--fractions", fractions, "--out", out]) == 1
        assert not (tmp_path / "o.txt").exists()
        # a K beyond the file's columns is a property of the data
        assert main(["evaluate", "--sim", str(sim), "--gt", gt, "--Ks", "5", "--out", out]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.001"])
    def test_invalid_eps_rel_is_usage_error(self, tmp_path, value):
        sim = tmp_path / "s.sim"
        write_similarity(SimilarityMatrix(np.eye(4)), sim)
        out = tmp_path / "d.tsv"
        assert main(["diagnose", "--sim", str(sim), "--eps-rel", value, "--out", str(out)]) == 1
        assert not out.exists()
        assert main(["diagnose", "--sim", str(sim), "--eps-rel", "0", "--out", str(out)]) == 0

    def test_ground_truth_index_beyond_int64_is_data_error(self, tmp_path, capsys):
        sim = tmp_path / "s.sim"
        write_similarity(SimilarityMatrix(np.eye(3)), sim)
        gt = tmp_path / "gt.txt"
        gt.write_text("0\n1\n99999999999999999999\n")
        assert main(["evaluate", "--sim", str(sim), "--gt", str(gt),
                     "--Ks", "1", "--out", str(tmp_path / "r.json")]) == 2
        assert "query 2" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_malformed_ground_truth_is_data_error(self, tmp_path):
        sim = tmp_path / "s.sim"
        write_similarity(SimilarityMatrix(np.eye(2)), sim)
        gt = tmp_path / "gt.txt"
        gt.write_text("0\nnot-an-index\n")
        assert main(["evaluate", "--sim", str(sim), "--gt", str(gt),
                     "--Ks", "1", "--out", str(tmp_path / "r.json")]) == 2

    def test_non_utf8_ground_truth_is_data_error(self, tmp_path, capsys):
        sim = tmp_path / "raw.sim"
        write_similarity(SimilarityMatrix(np.eye(2)), sim)
        # the similarity file itself is not UTF-8 text
        assert main(["evaluate", "--sim", str(sim), "--gt", str(sim),
                     "--Ks", "1", "--out", str(tmp_path / "r.json")]) == 2
        assert str(sim) in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_values_beyond_float32_are_data_error(self, tmp_path, capsys):
        assert main(_synth_args(tmp_path, seed=3, banks=True, bank_shift=0.3)) == 0
        for rows, cols, name in (("q", "t", "raw"), ("bq", "t", "bq_t"), ("bt", "t", "bt_t")):
            assert main(["sim", "--queries", str(tmp_path / f"{rows}.emb"),
                         "--targets", str(tmp_path / f"{cols}.emb"), "--out", str(tmp_path / f"{name}.sim")]) == 0
        out = tmp_path / "dualis.sim"
        assert main(["normalize", "--input", str(tmp_path / "raw.sim"), "--method", "dualis",
                     "--tau1", "0.002", "--tau2", "0.002", "--bank-targets-sim", str(tmp_path / "bq_t.sim"),
                     "--tbank-targets-sim", str(tmp_path / "bt_t.sim"), "--out", str(out)]) == 2
        assert "not finite in float32" in capsys.readouterr().err
        assert not out.exists()

    def test_unconverged_l2n_plan_is_data_error(self, tmp_path, capsys, monkeypatch):
        # The real solver held to one Newton step at coeff 1e4 stops far off
        # the uniform marginals.
        monkeypatch.setattr(cli.variants, "l2n", functools.partial(cli.variants.l2n, max_sweeps=1))
        sim = tmp_path / "s.sim"
        write_similarity(SimilarityMatrix(np.random.default_rng(34).uniform(-1, 1, (2, 3))), sim)
        out = tmp_path / "l2n.sim"
        assert main(["normalize", "--input", str(sim), "--method", "l2n", "--coeff", "10000", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "did not converge" in err and "marginal violation" in err and "sweeps" in err
        assert not out.exists()

    def test_l2n_at_large_coeff_writes_a_feasible_plan(self, tmp_path):
        sim = tmp_path / "s.sim"
        write_similarity(SimilarityMatrix(np.random.default_rng(34).uniform(-1, 1, (2, 3))), sim)
        out = tmp_path / "l2n.sim"
        assert main(["normalize", "--input", str(sim), "--method", "l2n", "--coeff", "10000", "--out", str(out)]) == 0
        pi = read_similarity(out).values
        assert np.all(pi >= 0.0)
        np.testing.assert_allclose(pi.sum(axis=1), 1 / 2, atol=1e-7)
        np.testing.assert_allclose(pi.sum(axis=0), 1 / 3, atol=1e-7)

    def test_help_returns_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "synth" in capsys.readouterr().out


class TestMemory:
    def test_dbsn_holds_its_banks_at_file_precision(self, tmp_path):
        """The fit's peak is its float64 kernel over [targets | target bank]
        plus the two banks as float32; float64 copies of the banks would add
        the banks' size twice over."""
        rng = np.random.default_rng(38)
        m = n = nb = 400
        for name, shape in (("s", (m, n)), ("qt", (m, n)), ("qb", (m, nb))):
            write_similarity(SimilarityMatrix(rng.uniform(-1, 1, shape)), tmp_path / f"{name}.sim")
        argv = ["normalize", "--input", str(tmp_path / "s.sim"), "--method", "dbsn",
                "--bank-targets-sim", str(tmp_path / "qt.sim"), "--bank-bank-sim", str(tmp_path / "qb.sim"),
                "--out", str(tmp_path / "o.sim")]
        assert main(argv) == 0  # first-call allocations (parser caches) out of the way
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kernel = m * (n + nb) * 8
        banks = m * (n + nb) * 4
        assert peak < 1.1 * (kernel + banks)


_SRC = str(Path(hk.__file__).resolve().parents[1])
_POOL_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _run_python(code: str, cwd, **env_vars) -> str:
    """Run ``code`` in a fresh interpreter that imports hubkit from this
    source tree, with no thread-pool variable set except ``env_vars``."""
    env = {k: v for k, v in os.environ.items() if k not in _POOL_VARS + ("HUBKIT_THREADS",)}
    env.update(env_vars, PYTHONPATH=_SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestBlasThreads:
    """Importing hubkit leaves numpy's OpenBLAS one thread, so the block pool
    is the only parallelism and no result depends on the BLAS thread count."""

    _THREADS = """
import json
import numpy
import hubkit
from hubkit import core
get_num_threads = core._openblas_call(core._numpy_blas(), "get_num_threads")
print(json.dumps(None if get_num_threads is None else get_num_threads()))
"""

    @pytest.mark.parametrize("env_vars", [{"OPENBLAS_NUM_THREADS": "2"}, {"HUBKIT_THREADS": "2"}, {}])
    def test_openblas_runs_one_thread_after_import(self, tmp_path, env_vars):
        threads = json.loads(_run_python(self._THREADS, tmp_path, **env_vars))
        if threads is None:
            pytest.skip("numpy's BLAS is not OpenBLAS")
        assert threads == 1

    def test_import_succeeds_without_openblas(self, tmp_path):
        code = """
import ctypes, importlib
import hubkit
from hubkit import core
numpy_blas = core._numpy_blas
core._numpy_blas = lambda: ctypes.CDLL(None)  # a library without OpenBLAS's calls
importlib.reload(hubkit)
core._numpy_blas = numpy_blas
def refuse(*args, **kwargs):
    raise OSError("cannot open")
ctypes.CDLL = refuse  # numpy's module cannot be opened
importlib.reload(hubkit)
print(hubkit.cosine_similarity_matrix(hubkit.EmbeddingSet([[1.0]]), hubkit.EmbeddingSet([[2.0]])).values[0, 0])
"""
        assert _run_python(code, tmp_path).split() == ["2.0"]

    # bank-stream's DBSN fit (its row update K @ w is 250 x 8250) and SN at
    # 1100 x 1000, where a threaded OpenBLAS rounds a few row sums apart
    _RESULTS = """
import hashlib
import numpy
import hubkit as hk
Q, T, _ = hk.generate_paired(hk.SynthConfig(dim=256, n_pairs=8000, seed=0))
bq, bt = hk.generate_banks(hk.SynthConfig(dim=256, n_pairs=250, seed=0, bank_shift=0.1))
h = hk.dbsn_hubness(hk.cosine_similarity_matrix(bq, T), hk.cosine_similarity_matrix(bq, bt))
S = hk.cosine_similarity_matrix(hk.EmbeddingSet(Q.data[:1100]), hk.EmbeddingSet(T.data[:1000]))
for values in (h.values, hk.sn_normalize(S).values):
    print(hashlib.sha256(values.tobytes()).hexdigest())
"""

    def test_results_do_not_depend_on_blas_threads(self, tmp_path):
        one, two = (_run_python(self._RESULTS, tmp_path, OPENBLAS_NUM_THREADS=t) for t in ("1", "2"))
        assert one.split() == two.split()


class TestStartup:
    def test_import_leaves_the_environment_alone(self, tmp_path):
        """HUBKIT_THREADS caps hubkit's block pool only: importing hubkit
        sets no other library's thread-pool variable."""
        code = """
import json, os
before = dict(os.environ)
import hubkit.cli
after = dict(os.environ)
print(json.dumps({k: [before.get(k), after.get(k)] for k in before.keys() | after.keys() if before.get(k) != after.get(k)}))
"""
        assert json.loads(_run_python(code, tmp_path, HUBKIT_THREADS="2")) == {}

    def test_file_subcommands_never_load_numpy_random(self, tmp_path):
        """Only synth, emd and banksweep draw random numbers; loading
        numpy.random also loads hashlib and OpenSSL."""
        cfg = hk.SynthConfig(n_pairs=30, dim=8)
        Q, T, gt = hk.generate_paired(cfg)
        for name, emb in zip(("q", "t", "bq", "bt"), (Q, T, *hk.generate_banks(cfg))):
            hk.write_embeddings(emb, tmp_path / f"{name}.emb")
        write_ground_truth(gt, tmp_path / "gt.txt")
        code = """
import sys
from hubkit.cli import main
steps = [
    ["sim", "--queries", "q.emb", "--targets", "t.emb", "--out", "raw.sim"],
    ["sim", "--queries", "bq.emb", "--targets", "t.emb", "--out", "bq_t.sim"],
    ["sim", "--queries", "bq.emb", "--targets", "bt.emb", "--out", "bq_bt.sim"],
    ["normalize", "--input", "raw.sim", "--method", "is", "--bank-targets-sim", "bq_t.sim", "--out", "is.sim"],
    ["normalize", "--input", "raw.sim", "--method", "sn", "--out", "sn.sim"],
    ["normalize", "--input", "raw.sim", "--method", "dbsn", "--bank-targets-sim", "bq_t.sim",
     "--bank-bank-sim", "bq_bt.sim", "--out", "dbsn.sim"],
    ["evaluate", "--sim", "dbsn.sim", "--gt", "gt.txt", "--skew-k", "3", "--out", "r.json"],
    ["diagnose", "--sim", "sn.sim", "--k", "3", "--out", "d.tsv"],
]
for argv in steps:
    print(argv[0], main(argv), "numpy.random" in sys.modules)
"""
        lines = _run_python(code, tmp_path).splitlines()
        assert lines == [f"{cmd} 0 False" for cmd in ["sim"] * 3 + ["normalize"] * 3 + ["evaluate", "diagnose"]]

    def test_numpy_only_subcommands_never_load_scipy(self, tmp_path):
        code = """
import sys
import hubkit
print("import", "scipy" in sys.modules)
from hubkit.cli import main
steps = [
    ["synth", "--pairs", "30", "--dim", "8", "--out-queries", "q.emb", "--out-targets", "t.emb",
     "--out-gt", "gt.txt", "--out-bank-queries", "bq.emb", "--out-bank-targets", "bt.emb"],
    ["sim", "--queries", "q.emb", "--targets", "t.emb", "--out", "raw.sim"],
    ["sim", "--queries", "bq.emb", "--targets", "t.emb", "--out", "bq_t.sim"],
    ["sim", "--queries", "bq.emb", "--targets", "bt.emb", "--out", "bq_bt.sim"],
    ["sim", "--queries", "bt.emb", "--targets", "t.emb", "--out", "bt_t.sim"],
    ["normalize", "--input", "raw.sim", "--method", "none", "--out", "none.sim"],
    ["normalize", "--input", "raw.sim", "--method", "is", "--out", "is.sim"],
    ["normalize", "--input", "raw.sim", "--method", "is", "--bank-targets-sim", "bq_t.sim", "--out", "isb.sim"],
    ["normalize", "--input", "raw.sim", "--method", "dis", "--bank-targets-sim", "bq_t.sim", "--out", "dis.sim"],
    ["normalize", "--input", "raw.sim", "--method", "dualis", "--bank-targets-sim", "bq_t.sim",
     "--tbank-targets-sim", "bt_t.sim", "--out", "dualis.sim"],
    ["normalize", "--input", "raw.sim", "--method", "sn", "--out", "sn.sim"],
    ["normalize", "--input", "raw.sim", "--method", "sn", "--bank-targets-sim", "bq_t.sim", "--out", "snb.sim"],
    ["normalize", "--input", "raw.sim", "--method", "dbsn", "--bank-targets-sim", "bq_t.sim",
     "--bank-bank-sim", "bq_bt.sim", "--out", "dbsn.sim"],
    ["evaluate", "--sim", "dbsn.sim", "--gt", "gt.txt", "--skew-k", "3", "--out", "r.json"],
    ["diagnose", "--sim", "sn.sim", "--k", "3", "--out", "d.tsv"],
    ["sweep-tau", "--sim", "raw.sim", "--gt", "gt.txt", "--taus", "0.1,0.02", "--out", "sweep.tsv"],
]
print("codes", [main(argv) for argv in steps])
print("pipeline", "scipy" in sys.modules)
"""
        out = _run_python(code, tmp_path).split("\n")
        assert out[:3] == ["import False", f"codes {[0] * 16}", "pipeline False"]
