"""End-to-end checks of the command line against the library."""

import filecmp
import json

import numpy as np
import pytest

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

    def test_malformed_ground_truth_is_data_error(self, tmp_path):
        sim = tmp_path / "s.sim"
        write_similarity(SimilarityMatrix(np.eye(2)), sim)
        gt = tmp_path / "gt.txt"
        gt.write_text("0\nnot-an-index\n")
        assert main(["evaluate", "--sim", str(sim), "--gt", str(gt),
                     "--Ks", "1", "--out", str(tmp_path / "r.json")]) == 2

    def test_help_returns_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "synth" in capsys.readouterr().out
