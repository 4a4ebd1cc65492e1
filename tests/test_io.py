"""Binary embedding/similarity formats and the JSON report document."""

import json
import struct

import numpy as np
import pytest

from hubkit import (
    BadMagic,
    DataError,
    EmbeddingSet,
    GroundTruth,
    IoFailure,
    RetrievalReport,
    Role,
    SimilarityMatrix,
    SizeMismatch,
    TruncatedFile,
    evaluate,
    norm_deviation,
    read_embeddings,
    read_ground_truth,
    read_similarity,
    write_embeddings,
    write_ground_truth,
    write_report,
    write_similarity,
)

_HEADER = struct.Struct("<4sII")


def _f32(x):
    return np.asarray(x, dtype=np.float32).astype(np.float64)


class TestEmbeddingFiles:
    def test_round_trip_exact_at_single_precision(self, tmp_path):
        rng = np.random.default_rng(56)
        data = _f32(rng.standard_normal((10, 8)))
        path = tmp_path / "e.emb"
        write_embeddings(EmbeddingSet(data), path)
        back = read_embeddings(path)
        np.testing.assert_array_equal(back.data, data)

    def test_read_back_is_float32_cast(self, tmp_path):
        rng = np.random.default_rng(57)
        data = rng.standard_normal((4, 3))
        path = tmp_path / "e.emb"
        write_embeddings(EmbeddingSet(data), path)
        np.testing.assert_array_equal(read_embeddings(path).data, _f32(data))

    def test_writes_are_byte_stable(self, tmp_path):
        rng = np.random.default_rng(58)
        emb = EmbeddingSet(rng.standard_normal((6, 5)))
        p1, p2 = tmp_path / "a.emb", tmp_path / "b.emb"
        write_embeddings(emb, p1)
        write_embeddings(emb, p2)
        assert p1.read_bytes() == p2.read_bytes()
        # rewriting what was read reproduces the file bit for bit
        p3 = tmp_path / "c.emb"
        write_embeddings(read_embeddings(p1), p3)
        assert p3.read_bytes() == p1.read_bytes()

    def test_renormalize_restores_unit_norm(self, tmp_path):
        rng = np.random.default_rng(59)
        raw = rng.standard_normal((20, 12))
        unit = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        path = tmp_path / "e.emb"
        write_embeddings(EmbeddingSet(unit), path)
        stored = read_embeddings(path)
        assert 0.0 < norm_deviation(stored) < 1e-6  # float32 quantization
        fixed = read_embeddings(path, renormalize=True)
        assert norm_deviation(fixed) <= 1e-12

    def test_role_assignment(self, tmp_path):
        path = tmp_path / "e.emb"
        write_embeddings(EmbeddingSet(np.ones((2, 2))), path)
        assert read_embeddings(path, role=Role.TARGET_BANK).role == Role.TARGET_BANK


class TestFormatValidation:
    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.emb"
        path.write_bytes(_HEADER.pack(b"EMB2", 1, 1) + b"\x00" * 4)
        with pytest.raises(BadMagic):
            read_embeddings(path)

    def test_similarity_magic_rejected_as_embeddings(self, tmp_path):
        path = tmp_path / "s.sim"
        write_similarity(SimilarityMatrix(np.ones((2, 2)) * 0.5), path)
        with pytest.raises(BadMagic):
            read_embeddings(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "t.emb"
        path.write_bytes(b"EMB1\x02")
        with pytest.raises(TruncatedFile):
            read_embeddings(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.emb"
        path.write_bytes(_HEADER.pack(b"EMB1", 2, 2) + b"\x00" * 10)
        with pytest.raises(TruncatedFile):
            read_embeddings(path)

    def test_zero_row_header(self, tmp_path):
        path = tmp_path / "z.emb"
        path.write_bytes(_HEADER.pack(b"EMB1", 0, 3))
        with pytest.raises(SizeMismatch):
            read_embeddings(path)

    def test_oversized_payload(self, tmp_path):
        path = tmp_path / "o.emb"
        path.write_bytes(_HEADER.pack(b"EMB1", 1, 1) + b"\x00" * 8)
        with pytest.raises(SizeMismatch):
            read_embeddings(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailure):
            read_embeddings(tmp_path / "nope.emb")

    def test_write_to_directory_fails(self, tmp_path):
        with pytest.raises(IoFailure):
            write_embeddings(EmbeddingSet(np.ones((1, 1))), tmp_path)


class TestSimilarityFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(60)
        values = _f32(rng.uniform(-1, 1, (3, 4)))
        path = tmp_path / "s.sim"
        write_similarity(SimilarityMatrix(values), path)
        back = read_similarity(path)
        np.testing.assert_array_equal(back.values, values)

    def test_evaluate_survives_round_trip(self, tmp_path):
        """Metrics of a quantized matrix are unchanged by write + read."""
        rng = np.random.default_rng(61)
        S = SimilarityMatrix(_f32(rng.uniform(-1, 1, (12, 12))))
        gt = GroundTruth.identity(12)
        path = tmp_path / "s.sim"
        write_similarity(S, path)
        before = evaluate(S, gt, Ks=[1, 5])
        after = evaluate(read_similarity(path), gt, Ks=[1, 5])
        assert before.r_at == after.r_at
        assert before.mdr == after.mdr
        assert before.mnr == after.mnr


class TestReportFiles:
    def test_perfect_retrieval_document(self, tmp_path):
        report = evaluate(SimilarityMatrix(np.eye(4)), GroundTruth.identity(4), Ks=[1])
        path = tmp_path / "r.json"
        write_report(report, path)
        doc = json.loads(path.read_text())
        assert doc["r_at"]["1"] == 100.0
        assert doc["mdr"] == 1.0 and doc["mnr"] == 1.0

    def test_absent_skewness_key_is_omitted(self, tmp_path):
        report = RetrievalReport(r_at={1: 50.0}, mdr=2.0, mnr=2.0)
        path = tmp_path / "r.json"
        write_report(report, path)
        doc = json.loads(path.read_text())
        assert "skewness" not in doc

    def test_field_round_trip(self, tmp_path):
        report = RetrievalReport(
            r_at={1: 10.0, 5: 40.0, 10: 70.0},
            mdr=7.0,
            mnr=12.5,
            skew=1.25,
            normalization="sn",
            params={"tau": 0.01, "max_iters": 10},
        )
        path = tmp_path / "r.json"
        write_report(report, path)
        doc = json.loads(path.read_text())
        assert doc["r_at"] == {"1": 10.0, "5": 40.0, "10": 70.0}
        assert doc["skewness"] == 1.25
        assert doc["normalization"] == "sn"
        assert doc["params"] == {"tau": 0.01, "max_iters": 10}

    def test_writes_are_byte_stable(self, tmp_path):
        report = RetrievalReport(r_at={1: 33.0}, mdr=3.0, mnr=4.5, skew=0.1)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_report(report, p1)
        write_report(report, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestGroundTruthFiles:
    def test_round_trip(self, tmp_path):
        gt = GroundTruth.from_indices([3, 1, 4, 1, 5])
        path = tmp_path / "gt.txt"
        write_ground_truth(gt, path)
        assert read_ground_truth(path).pairs == gt.pairs

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("2\n\n0\n")
        assert read_ground_truth(path).pairs == (frozenset({2}), frozenset({0}))

    def test_singleton_file_bytes(self, tmp_path):
        path = tmp_path / "gt.txt"
        write_ground_truth(GroundTruth.from_indices([3, 1, 10]), path)
        assert path.read_bytes() == b"3\n1\n10\n"

    def test_multi_target_round_trip(self, tmp_path):
        gt = GroundTruth((frozenset({4, 0, 2}), frozenset({1}), frozenset({7, 3})))
        path = tmp_path / "gt.txt"
        write_ground_truth(gt, path)
        assert path.read_text() == "0,2,4\n1\n3,7\n"
        assert read_ground_truth(path).pairs == gt.pairs

    def test_spaces_around_commas(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text(" 1, 2 \n0\n")
        assert read_ground_truth(path).pairs == (frozenset({1, 2}), frozenset({0}))

    @pytest.mark.parametrize("line", ["x", "1,", "1,,2", "2.5", "-1", "3,-4"])
    def test_bad_line_names_line_number(self, tmp_path, line):
        path = tmp_path / "gt.txt"
        path.write_text(f"0\n\n{line}\n1\n")
        with pytest.raises(DataError, match="line 3"):
            read_ground_truth(path)
