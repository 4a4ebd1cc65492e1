"""Binary file formats and the report document.

EMB1 (embeddings): magic ``EMB1``, then rows and dim as unsigned 32-bit
little-endian integers, then rows*dim IEEE-754 float32 little-endian values
in row-major order.  SIM1 (similarity matrices) is identical with magic
``SIM1`` and a rows/cols header.  Values are float32 on disk and float64 in
memory; a write-then-read round trip is bit-exact at single precision.

Readers validate before returning anything: wrong magic, truncated payloads,
oversized payloads, and zero-size headers are all hard errors naming the
file and the byte offset where the problem sits.
"""

import json
import struct

import numpy as np

from .core import EmbeddingSet, Role, SimilarityMatrix, l2_normalize
from .errors import BadMagic, DataError, IoFailure, SizeMismatch, TruncatedFile
from .retrieval import GroundTruth, RetrievalReport

_HEADER = struct.Struct("<4sII")


def _read_file(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise IoFailure(path, str(exc)) from exc


def _write_file(path, payload: bytes) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(payload)
    except OSError as exc:
        raise IoFailure(path, str(exc)) from exc


def _read_matrix(path, magic: bytes) -> np.ndarray:
    blob = _read_file(path)
    if len(blob) < _HEADER.size:
        if len(blob) < 4 or blob[:4] != magic:
            raise BadMagic(path, f"expected magic {magic!r}", offset=0)
        raise TruncatedFile(path, "incomplete header", offset=len(blob))
    got_magic, rows, cols = _HEADER.unpack_from(blob)
    if got_magic != magic:
        raise BadMagic(path, f"expected magic {magic!r}, found {got_magic!r}", offset=0)
    if rows == 0 or cols == 0:
        raise SizeMismatch(path, f"header declares {rows}x{cols}", offset=4)
    expected = rows * cols * 4
    payload = len(blob) - _HEADER.size
    if payload < expected:
        raise TruncatedFile(
            path,
            f"payload has {payload} bytes, header {rows}x{cols} needs {expected}",
            offset=len(blob),
        )
    if payload > expected:
        raise SizeMismatch(
            path,
            f"payload has {payload} bytes, header {rows}x{cols} allows {expected}",
            offset=_HEADER.size + expected,
        )
    values = np.frombuffer(blob, dtype="<f4", count=rows * cols, offset=_HEADER.size)
    return values.reshape(rows, cols).astype(np.float64)


def _write_matrix(path, magic: bytes, values: np.ndarray) -> None:
    rows, cols = values.shape
    payload = _HEADER.pack(magic, rows, cols) + np.ascontiguousarray(values, dtype="<f4").tobytes()
    _write_file(path, payload)


def read_embeddings(path, renormalize: bool = False, role: Role = Role.QUERY) -> EmbeddingSet:
    """Load an EMB1 file.

    ``renormalize=True`` rescales rows to exact unit norm, absorbing the
    float32 quantization of a previous write; see :func:`norm_deviation` for
    how far off the stored rows are.
    """
    data = _read_matrix(path, b"EMB1")
    if renormalize:
        return l2_normalize(data, role=role)
    return EmbeddingSet(data, role=role)


def write_embeddings(emb: EmbeddingSet, path) -> None:
    _write_matrix(path, b"EMB1", emb.data)


def norm_deviation(emb: EmbeddingSet) -> float:
    """Largest |row norm - 1| in the set."""
    return float(np.abs(np.linalg.norm(emb.data, axis=1) - 1.0).max())


def read_similarity(path, row_role: Role = Role.QUERY, col_role: Role = Role.TARGET) -> SimilarityMatrix:
    return SimilarityMatrix(_read_matrix(path, b"SIM1"), row_role=row_role, col_role=col_role)


def write_similarity(S: SimilarityMatrix, path) -> None:
    _write_matrix(path, b"SIM1", S.values)


def write_report(report: RetrievalReport, path) -> None:
    """Serialize a report as JSON with a stable key order.

    Keys: r_at (per-K percentages, keys are decimal strings), mdr, mnr,
    skewness (omitted entirely when absent), normalization, params.
    """
    doc: dict = {"r_at": {str(k): report.r_at[k] for k in sorted(report.r_at)}}
    doc["mdr"] = report.mdr
    doc["mnr"] = report.mnr
    if report.skew is not None:
        doc["skewness"] = report.skew
    doc["normalization"] = report.normalization
    doc["params"] = report.params
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    except (OSError, TypeError) as exc:
        raise IoFailure(path, str(exc)) from exc


def read_ground_truth(path) -> GroundTruth:
    """Parse a text file with one line of comma-separated target indices per
    query; blank lines are skipped.

    A line that is not a list of nonnegative integers raises ``DataError``
    naming the file and the 1-based line number.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.strip() for line in fh]
    except OSError as exc:
        raise IoFailure(path, str(exc)) from exc
    pairs = []
    for number, line in enumerate(lines, start=1):
        if not line:
            continue
        try:
            targets = [int(part) for part in line.split(",")]
            valid = min(targets) >= 0
        except ValueError:
            valid = False
        if not valid:
            raise DataError(f"{path} (line {number}): expected nonnegative target indices, got {line!r}")
        pairs.append(frozenset(targets))
    return GroundTruth(tuple(pairs))


def write_ground_truth(gt: GroundTruth, path) -> None:
    """Write one line per query: its target indices, ascending, comma-joined."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for pair in gt.pairs:
                fh.write(",".join(str(j) for j in sorted(pair)) + "\n")
    except OSError as exc:
        raise IoFailure(path, str(exc)) from exc
