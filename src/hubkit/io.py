"""Binary file formats and the report document.

EMB1 (embeddings): magic ``EMB1``, then rows and dim as unsigned 32-bit
little-endian integers, then rows*dim IEEE-754 float32 little-endian values
in row-major order.  SIM1 (similarity matrices) is identical with magic
``SIM1`` and a rows/cols header.  Values are float32 on disk.  SIM1 values
stay float32 in memory, read straight into the matrix's own array; every
kernel computes in float64.  EMB1 values are widened to float64 on reading,
so the cosine product runs in float64.  A write-then-read round trip is
bit-exact at single precision.
Writers raise ``NonFiniteInput``, and write nothing, when a value is NaN,
infinite, or beyond float32's range.  They stream the header and then the
float32 buffer itself to the file, so a write holds one float32 copy of the
values and no joined byte string.

Readers validate before returning anything: wrong magic, truncated payloads,
oversized payloads, and zero-size headers are all hard errors naming the
file and the byte offset where the problem sits.  A regular file's size is
checked against its header before any value is read.
"""

import json
import os
import stat
import struct

import numpy as np

from .core import EmbeddingSet, SimilarityMatrix, _all_finite, l2_normalize
from .errors import BadMagic, DataError, FileFormatError, IoFailure, NonFiniteInput, SizeMismatch, TruncatedFile
from .retrieval import GroundTruth, RetrievalReport

_HEADER = struct.Struct("<4sII")


def _read_file(path, read=lambda fh: fh.read()):
    """``read(fh)`` of ``path`` opened for binary reading; the whole file's
    bytes by default."""
    try:
        with open(path, "rb") as fh:
            return read(fh)
    except FileFormatError:  # an OSError too: ``read`` found the format wrong
        raise
    except OSError as exc:
        raise IoFailure(path, str(exc)) from exc


def _write_file(path, *chunks) -> None:
    """Write the bytes-like ``chunks`` to ``path``, in order, with no joined copy."""
    try:
        with open(path, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
    except OSError as exc:
        raise IoFailure(path, str(exc)) from exc


def _check_payload(path, payload: int, rows: int, cols: int) -> None:
    """Refuse a payload of ``payload`` bytes that is not the ``rows x cols`` header's."""
    expected = rows * cols * 4
    if payload < expected:
        raise TruncatedFile(
            path,
            f"payload has {payload} bytes, header {rows}x{cols} needs {expected}",
            offset=_HEADER.size + payload,
        )
    if payload > expected:
        raise SizeMismatch(
            path,
            f"payload has {payload} bytes, header {rows}x{cols} allows {expected}",
            offset=_HEADER.size + expected,
        )


def _read_header(fh, path, magic: bytes) -> tuple[int, int]:
    """Rows and columns from the header of the EMB1/SIM1 file open as ``fh``,
    once the header and, for a regular file, the payload size are validated;
    ``fh`` is left at the payload."""
    head = fh.read(_HEADER.size)
    if len(head) < _HEADER.size:
        if len(head) < 4 or head[:4] != magic:
            raise BadMagic(path, f"expected magic {magic!r}", offset=0)
        raise TruncatedFile(path, "incomplete header", offset=len(head))
    got_magic, rows, cols = _HEADER.unpack(head)
    if got_magic != magic:
        raise BadMagic(path, f"expected magic {magic!r}, found {got_magic!r}", offset=0)
    if rows == 0 or cols == 0:
        raise SizeMismatch(path, f"header declares {rows}x{cols}", offset=4)
    info = os.fstat(fh.fileno())
    if stat.S_ISREG(info.st_mode):
        _check_payload(path, info.st_size - _HEADER.size, rows, cols)
    return rows, cols


def _read_matrix(path, magic: bytes) -> np.ndarray:
    """The float32 payload of an EMB1/SIM1 file, read into a fresh array."""

    def read(fh):
        rows, cols = _read_header(fh, path, magic)
        values = np.empty((rows, cols), dtype="<f4")
        buf = memoryview(values).cast("B")
        got = 0
        while got < buf.nbytes and (step := fh.readinto(buf[got:])):
            got += step
        _check_payload(path, got + len(fh.read()), rows, cols)
        return values

    return _read_file(path, read)


def _write_matrix(path, magic: bytes, values: np.ndarray) -> None:
    rows, cols = values.shape
    with np.errstate(over="ignore"):
        data = np.ascontiguousarray(values, dtype="<f4")
    if not _all_finite(data):
        bad = data.size - np.count_nonzero(np.isfinite(data))
        raise NonFiniteInput(f"{path}: {bad} of {data.size} values are not finite in float32; nothing written")
    _write_file(path, _HEADER.pack(magic, rows, cols), memoryview(data).cast("B"))


def read_embeddings(path, renormalize: bool = False) -> EmbeddingSet:
    """Load an EMB1 file.

    ``renormalize=True`` rescales rows to exact unit norm, absorbing the
    float32 quantization of a previous write; see :func:`norm_deviation` for
    how far off the stored rows are.
    """
    data = _read_matrix(path, b"EMB1")
    if renormalize:
        return l2_normalize(data)
    return EmbeddingSet(data, _adopt=True)


def write_embeddings(emb: EmbeddingSet, path) -> None:
    _write_matrix(path, b"EMB1", emb.data)


def norm_deviation(emb: EmbeddingSet) -> float:
    """Largest |row norm - 1| in the set."""
    return float(np.abs(np.linalg.norm(emb.data, axis=1) - 1.0).max())


def read_similarity(path) -> SimilarityMatrix:
    """Load a SIM1 file; its values stay float32 (see :mod:`hubkit.core`)."""
    return SimilarityMatrix(_read_matrix(path, b"SIM1"), _adopt=True)


def similarity_shape(path) -> tuple[int, int]:
    """Rows and columns of a SIM1 file, validated as :func:`read_similarity`
    validates the file, without reading its values."""
    return _read_file(path, lambda fh: _read_header(fh, path, b"SIM1"))


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
        text = json.dumps(doc, indent=2) + "\n"
    except TypeError as exc:
        raise IoFailure(path, str(exc)) from exc
    _write_file(path, text.encode("utf-8"))


def read_ground_truth(path) -> GroundTruth:
    """Parse a text file with one line of comma-separated target indices per
    query; blank lines are skipped.

    Lines end at LF, CRLF or CR.  A file that is not UTF-8, or a line that
    is not a comma-separated list of ASCII decimal digit runs (spaces around
    the commas allowed), raises ``DataError`` naming the file (and the
    1-based line number).
    """
    try:
        text = _read_file(path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} (byte {exc.start}): not UTF-8 text") from exc
    pairs = []
    for number, line in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        # int() would also take "1_0", "+2", "-0" and non-ASCII digits
        parts = [part.strip() for part in line.split(",")]
        if not all(part.isascii() and part.isdigit() for part in parts):
            raise DataError(f"{path} (line {number}): expected nonnegative target indices, got {line!r}")
        pairs.append([int(part) for part in parts])
    return GroundTruth(pairs)


def write_ground_truth(gt: GroundTruth, path) -> None:
    """Write one line per query: its target indices, ascending, comma-joined."""
    text = "".join(",".join(map(str, row)) + "\n" for row in gt._rows())
    _write_file(path, text.encode("utf-8"))
