"""The README's CLI pipeline, run in process, writes the recorded bytes.

``tests/data/pipeline.sha256`` holds one ``<sha256>  <file>`` line per
output of ``tools/cli_digests.py``'s pipeline, under a header naming the
OpenBLAS core it was recorded on.  To re-record it after a change that
alters an output on purpose, replace the lines with those that
``python tools/cli_digests.py --src src`` prints, and the header's core
with this machine's (see :func:`_openblas_core`).
"""

import contextlib
import ctypes
import importlib.util
from pathlib import Path

import pytest

from hubkit import core
from hubkit.cli import main

_ROOT = Path(__file__).resolve().parents[1]
_RECORDED = Path(__file__).with_name("data") / "pipeline.sha256"
_CORE_HEADER = "# OpenBLAS core: "

_spec = importlib.util.spec_from_file_location("cli_digests", _ROOT / "tools" / "cli_digests.py")
cli_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_digests)


def _openblas_core() -> str:
    """The OpenBLAS kernel set numpy runs on, or "none" for another BLAS."""
    corename = core._openblas_call(core._numpy_blas(), "get_corename")
    if corename is None:
        return "none"
    corename.restype = ctypes.c_char_p
    return corename().decode()


def _recorded() -> tuple[str, dict[str, str]]:
    """The recorded core and the recorded digest of each output, by name."""
    header, *lines = _RECORDED.read_text().splitlines()
    assert header.startswith(_CORE_HEADER)
    return header[len(_CORE_HEADER):], {name: digest for digest, name in (line.split() for line in lines)}


def _blas_dependent(name: str) -> bool:
    """SIM1 and EMB1 bytes and emd's printed values depend on the BLAS
    kernels; every other output is derived from rankings."""
    return name.endswith((".sim", ".emb")) or name in cli_digests._PRINTED


def test_pipeline_outputs_match_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for run in cli_digests._pipeline():
        assert main(run) == 0, run
    for name, run in cli_digests._PRINTED.items():
        with open(name, "w") as out, contextlib.redirect_stdout(out):
            assert main(run) == 0, run
    recorded_core, recorded = _recorded()
    digests = cli_digests._digests(tmp_path)
    assert sorted(digests) == sorted(recorded)

    differ = [name for name in recorded if not _blas_dependent(name) and digests[name] != recorded[name]]
    assert not differ, f"ranking-derived outputs differ from the recorded digests: {differ}"
    machine_core = _openblas_core()
    if machine_core != recorded_core:
        pytest.skip(f"SIM1/EMB1 and emd digests were recorded on OpenBLAS core {recorded_core}, "
                    f"this machine runs {machine_core}")
    differ = [name for name in recorded if digests[name] != recorded[name]]
    assert not differ, f"outputs differ from the recorded digests: {differ}"
