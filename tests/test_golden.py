"""Golden CLI outputs: stdout and exit code compared byte for byte.

The files under ``tests/golden/`` were recorded from the CLI and guard the
byte-identical output of refactors.  To re-record them after an intended
output change, run ``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import pathlib
import sys

import pytest

from hochhom.cli import run

GOLDEN = pathlib.Path(__file__).parent / "golden"

CASES = {
    "hh-weyl-2": ["hh", "--config", "weyl(2)", "--wmin", "-4", "--wmax", "0"],
    "hh-mixed-minimal-3": ["hh", "--config", "mixed-minimal(3)", "--wmin", "-3", "--wmax", "5"],
    "hh-semiclassical-2-4-1": [
        "hh", "--config", "semiclassical(2,4,1)", "--wmin", "-4", "--wmax", "0"
    ],
    "hh-free-3-0": ["hh", "--config", "free(3,0)", "--wmin", "-1", "--wmax", "2"],
    "hh-mixed-minimal-12": ["hh", "--config", "mixed-minimal(12)", "--wmin", "-3", "--wmax", "13"],
    "hh-semiclassical-2-12-5": [
        "hh", "--config", "semiclassical(2,12,5)", "--wmin", "-4", "--wmax", "0"
    ],
    # Signed rationals sharing the factor 6, so C depends on signs and on the
    # relation between -1/6 and -6.
    "hh-signed-rational-3-1": [
        "hh", "--config", str(GOLDEN / "hh-signed-rational-3-1.json"), "--wmin", "-4", "--wmax", "4"
    ],
    "cohh-mixed-minimal-3": ["cohh", "--config", "mixed-minimal(3)", "--trunc", "3"],
    "cohh-weyl-2": ["cohh", "--config", "weyl(2)", "--trunc", "2"],
    "cohh-semiclassical-2-4-1": ["cohh", "--config", "semiclassical(2,4,1)", "--trunc", "3"],
    "verify-mixed-minimal-2": [
        "verify", "--config", "mixed-minimal(2)", "--suite", "all", "--bound", "2"
    ],
    "verify-semiclassical-2-4-1": [
        "verify", "--config", "semiclassical(2,4,1)", "--suite", "all", "--bound", "2"
    ],
    "verify-complex-semiclassical-2-4-1": [
        "verify", "--config", "semiclassical(2,4,1)", "--suite", "complex", "--bound", "3"
    ],
    "oracle-free-2-1": ["oracle", "--config", "free(2,1)"],
}


def _argv(name: str) -> list[str]:
    argv = CASES[name] + ["--format", "json"]
    if argv[0] == "hh":
        argv.append("--representatives")
    return argv


def _capture(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    code, out = _capture(_argv(name))
    assert code == int((GOLDEN / f"{name}.exit").read_text())
    assert out == (GOLDEN / f"{name}.out").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(CASES):
        code, out = _capture(_argv(name))
        (GOLDEN / f"{name}.out").write_text(out)
        (GOLDEN / f"{name}.exit").write_text(f"{code}\n")
        print(f"{name}: exit {code}, {len(out)} bytes", file=sys.stderr)
