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

from hochhom import cohomology
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
    # Past the wrap-around: block key coordinates reach the order 12, so keys
    # in one residue class with different values appear.
    "hh-semiclassical-2-12-5-wrap": [
        "hh", "--config", "semiclassical(2,12,5)", "--wmin", "8", "--wmax", "12"
    ],
    "hh-mixed-minimal-12-wrap": [
        "hh", "--config", "mixed-minimal(12)", "--wmin", "24", "--wmax", "26"
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
    # Dimensions only: the path that computes no kernels or representatives.
    "hh-dims-weyl-3": ["hh", "--config", "weyl(3)", "--wmin", "-6", "--wmax", "-1"],
    "hh-dims-mixed-minimal-12": [
        "hh", "--config", "mixed-minimal(12)", "--wmin", "-3", "--wmax", "13"
    ],
}


def _argv(name: str) -> list[str]:
    argv = CASES[name] + ["--format", "json"]
    if argv[0] == "hh" and not name.startswith("hh-dims-"):
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


@pytest.mark.parametrize("name", sorted(name for name in CASES if name.startswith("cohh-")))
def test_cohh_output_needs_no_duality_check(name, monkeypatch):
    """cohh labels r = n degrees ``duality`` from the row-product theorem, not from a run check."""

    def refuse(*args, **kwargs):
        raise AssertionError("cohh ran the duality comparison")

    for attr in ("duality_identity_check", "Delta_apply"):
        monkeypatch.setattr(cohomology, attr, refuse)
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
