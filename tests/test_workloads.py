"""Every op of the benchmark's workloads, run in process and checked as the benchmark checks it.

``perfbench/workloads.py`` builds each workload's ops and judges their
output; the benchmark reports a run whose ops fail that check as incorrect.
This runs the ops of every workload, defect ops included, at two seeds
through ``hochhom.cli.run``, so a change that would fail it fails here first.
Each report must also be laid out as ``json.dumps(report, indent=2)`` lays it
out, which checks the CLI's own JSON writer on every workload report.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from hochhom.cli import run


def _load_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


def call(argv: list[str]):
    """(exit code, or the exception's text when ``run`` raised, and the captured stdout)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run(argv)
    except Exception as exc:
        code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_ops_pass_the_benchmark_check(name, seed, tmp_path):
    load = workloads.build(name, seed, tmp_path)
    for path, doc in load.files.items():
        Path(path).write_text(json.dumps(doc))
    references = workloads.load_references()
    for op in load.ops:
        code, out = call(list(op.argv))
        reason = workloads.check_op(op, code, out, references)
        assert reason is None, f"{op.key}: {reason}"
        # The report writer lays out each report as json.dumps(indent=2) does.
        assert out == json.dumps(json.loads(out), indent=2) + "\n", op.key
    for op in load.defect_ops:
        assert workloads.defect_status(*call(list(op.argv))) != "wrong", op.key
