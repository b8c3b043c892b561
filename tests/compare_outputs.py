"""Compare the command-line outputs of this checkout with those of another checkout.

Usage: ``python tests/compare_outputs.py OTHER_CHECKOUT``

Every op and defect op of the benchmark's workloads (``perfbench/workloads.py``
of this checkout) at seeds 1 and 2, the argv of ``UNTIMED`` (the suites and
options no workload times, on a spread of presets) and those of
``OFF_GRAMMAR`` (help, usage errors and the other forms the parser handles),
run through
``hochhom.cli.run``, once with this checkout's ``src`` and once with
``OTHER_CHECKOUT/src``, each checkout in its own interpreter.  Every argv
whose stdout, stderr or exit code differs is printed, and the exit code is 1
if any does, else 0.  A ``SystemExit`` (argparse exits on help and on a usage
error) is an exit code like a returned one.  A copy of the parent commit for
``OTHER_CHECKOUT`` can be made with ``git archive HEAD~1 | tar -x -C DIR``.
Not collected by pytest.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2)
# Argv off the well-formed ``SUB --opt value ...`` form, and one on it with a negative value.
OFF_GRAMMAR = [
    ["--help"],
    ["hh", "--help"],
    ["hh", "--conf", "weyl(1)", "--wmin", "-2", "--wmax", "-2", "--format", "json"],
    ["hh", "--config", "weyl(1)", "--wmin=3", "--wmax", "3", "--format", "json"],
    ["hh", "--config"],
    ["hh", "--config", "weyl(1)", "--wmin"],
    ["verify", "--config", "weyl(1)", "--suite", "nope"],
    ["cohh", "--config", "weyl(1)", "--trunc", "1e3"],
    ["hh", "--config", "weyl(1)", "--wmin", "-2", "--wmin", "-1", "--wmax", "-1", "--format", "json"],
    ["hh", "--config", "-x"],
    ["homology", "--config", "weyl(1)"],
    [],
    ["hh", "--config", "weyl(1)", "--wmin", "-3", "--wmax", "-2", "--format", "json"],
]
# Well-formed argv of what no workload times: every verify suite, the braiding
# suite at bound 4, representatives and a small cohh window.
UNTIMED_PRESETS = (
    "weyl(2)",
    "semiclassical(2,4,1)",
    "semiclassical(2,12,5)",
    "mixed-minimal(3)",
    "mixed-minimal(12)",
    "free(2,1)",
    "free(3,0)",
)
UNTIMED = [
    [sub, "--config", preset, "--format", "json", *options]
    for sub, *options in (
        ("verify", "--suite", "all", "--bound", "3"),
        ("verify", "--suite", "braiding", "--bound", "4"),
        ("hh", "--representatives"),
        ("cohh", "--trunc", "3"),
    )
    for preset in UNTIMED_PRESETS
]


def run_ops(src: str) -> None:
    """Child mode: run the argv lists read from stdin with ``src`` first on the path.

    Writes [exit code or exception text, stdout, stderr] per argv to stdout as JSON.
    """
    sys.path.insert(0, src)
    from hochhom import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise ImportError(f"hochhom was imported from {cli.__file__}, not from {src}")
    results = []
    for argv in json.load(sys.stdin):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"{type(exc).__name__}: {exc}"
        results.append([code, out.getvalue(), err.getvalue()])
    json.dump(results, sys.stdout)


def outputs(src: Path, ops: list[list[str]]) -> list[list]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, __file__, "--run", str(src)],
        input=json.dumps(ops), env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--run":
        run_ops(argv[1])
        return 0
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    other = Path(argv[0]).resolve() / "src"
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    with tempfile.TemporaryDirectory() as workdir:
        ops = []
        for seed in SEEDS:
            for name in workloads.WORKLOADS:
                load = workloads.build(name, seed, Path(workdir) / f"{name}-{seed}")
                for path, doc in load.files.items():
                    Path(path).parent.mkdir(parents=True, exist_ok=True)
                    Path(path).write_text(json.dumps(doc))
                ops += [list(op.argv) for op in load.ops + load.defect_ops]
        ops += UNTIMED + OFF_GRAMMAR
        here, there = outputs(ROOT / "src", ops), outputs(other, ops)
    differ = [argv for argv, a, b in zip(ops, here, there) if a != b]
    for argv in differ:
        print("differs:", " ".join(argv))
    print(
        f"{len(ops)} argv ({len(UNTIMED)} untimed, {len(OFF_GRAMMAR)} off the grammar),"
        f" {len(differ)} differ"
    )
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
