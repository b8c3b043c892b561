"""One pass of a workload in a fresh interpreter.

Usage: ``python3 perfbench/worker.py JOB.json RESULT.json``

A ``pass`` job imports ``hochhom`` from the checkout's ``src``, loads the
workload's configs (together the set-up time), then runs each op through
``hochhom.cli.run`` with its output captured, optionally under the tracer.
Next to every timed block it runs a short fixed probe, whose times tell the
parent how fast the host ran at that moment.  A ``micro`` job times single
layer operations.  The result is written as JSON; the parent process checks
the outputs outside the timed region.
"""
from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path


def import_program(src: str):
    sys.path.insert(0, src)
    from hochhom import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise ImportError(f"hochhom was imported from {cli.__file__}, not from {src}")
    return cli


PROBES = 3


def probe() -> float:
    """Seconds taken by a fixed piece of pure-Python work (about 1 ms when idle)."""
    from fractions import Fraction

    start = time.perf_counter()
    acc = Fraction(0)
    seen = {}
    for i in range(1, 400):
        acc += Fraction(i % 97, i % 89 + 1)
        seen[i, i % 7] = acc
    return time.perf_counter() - start


def call(cli, argv: list[str]):
    """(exit code or exception text, captured stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    except Exception as exc:  # an op that raises is a failed op, not a failed pass
        code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), time.perf_counter() - start


def run_pass(job: dict) -> dict:
    start = time.perf_counter()
    cli = import_program(job["src"])
    for config in job["configs"]:
        cli.load_config(config)
    setup_s = time.perf_counter() - start
    setup_probes = [probe() for _ in range(2 * PROBES)]

    tracer = None
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    ops = []
    for index, argv in enumerate(job["ops"]):
        if tracer is not None:
            tracer.op = index
        before = [probe() for _ in range(PROBES)]
        code, stdout, seconds = call(cli, argv)
        probes = before + [probe() for _ in range(PROBES)]
        ops.append({"code": code, "stdout": stdout, "seconds": seconds, "probes": probes})
    result = {
        "setup_s": setup_s,
        "setup_probes": setup_probes,
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        from spans import layer_metrics

        result["layers"] = layer_metrics(tracer, [argv[0] for argv in job["ops"]])
    result["defect_ops"] = []
    for argv in job["defect_ops"]:
        code, stdout, _ = call(cli, argv)
        result["defect_ops"].append({"code": code, "stdout": stdout})
    return result


def _per_call_us(fn, args_list, budget_s: float = 0.15) -> float:
    """Median over batches of the time per call, in microseconds."""
    batches = []
    deadline = time.perf_counter() + budget_s
    while len(batches) < 5 or time.perf_counter() < deadline:
        start = time.perf_counter()
        for args in args_list:
            fn(*args)
        batches.append((time.perf_counter() - start) / len(args_list))
    return statistics.median(batches) * 1e6


def run_micro(job: dict) -> dict:
    """Per-call times of single scalar, algebra and koszul operations."""
    from fractions import Fraction
    from itertools import product

    cli = import_program(job["src"])
    from hochhom import algebra, koszul, scalar

    values = [Fraction(p, q) for p, q in product((3, -7, 22, 105), (5, 11, 13))]
    rationals = [scalar.RationalScalar(v) for v in values]
    rational_pairs = [(a, b) for a in rationals for b in rationals]

    def cyclotomic_pairs(order: int):
        field = scalar.CyclotomicField(order)
        elems = [
            field.element([values[(i + t) % len(values)] for t in range(field.degree)])
            for i in range(6)
        ]
        return [(a, b) for a in elems for b in elems], elems

    m4, _ = cyclotomic_pairs(4)
    m12, m12_elems = cyclotomic_pairs(12)
    weyl3 = cli.load_config("weyl(3)")
    rhos = [(weyl3, rho) for rho in product(range(3), repeat=6)][::7]
    semi = cli.load_config("semiclassical(2,4,1)")
    monos = [mono for mono in product(range(3), repeat=4) if sum(mono) == 3][::3]
    mono_pairs = [(semi, a, b) for a in monos for b in monos]
    free = cli.parse_config(json.loads(Path(job["free_config"]).read_text()))
    freeness = []
    while len(freeness) < 3:
        start = time.perf_counter()
        free.model.is_free_of_maximal_rank()
        freeness.append(time.perf_counter() - start)
    return {
        "scalar.rational_mul_us": _per_call_us(lambda a, b: a * b, rational_pairs),
        "scalar.cyclotomic_mul_us.m4": _per_call_us(lambda a, b: a * b, m4),
        "scalar.cyclotomic_mul_us.m12": _per_call_us(lambda a, b: a * b, m12),
        "scalar.cyclotomic_inv_us.m12": _per_call_us(lambda a: a.inv(), [(a,) for a in m12_elems]),
        "koszul.is_in_C_us.weyl3": _per_call_us(koszul.is_in_C, rhos),
        "algebra.pbw_mul_us": _per_call_us(algebra.normal_mul_monomials, mono_pairs),
        "scalar.is_free_of_maximal_rank_s": statistics.median(freeness),
    }


def main() -> None:
    job_path, result_path = sys.argv[1], sys.argv[2]
    job = json.loads(Path(job_path).read_text())
    result = run_micro(job) if job["kind"] == "micro" else run_pass(job)
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
