"""Self-tests of the benchmark's checker, seeded inputs and span arithmetic.

Run with ``PYTHONPATH=src python3 -m pytest -q perfbench``.
"""
from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

import run
import workloads
from spans import Tracer, layer_metrics, self_times
from workloads import Op, check_op, closed_form


def _hh_output(op: Op, n: int, r: int, reps: bool = False) -> str:
    """A correct ``hh`` report for ``op``, built from the closed form."""
    wmin = int(op.argv[op.argv.index("--wmin") + 1])
    wmax = int(op.argv[op.argv.index("--wmax") + 1])
    entries = []
    for w in range(max(wmin, -(n + r)), wmax + 1):
        for k, dim in sorted(closed_form(op.family, w).items()):
            entry = {"w": w, "k": k, "dim": dim}
            if reps:
                entry["representatives"] = [f"rep{i}" for i in range(dim)]
            entries.append(entry)
    return json.dumps({"command": "hh", "config": {"n": n, "r": r}, "entries": entries})


WEYL = workloads.Op(("hh", "--config", "weyl(2)", "--wmin", "-4", "--wmax", "4"), ("weyl", 2))
MIXED = workloads.Op(("hh", "--config", "mixed-minimal(12)", "--wmin", "-3", "--wmax", "40",
                      "--representatives"), ("mixed-minimal", 12))


def test_checker_accepts_the_closed_form():
    assert check_op(WEYL, 0, _hh_output(WEYL, 2, 2), {}) is None
    assert check_op(MIXED, 0, _hh_output(MIXED, 2, 1, reps=True), {}) is None


def test_checker_rejects_a_mutated_dimension():
    doc = json.loads(_hh_output(MIXED, 2, 1, reps=True))
    doc["entries"][3]["dim"] += 1
    doc["entries"][3]["representatives"].append("extra")
    assert "closed form" in check_op(MIXED, 0, json.dumps(doc), {})
    doc = json.loads(_hh_output(WEYL, 2, 2))
    doc["entries"].append({"w": 0, "k": 1, "dim": 1})
    assert "closed form" in check_op(WEYL, 0, json.dumps(doc), {})


def test_checker_rejects_missing_representatives():
    doc = json.loads(_hh_output(MIXED, 2, 1, reps=True))
    doc["entries"][0]["representatives"] = []
    assert "representatives" in check_op(MIXED, 0, json.dumps(doc), {})


def test_checker_rejects_a_wrong_exit_code_or_a_crash():
    good = _hh_output(WEYL, 2, 2)
    assert "exit code 1" in check_op(WEYL, 1, good, {})
    assert "exit code 2" in check_op(WEYL, 2, good, {})
    assert "raised" in check_op(WEYL, "AttributeError: boom", good, {})


def test_checker_compares_with_the_reference():
    op = workloads._plain("cohh", "--config", "weyl(2)", "--trunc", "3")
    want = {"command": "cohh", "entries": [{"degree": 0, "dim": 1}, {"degree": 1, "dim": 2}]}
    refs = {op.key: want}
    assert check_op(op, 0, json.dumps(want), refs) is None
    added = {**want, "stats": {"ms": 3}}
    assert check_op(op, 0, json.dumps(added), refs) is None
    wrong = {**want, "entries": [{"degree": 0, "dim": 1}, {"degree": 1, "dim": 3}]}
    assert "reference" in check_op(op, 0, json.dumps(wrong), refs)
    short = {**want, "entries": want["entries"][:1]}
    assert "reference" in check_op(op, 0, json.dumps(short), refs)
    assert check_op(op, 0, json.dumps(want), {}) == "no recorded reference"


def test_recorded_references_cover_every_reference_op():
    refs = workloads.load_references()
    ops = workloads.build("certify", 0, Path("unused")).ops
    assert {op.key for op in ops if op.command in ("cohh", "verify")} == set(refs)


def test_defect_status():
    crash = "AttributeError: 'dict' object has no attribute 'is_zero'"
    assert workloads.defect_status(crash, "") == "known-defect"
    assert workloads.defect_status("AttributeError: other", "") == "wrong"
    passed = json.dumps({"results": [{"suite": "braiding", "status": "pass"}]})
    assert workloads.defect_status(0, passed) == "fixed"
    assert workloads.defect_status(1, passed) == "wrong"
    failed = json.dumps({"results": [{"suite": "braiding", "status": "fail"}]})
    assert workloads.defect_status(0, failed) == "wrong"
    assert workloads.defect_status(0, "not json") == "wrong"


def test_primality_matches_trial_division():
    def slow(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(3000) if workloads.is_prime(n)] == [n for n in range(3000) if slow(n)]
    assert workloads.is_prime(1000000000000000003)
    assert not workloads.is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7


def test_seeded_inputs_are_deterministic_and_sized():
    a = workloads.free_config(random.Random(7))
    assert a == workloads.free_config(random.Random(7))
    assert a != workloads.free_config(random.Random(8))
    primes = [int(a["scalar"]["values"][j][i]) for i, j in ((0, 1), (0, 2), (1, 2))]
    assert [len(str(p)) for p in primes] == list(workloads.FREE_PRIME_DIGITS)
    assert all(str(p).startswith(str(workloads.FREE_PRIME_LEADING)) for p in primes)
    assert all(workloads.is_prime(p) for p in primes)
    order = [op.key for op in workloads.build("certify", 3, Path("x")).ops]
    assert order == [op.key for op in workloads.build("certify", 3, Path("x")).ops]


def test_closed_forms_agree_with_the_program_oracle():
    cli = pytest.importorskip("hochhom.cli")
    from hochhom.homology import expected_hh_oracle

    for preset, family in (("weyl(3)", ("weyl", 3)), ("semiclassical(2,12,5)", ("weyl", 2)),
                           ("mixed-minimal(12)", ("mixed-minimal", 12)),
                           ("mixed-minimal(3)", ("mixed-minimal", 3))):
        spec = cli.load_config(preset)
        for w in range(-spec.num_generators, 30):
            program = {k: d for k, d in expected_hh_oracle(spec, w).items() if d}
            assert closed_form(family, w) == program, (preset, w)


def _span(name, start, end, parent=-1, op=0):
    return (name, start, end, parent, op)


def test_self_time_subtracts_child_coverage_on_nested_spans():
    spans = [
        _span("cli.run", 0.0, 10.0),
        _span("homology.hh_report", 1.0, 4.0, parent=0),
        _span("koszul.enumerate_strand", 2.0, 3.0, parent=1),
        _span("linalg.rank_kernel", 5.0, 9.0, parent=0),
        _span("linalg.subquotient_dim", 8.0, 9.5, parent=0),  # overlaps its sibling
        _span("koszul.is_in_C", 9.8, 11.0, parent=0),  # runs past its parent
    ]
    got = self_times(spans)
    assert got == pytest.approx([10 - 3 - 4.5 - 0.2, 2.0, 1.0, 4.0, 1.5, 1.2])


def test_tracer_nests_spans_and_attributes_layers():
    tracer = Tracer()

    def inner(x):
        return x > 0

    def outer(x):
        return [wrapped_inner(x), wrapped_inner(-x)]

    wrapped_inner = tracer.wrap("koszul.is_in_C", inner)
    wrapped_outer = tracer.wrap("homology.hh_report", outer)
    root = tracer.wrap("cli.run", lambda: wrapped_outer(1))
    tracer.op = 0
    root()
    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    assert names == ["cli.run", "homology.hh_report", "koszul.is_in_C", "koszul.is_in_C"]
    assert parents == [-1, 0, 1, 1]
    assert all(start <= end for _, start, end, _, _ in tracer.spans)
    metrics = layer_metrics(tracer, ["hh"])
    assert metrics["koszul.is_in_C.calls"] == 2
    assert metrics["koszul.is_in_C.hit_ratio"] == 0.5
    selfs = self_times(tracer.spans)
    assert metrics["layer.koszul.self_s"] == pytest.approx(selfs[2] + selfs[3])
    run_s = tracer.spans[0][2] - tracer.spans[0][1]
    share = metrics["layer.koszul_linalg_share_of_hh"]
    assert share == pytest.approx((selfs[2] + selfs[3]) / run_s)


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    for m in spec["end_to_end"]:
        assert m["unit"] == run.END_TO_END[m["name"]]
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    produced = set(layer_metrics(Tracer(), []))
    assert produced <= set(per_layer)
    assert all(per_layer[name] == run.unit_of(name) for name in per_layer)
