"""End-to-end command-line behavior: configs, presets, exit codes, determinism."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hochhom import cli, koszul
from hochhom.cli import (
    _PRIMES,
    MAX_CYCLOTOMIC_ORDER,
    MAX_GENERATORS,
    MAX_PARAMETER_DIGITS,
    build_parser,
    emit_config,
    emit_report,
    load_config,
    parse_config,
    preset_config,
    run,
)
from hochhom.cohomology import CohomologyEntry, DualityCheckResult, Hh1Window
from hochhom.errors import ConfigError, IndexOutOfRange
from hochhom.homology import AcyclicityResult
from hochhom.koszul import ChainElement, StrandBlock, StrandComplex
from hochhom.scalar import AlgebraSpec
from test_acceptance import diff_full_closed
from test_scalar import is_all_one


def test_config_round_trip_rational():
    doc = {
        "n": 2,
        "r": 1,
        "scalar": {"type": "rational", "values": [["1", "1/2"], ["2", "1"]]},
    }
    spec = parse_config(doc)
    assert parse_config(emit_config(spec)) == spec


def test_config_round_trip_cyclotomic():
    doc = preset_config("mixed-minimal(3)")
    spec = parse_config(doc)
    assert emit_config(spec) == doc
    assert parse_config(emit_config(spec)) == spec


def test_presets():
    weyl = parse_config(preset_config("weyl(2)"))
    assert weyl.n == weyl.r == 2 and is_all_one(weyl)
    free = parse_config(preset_config("free(2,1)"))
    assert free.model.is_free_of_maximal_rank()
    sc = parse_config(preset_config("semiclassical(2,4,1)"))
    assert sc.n == sc.r == 2
    with pytest.raises(ConfigError):
        preset_config("nonsense(1)")


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        parse_config({"n": 1, "r": 2, "scalar": {"type": "rational", "values": [["1"]]}})
    with pytest.raises(ConfigError):
        parse_config({"n": 4, "r": 4, "scalar": {"type": "rational", "values": [["1"]] * 4}})
    with pytest.raises(ConfigError):
        parse_config({"n": 1})


def test_load_config_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(preset_config("weyl(1)")))
    spec = load_config(str(path))
    assert spec.n == spec.r == 1


def test_load_config_missing_file_is_config_error():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/cfg.json")


def test_hh_command_weyl(capsys):
    code = run(["hh", "--config", "weyl(1)", "--wmin", "-2", "--wmax", "2", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "hochhom-report/1"
    assert doc["entries"] == [{"w": -2, "k": 2, "dim": 1}]


def test_hh_command_deterministic_bytes(capsys):
    argv = ["hh", "--config", "mixed-minimal(2)", "--wmin", "-2", "--wmax", "2",
            "--format", "json", "--representatives"]
    run(argv)
    first = capsys.readouterr().out
    run(argv)
    second = capsys.readouterr().out
    assert first == second


def test_oracle_command_pass(capsys):
    code = run(["oracle", "--config", "free(2,1)", "--wmin", "-2", "--wmax", "2"])
    assert code == 0
    assert '"pass"' in capsys.readouterr().out


def test_oracle_command_large_prime_parameter(capsys, tmp_path):
    # Freeness of a large prime parameter is decided without factoring it.
    p = "1000000000000000003"
    doc = {"n": 2, "r": 1, "scalar": {"type": "rational", "values": [["1", p], [f"1/{p}", "1"]]}}
    path = tmp_path / "large-prime.json"
    path.write_text(json.dumps(doc))
    code = run(["oracle", "--config", str(path), "--format", "json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"


def test_hh_command_large_cyclotomic_order(capsys, tmp_path):
    # Powers of zeta are built on demand, so a field of degree 1600 is cheap.
    doc = {"n": 2, "r": 1,
           "scalar": {"type": "cyclotomic", "order": 4000, "exponents": [[0, -1], [1, 0]]}}
    path = tmp_path / "order-4000.json"
    path.write_text(json.dumps(doc))
    code = run(["hh", "--config", str(path), "--format", "json"])
    assert code == 0
    entries = json.loads(capsys.readouterr().out)["entries"]
    # The mixed minimal closed form for an order above the weight window:
    # z^s in degree 0 (s >= 1), z^s (x) z in degree 1 and x^y in degree 2.
    expected = [(w, k) for w in range(-6, 7) for k in range(4)
                if (k == 0 and w >= 1) or (k == 1 and w >= -1) or (k == 2 and w == -2)]
    assert [(e["w"], e["k"], e["dim"]) for e in entries] == [(w, k, 1) for w, k in expected]


@pytest.mark.parametrize(
    "scalar",
    [
        {"type": "cyclotomic", "order": 10**9, "exponents": [[0, -1], [1, 0]]},
        {"type": "rational", "values": [["1", "1e20000"], ["1e-20000", "1"]]},
        {"type": "rational", "values": [["1", "1e1000000000"], ["1e-1000000000", "1"]]},
    ],
    ids=["order-1e9", "1e20000", "1e1000000000"],
)
def test_oversized_config_exits_2_quickly(capsys, tmp_path, scalar):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": 2, "r": 1, "scalar": scalar}))
    start = time.perf_counter()
    code = run(["hh", "--config", str(path), "--wmin", "-2", "--wmax", "2"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


def test_integer_literal_past_the_json_digit_limit_is_config_error(capsys, tmp_path):
    path = tmp_path / "long-int.json"
    big = "7" * 5000
    path.write_text('{"n": 2, "r": 0, "scalar": {"type": "rational", '
                    f'"values": [["1", {big}], ["1", "1"]]}}}}')
    assert run(["hh", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_config_bounds_are_inclusive():
    at_bound = {"type": "cyclotomic", "order": MAX_CYCLOTOMIC_ORDER, "exponents": [[0]]}
    assert parse_config({"n": 1, "r": 0, "scalar": at_bound}).model.order == MAX_CYCLOTOMIC_ORDER
    p = "7" * MAX_PARAMETER_DIGITS
    spec = parse_config(
        {"n": 2, "r": 0, "scalar": {"type": "rational", "values": [["1", p], [f"1/{p}", "1"]]}}
    )
    assert spec.model.values[0][1] == int(p)
    for value in (f"{p}7", f"1/{p}7", f"1e{MAX_PARAMETER_DIGITS}", int(p + "7")):
        doc = {"n": 2, "r": 0, "scalar": {"type": "rational", "values": [["1", value], ["1", "1"]]}}
        with pytest.raises(ConfigError, match="digits"):
            parse_config(doc)


def test_oracle_command_unsupported_regime_is_config_error(capsys):
    # all-one non-semiclassical spec has no closed-answer oracle
    doc = {"n": 2, "r": 0, "scalar": {"type": "rational", "values": [["1", "1"], ["1", "1"]]}}
    import json as _json
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        _json.dump(doc, fh)
        path = fh.name
    code = run(["oracle", "--config", path, "--wmin", "0", "--wmax", "1"])
    assert code == 2


@pytest.mark.parametrize("wmin,wmax", [(-3, 60), (-9, -5)])
def test_oracle_refuses_an_unsupported_regime_before_building_strands(
    wmin, wmax, capsys, monkeypatch
):
    # mixed-minimal(1) has lambda = 1 with r < n: no closed answer, whatever the window.
    def refuse(*args, **kwargs):
        raise AssertionError("oracle built strands")

    monkeypatch.setattr(cli, "hh_report", refuse)
    argv = ["oracle", "--config", "mixed-minimal(1)", "--wmin", str(wmin), "--wmax", str(wmax)]
    assert run(argv + ["--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: no closed-answer oracle for this parameter regime\n"


def test_verify_duality_failure_exit_code(capsys):
    code = run(["verify", "--config", "mixed-minimal(2)", "--suite", "duality", "--bound", "2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "row 1 product" in out


def test_verify_complex_suite_passes(capsys):
    code = run(["verify", "--config", "weyl(1)", "--suite", "complex", "--bound", "3"])
    assert code == 0


@pytest.mark.parametrize(
    "extra",
    [["--config", "weyl(1)"], ["--config", "semiclassical(2,4,1)", "--bound", "2"]],
    ids=["weyl-1", "semiclassical-2-4-1"],
)
def test_verify_default_suite_passes_every_suite(capsys, extra):
    code = run(["verify", *extra, "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [r["suite"] for r in doc["results"]] == [
        "complex", "chainmaps", "braiding", "quotient", "duality", "blocks"
    ]
    assert all(r["status"] == ("pass" if r["checked"] else "vacuous") for r in doc["results"])
    if extra == ["--config", "weyl(1)"]:
        # Every rho lies in C for an all-ones Lambda: no quotient strand exists.
        assert doc["results"][3]["status"] == "vacuous"


@pytest.mark.parametrize(
    "argv",
    [["--config", "weyl(1)", "--suite", "quotient"],
     ["--config", "weyl(2)", "--suite", "braiding", "--bound", "1"]],
    ids=["quotient-all-in-C", "braiding-no-words"],
)
def test_verify_suite_that_checks_nothing_is_vacuous(capsys, argv):
    code = run(["verify", *argv, "--format", "json"])
    (result,) = json.loads(capsys.readouterr().out)["results"]
    assert code == 0
    assert (result["status"], result["checked"], result["failures"]) == ("vacuous", 0, [])


def test_verify_quotient_suite_passes(capsys):
    code = run(["verify", "--config", "mixed-minimal(2)", "--suite", "quotient", "--bound", "3"])
    assert code == 0


def test_bad_config_exit_code(capsys):
    code = run(["hh", "--config", "/nonexistent.json"])
    assert code == 2


def test_internal_error_exits_3_without_traceback(capsys, monkeypatch):
    # Swapping the wedge of each image moves it to another block of the strand.
    terms = koszul._lowering

    def leaky(spec, mono, wedge):
        for (image_mono, image_wedge), char, c in terms(spec, mono, wedge):
            yield (image_mono, image_wedge[::-1]), char, c

    monkeypatch.setattr(koszul, "_lowering", leaky)
    # Only verify --suite blocks builds blocks.
    code = run(["verify", "--config", "mixed-minimal(2)", "--suite", "blocks", "--bound", "0"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("internal error: ComplexBroken")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_cohh_command(capsys):
    code = run(["cohh", "--config", "free(2,1)", "--trunc", "4", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    dims = {e["degree"]: e["dim"] for e in doc["entries"]}
    assert dims[0] == 1 and dims[1] == 1


def test_parser_is_built_once_and_keeps_no_arguments(capsys):
    assert build_parser() is build_parser()
    argv = ["hh", "--config", "weyl(1)", "--wmin", "-2", "--wmax", "2", "--format", "json"]
    assert run(argv + ["--representatives"]) == 0
    (first,) = json.loads(capsys.readouterr().out)["entries"]
    assert "representatives" in first
    assert run(argv) == 0
    (second,) = json.loads(capsys.readouterr().out)["entries"]
    assert second == {"w": -2, "k": 2, "dim": 1}


def test_order_one_cyclotomic_config_prints_as_its_rational_twin(capsys, tmp_path):
    # Q(zeta_1) is Q, so zeta_1^E = 1 and the rational config with all
    # parameters 1 is the same algebra; its coefficients print the same way.
    twin = tmp_path / "ones.json"
    twin.write_text(
        json.dumps(
            {"n": 2, "r": 1, "scalar": {"type": "rational", "values": [["1", "1"], ["1", "1"]]}}
        )
    )
    entries = []
    for config in ("mixed-minimal(1)", str(twin)):
        argv = ["hh", "--config", config, "--wmin", "-3", "--wmax", "3", "--representatives",
                "--format", "json"]
        assert run(argv) == 0
        entries.append(json.loads(capsys.readouterr().out)["entries"])
    assert entries[0] == entries[1]
    assert any(entry.get("representatives") for entry in entries[0])


@pytest.mark.parametrize(
    "argv",
    [["verify", "--config", "weyl(1)", "--bound", "-1"],
     ["verify", "--config", "weyl(1)", "--suite", "duality", "--bound", "-3"],
     ["cohh", "--config", "weyl(1)", "--trunc", "-1"]],
    ids=["verify-all", "verify-duality", "cohh"],
)
def test_negative_window_exits_2_on_one_line(capsys, argv):
    # A window below 0 holds no monomial: answering would compare nothing.
    code = run(argv + ["--format", "json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    option = "--trunc" if argv[0] == "cohh" else "--bound"
    assert captured.err == f"argument error: {option} must be >= 0, got {argv[-1]}\n"


def test_zero_window_still_answers(capsys):
    # The center of A_1 is k, which a window of degree 0 already sees.
    assert run(["cohh", "--config", "weyl(1)", "--trunc", "0", "--format", "json"]) == 0
    dims = {e["degree"]: e["dim"] for e in json.loads(capsys.readouterr().out)["entries"]}
    assert dims[0] == 1
    assert run(["verify", "--config", "weyl(1)", "--suite", "complex", "--bound", "0"]) == 0


@pytest.mark.parametrize("command", ["hh", "oracle"])
def test_empty_weight_range_exits_2_before_reading_the_config(capsys, command):
    # The config path does not exist: the range is refused before it is read.
    argv = [command, "--config", "no-such-config.json", "--wmin", "2", "--wmax", "0"]
    code = run(argv + ["--format", "json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "argument error: --wmin 2 exceeds --wmax 0\n"


def test_oracle_below_the_lowest_weight_is_vacuous(capsys):
    # Weights of weyl(1) start at -(n+r) = -2, so the window holds no strand.
    argv = ["oracle", "--config", "weyl(1)", "--wmin", "-100", "--wmax", "-50", "--format", "json"]
    assert run(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "vacuous" and doc["mismatches"] == []
    assert run(["oracle", "--config", "weyl(1)", "--wmin", "-2", "--wmax", "-2",
                "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"


def test_hh_window_below_the_lowest_weight_keeps_its_bounds(capsys):
    # Weights of weyl(1) start at -(n+r) = -2: a window wholly below holds no
    # strand and is printed as given, not with wmin raised above wmax.
    argv = ["hh", "--config", "weyl(1)", "--wmin", "-9", "--wmax", "-5", "--format", "json"]
    assert run(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["wmin"], doc["wmax"], doc["entries"]) == (-9, -5, [])
    assert run(["hh", "--config", "weyl(1)", "--wmin", "-9", "--wmax", "-2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["wmin"], doc["wmax"], doc["entries"]) == (-2, -2, [{"w": -2, "k": 2, "dim": 1}])


def test_free_preset_has_a_prime_for_every_pair_up_to_the_bound():
    assert len(set(_PRIMES)) >= comb(MAX_GENERATORS, 2)
    assert all(p > 1 and all(p % q for q in range(2, p)) for p in _PRIMES)
    spec = parse_config(preset_config(f"free({MAX_GENERATORS},0)"))
    assert spec.is_free()


def test_free_preset_at_the_generator_bound_answers(capsys):
    argv = ["oracle", "--config", "free(6,0)", "--wmin", "-1", "--wmax", "-1", "--format", "json"]
    assert run(argv) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"


@pytest.mark.parametrize(
    "config", ["free(7,0)", "weyl(1000000)", "semiclassical(1000000,4,1)", "weyl(-)"]
)
def test_preset_past_the_bound_exits_2_before_it_is_built(capsys, config):
    start = time.perf_counter()
    code = run(["hh", "--config", config, "--wmin", "0", "--wmax", "0"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "cannot read" not in err


@pytest.mark.parametrize(
    "doc",
    [
        {"n": 2, "r": 0, "scalar": {"type": "cyclotomic", "order": 4,
                                    "exponents": [[0, 1.5], [-1.5, 0]]}},
        {"n": 2, "r": 0, "scalar": {"type": "cyclotomic", "order": 4,
                                    "exponents": [[0, True], [-1, 0]]}},
        {"n": 2, "r": 0, "scalar": {"type": "cyclotomic", "order": 4.0,
                                    "exponents": [[0, 1], [-1, 0]]}},
        {"n": 2.5, "r": 0, "scalar": {"type": "rational", "values": [["1", "2"], ["1/2", "1"]]}},
        {"n": 1, "r": True, "scalar": {"type": "rational", "values": [["1"]]}},
    ],
    ids=["float-exponent", "bool-exponent", "float-order", "float-n", "bool-r"],
)
def test_non_integral_config_number_exits_2(capsys, tmp_path, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert run(["hh", "--config", str(path), "--wmin", "0", "--wmax", "0"]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_integer_strings_and_rational_values_still_parse():
    doc = {"n": "2", "r": "1",
           "scalar": {"type": "cyclotomic", "order": "3", "exponents": [["0", "-1"], ["1", "0"]]}}
    assert parse_config(doc) == parse_config(preset_config("mixed-minimal(3)"))
    # A JSON float among rational values is an exact Fraction, not a truncation.
    doc = {"n": 2, "r": 0, "scalar": {"type": "rational", "values": [[1, 1.5], ["2/3", 1]]}}
    assert parse_config(doc).model.values[0][1] == Fraction(3, 2)


def test_verify_chainmaps_is_skipped_below_semiclassical(capsys):
    code = run(["verify", "--config", "free(2,0)", "--suite", "chainmaps", "--format", "json"])
    (result,) = json.loads(capsys.readouterr().out)["results"]
    assert code == 0
    assert (result["status"], result["checked"], result["failures"]) == ("skipped", 0, [])


# ---------------------------------------------------------------------------
# verify --suite complex on matrices against the generator-by-generator loop.
# ---------------------------------------------------------------------------


def reference_verify_complex(spec, bound):
    """The d.d loop over generators by ``apply_diff``, each differential read from ``koszul``."""
    names = ["diff_full", "diff_small", "diff_symmetric"] + (["diff_weyl"] if spec.r == spec.n else [])
    failures, checked = [], 0
    for g in koszul.keys_up_to(spec, bound):
        checked += 1
        for name in names:
            diff = getattr(koszul, name)
            if name == "diff_small" and not koszul.is_in_C(spec, koszul.rho_of(g)):
                continue
            if not koszul.apply_diff(spec, diff, diff(spec, g)).is_zero():
                failures.append(f"{name} squared nonzero on {koszul.chain_generator_str(spec, g)}")
            if name == "diff_full" and diff_full_closed(spec, g) != diff(spec, g):
                failures.append(f"closed form disagrees on {koszul.chain_generator_str(spec, g)}")
    return checked, failures


@pytest.mark.parametrize(
    "config,bound",
    [("weyl(1)", 3), ("weyl(2)", 2), ("semiclassical(2,4,1)", 2), ("mixed-minimal(3)", 3),
     ("free(2,1)", 3), ("free(3,0)", 2)],
)
def test_verify_complex_matches_the_generator_loop(config, bound):
    spec = load_config(config)
    checked, failures = cli.verify_complex(spec, bound)
    assert (checked, failures) == reference_verify_complex(spec, bound)
    assert checked and not failures


def _broken(kernel):
    """``kernel`` with the triples of every generator whose first exponent is odd doubled."""
    def broken(spec, mono, wedge):
        for key, char, k in kernel(spec, mono, wedge):
            yield key, char, 2 * k if mono[0] % 2 else k

    return broken


@pytest.mark.parametrize("name", ["diff_symmetric", "diff_full"])
@pytest.mark.parametrize("config", ["semiclassical(2,4,1)", "mixed-minimal(3)"])
def test_verify_complex_reports_a_broken_differential_as_the_loop_does(monkeypatch, name, config):
    # The kernel is broken where both verify_complex and the differential's
    # wrapper, which the reference loop calls, read it.
    spec = load_config(config)
    kernel = {"diff_symmetric": "_symmetric", "diff_full": "_full"}[name]
    broken = _broken(getattr(koszul, kernel))
    monkeypatch.setattr(koszul, kernel, broken)
    monkeypatch.setattr(cli, kernel, broken)
    checked, failures = cli.verify_complex(spec, 2)
    assert (checked, failures) == reference_verify_complex(spec, 2)
    assert any("squared nonzero" in f for f in failures)
    assert any("closed form disagrees" in f for f in failures)


# ---------------------------------------------------------------------------
# The front end: the fast argv path, the spec table and the indent writer.
# ---------------------------------------------------------------------------


def _argparse_vars(argv: list[str]):
    """vars() of argparse's namespace for argv, or its exit code when it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code


VALUES = {int: ["-3", "0", "2", "17"], str: ["weyl(1)", "cfg.json", ""]}
# Values argparse refuses, reads otherwise than they look, or that start with "-".
ODD_VALUES = [
    "1e3", "nope", "-x", "", " 5", "+4", "1_0", "0x10", "5\n", "-3\n", "-1.5", "\u0663",
    "--wmin", "-h", "--help", "--", "-", "json ", "all",
]


@st.composite
def argvs(draw):
    """A well-formed argv drawn from ``COMMANDS``, then mutated a few times."""
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    options = cli.COMMANDS[command][1]
    pairs = []
    for flag in draw(st.permutations(sorted(options))):
        if flag != "--config" and draw(st.booleans()):
            continue
        kind = options[flag][0]
        if kind is bool:
            pairs.append([flag])
        else:
            pairs.append([flag, draw(st.sampled_from(VALUES.get(kind, kind)))])
    argv = [command] + [token for pair in pairs for token in pair]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(argv)))
        j = draw(st.integers(0, max(len(argv) - 1, 0)))
        mutation = draw(st.sampled_from(
            ["drop", "duplicate", "swap", "truncate", "join", "abbreviate", "bad-value", "insert"]
        ))
        if not argv:
            argv = [draw(st.sampled_from(["hh", "-h", "nope"]))]
        elif mutation == "drop":
            del argv[j]
        elif mutation == "duplicate":
            argv[j:j] = argv[j : j + 2]
        elif mutation == "swap":
            argv[i - 1], argv[j] = argv[j], argv[i - 1]
        elif mutation == "truncate":
            argv = argv[:i]
        elif mutation == "join" and j + 1 < len(argv):
            argv[j : j + 2] = [f"{argv[j]}={argv[j + 1]}"]
        elif mutation == "abbreviate":
            argv[j] = argv[j][: draw(st.integers(1, max(len(argv[j]) - 1, 1)))]
        elif mutation == "bad-value":
            argv[j] = draw(st.sampled_from(ODD_VALUES))
        else:
            argv.insert(i, draw(st.sampled_from(["--help", "-h", "--representatives", "hh"])))
    return argv


@settings(max_examples=400, deadline=None)
@given(argv=argvs())
def test_fast_path_declines_or_agrees_with_argparse(argv):
    fast = cli._parse_fast(argv)
    if fast is not None:
        assert vars(fast) == _argparse_vars(argv)


@pytest.mark.parametrize("argv", [
    ["hh", "--config", "weyl(1)", "--wmin", "-3", "--wmax", "-2", "--format", "json"],
    ["hh", "--representatives", "--wmax", "0", "--config", "cfg.json"],
    ["verify", "--config", "weyl(1)", "--suite", "duality", "--bound", "0"],
    ["cohh", "--format", "table", "--config", "", "--trunc", "-1"],
    ["oracle", "--config", "free(2,1)"],
])
def test_well_formed_argv_takes_the_fast_path(argv):
    fast = cli._parse_fast(argv)
    assert fast is not None and vars(fast) == _argparse_vars(argv)


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["hh", "--help"], ["hh"], ["hh", "--config"], ["hh", "--conf", "weyl(1)"],
    ["hh", "--config=weyl(1)"], ["hh", "--config", "weyl(1)", "--wmin", "1", "--wmin", "2"],
    ["hh", "--config", "-x"], ["hh", "--config", "weyl(1)", "--wmin", "-1.5"],
    ["cohh", "--config", "weyl(1)", "--trunc", "1e3"], ["verify", "--config", "a", "--suite", "x"],
    ["hh", "--config", "weyl(1)", "--trunc", "2"], ["homology", "--config", "weyl(1)"],
    ["hh", "--config", "weyl(1)", "--representatives", "--representatives"],
    ["hh", "--config", 1],
])
def test_off_grammar_argv_is_left_to_argparse(argv):
    assert cli._parse_fast(argv) is None


def test_run_without_argv_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["hochhom", "hh", "--config", "weyl(1)", "--wmin", "-2",
                                      "--wmax", "-2", "--format", "json"])
    assert run() == 0
    assert json.loads(capsys.readouterr().out)["entries"] == [{"w": -2, "k": 2, "dim": 1}]


def test_one_spec_per_preset(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_SPECS", {})
    calls = []
    monkeypatch.setattr(cli, "parse_config", lambda doc: calls.append(doc) or parse_config(doc))
    argv = ["hh", "--config", "weyl(1)", "--wmin", "-2", "--wmax", "-2", "--format", "json"]
    outputs = []
    for _ in range(2):
        assert run(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and len(calls) == 1
    assert json.loads(outputs[0])["entries"] == [{"w": -2, "k": 2, "dim": 1}]
    # load_config still builds a new spec on every call.
    assert load_config("weyl(1)") is not load_config("weyl(1)")


def test_a_rewritten_config_file_gives_the_new_answer(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(cli, "_SPECS", {})
    path = tmp_path / "config.json"
    argv = ["hh", "--config", str(path), "--wmin", "-2", "--wmax", "-2", "--format", "json"]
    for preset in ("weyl(1)", "free(2,1)", "weyl(1)"):
        path.write_text(json.dumps(preset_config(preset)))
        assert run(argv) == 0
        assert json.loads(capsys.readouterr().out)["config"] == preset_config(preset)
    assert len(cli._SPECS) == 2


@pytest.mark.parametrize("text", ["{", '{"n": 9, "r": 9, "scalar": {"type": "rational"}}', None])
def test_a_failing_config_is_not_kept(monkeypatch, capsys, tmp_path, text):
    monkeypatch.setattr(cli, "_SPECS", {})
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text)
    for config in (str(path), "weyl(9)"):
        assert run(["hh", "--config", config]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
    assert cli._SPECS == {}
    path.write_text(json.dumps(preset_config("weyl(1)")))
    assert run(["hh", "--config", str(path), "--wmin", "-2", "--wmax", "-2"]) == 0
    assert len(cli._SPECS) == 1


def test_an_undecodable_config_file_is_not_valid_json(capsys, tmp_path):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"n": "\xff"}')
    assert run(["hh", "--config", str(path)]) == 2
    assert "is not valid JSON" in capsys.readouterr().err


JSON_LEAVES = st.none() | st.booleans() | st.integers() | st.text()
JSON_DOCS = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30,
)
# Each of these makes the writer give the whole document to json.dumps.
ODD_DOCS = st.recursive(
    JSON_LEAVES | st.floats(allow_nan=True),
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(st.text() | st.integers() | st.floats() | st.booleans() | st.none(),
                          inner, max_size=4)
    ),
    max_leaves=30,
)


def _writer(doc) -> str:
    out = []
    cli._write_json(doc, "\n", out)
    return "".join(out)


@settings(max_examples=300, deadline=None)
@given(doc=JSON_DOCS)
def test_indent_writer_equals_json_dumps(doc):
    assert _writer(doc) == emit_report(doc, "json") == json.dumps(doc, indent=2)


@settings(max_examples=300, deadline=None)
@given(doc=ODD_DOCS)
def test_indent_writer_falls_back_to_json_dumps(doc):
    assert emit_report(doc, "json") == json.dumps(doc, indent=2)


@pytest.mark.parametrize("doc", [
    {"a": 1.5}, [()], {1: "x"}, {"a": [{"b": None, 2: 0}]}, {"a": True, None: 1}, Fraction(1, 2),
])
def test_indent_writer_leaves_odd_values_to_json_dumps(doc):
    with pytest.raises(cli._Unwritten):
        _writer(doc)
    if isinstance(doc, Fraction):
        with pytest.raises(TypeError):
            emit_report(doc, "json")
    else:
        assert emit_report(doc, "json") == json.dumps(doc, indent=2)


def test_indent_writer_on_the_golden_reports():
    golden = sorted((Path(__file__).parent / "golden").glob("*.out"))
    assert len(golden) >= 15
    for path in golden:
        text = path.read_text()
        assert _writer(json.loads(text)) + "\n" == text, path.name


# ---------------------------------------------------------------------------
# The benchmark's tracer and micro job against the package.
# ---------------------------------------------------------------------------


def test_traced_benchmark_worker_runs_on_the_package(tmp_path, capsys):
    # perfbench/spans.py wraps every name in its TRACED table by getattr on
    # the hochhom modules, and the worker's micro job calls
    # algebra.normal_mul_monomials(spec, a, b): a rename of either would make
    # every traced benchmark run fail.  Its hook on homology.strand_homology
    # reads the spec and the weight as the first two positional arguments.
    # Both jobs run in the real worker.
    root = Path(__file__).resolve().parents[1]
    src = str(root / "src")
    free = tmp_path / "free.json"
    free.write_text(json.dumps(
        {"n": 3, "r": 1, "scalar": {"type": "rational", "values": [
            ["1", "1/7", "1/11"], ["7", "1", "1/13"], ["11", "13", "1"]]}}
    ))
    ops = [
        ["cohh", "--config", "weyl(2)", "--trunc", "2", "--format", "json"],
        ["hh", "--config", "mixed-minimal(12)", "--wmin", "2", "--wmax", "2",
         "--representatives", "--format", "json"],
    ]
    jobs = {
        "pass": {"kind": "pass", "src": src, "configs": ["weyl(2)", "mixed-minimal(12)"],
                 "ops": ops, "defect_ops": [], "trace": True},
        "micro": {"kind": "micro", "src": src, "free_config": str(free)},
    }
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    results = {}
    for kind, job in jobs.items():
        job_path, result_path = tmp_path / f"{kind}.json", tmp_path / f"{kind}-result.json"
        job_path.write_text(json.dumps(job))
        proc = subprocess.run(
            [sys.executable, str(root / "perfbench" / "worker.py"), str(job_path), str(result_path)],
            cwd=root, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        results[kind] = json.loads(result_path.read_text())
    for op, ran in zip(ops, results["pass"]["ops"], strict=True):
        assert cli.run(op) == ran["code"] == 0
        assert ran["stdout"] == capsys.readouterr().out
    layers = results["pass"]["layers"]
    assert layers["cli.run.calls"] == 2 and layers["cohomology.cohomology_report.calls"] == 1
    # Each (spec, weight) of the two ops is asked once: the hook read them.
    assert layers["homology.strand_homology.calls"] > 1
    assert layers["homology.strand_unique_ratio"] == 1
    assert layers["algebra.normal_mul_monomials.calls"] > 0
    assert results["micro"]["algebra.pbw_mul_us"] > 0


# ---------------------------------------------------------------------------
# Start-up: what importing the CLI loads.
# ---------------------------------------------------------------------------


SRC = str(Path(__file__).resolve().parents[1] / "src")
LAYERS = ("scalar", "algebra", "linalg", "koszul", "homology", "cohomology", "cli")


def _fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter with ``src`` first on the path and no bytecode cache."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r})\n{code}"],
        env=env, capture_output=True, text=True, timeout=60,
    )


def test_importing_the_cli_loads_no_dataclasses_and_no_braiding():
    # Only the modules the import adds are read, so what the interpreter's
    # own start-up loads does not count.
    proc = _fresh(
        "import json\n"
        "before = set(sys.modules)\n"
        "import hochhom.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    assert proc.returncode == 0, proc.stderr
    added = set(json.loads(proc.stdout))
    assert not added & {"dataclasses", "inspect", "argparse", "hochhom.braiding"}
    # The traced layers are bound at import: the tracer finds them in sys.modules.
    assert {f"hochhom.{layer}" for layer in LAYERS} <= added


def test_a_well_formed_op_loads_no_argparse_and_help_still_does():
    proc = _fresh(
        "from hochhom.cli import run\n"
        "code = run(['hh', '--config', 'weyl(1)', '--wmin', '-2', '--wmax', '-2',"
        " '--format', 'json'])\n"
        "print('argparse' in sys.modules)\n"
        "run(['hh', '--help'])"
    )
    assert proc.returncode == 0, proc.stderr
    report, _, rest = proc.stdout.partition("}\nFalse\n")
    assert json.loads(report + "}")["entries"] == [{"w": -2, "k": 2, "dim": 1}]
    assert rest.startswith("usage: hochhom hh [-h] --config CONFIG")


def test_verify_braiding_in_a_fresh_process_imports_it_when_run():
    proc = _fresh(
        "from hochhom.cli import run\n"
        "code = run(['verify', '--config', 'weyl(2)', '--suite', 'braiding', '--bound', '2',"
        " '--format', 'json'])\n"
        "print('hochhom.braiding' in sys.modules)\n"
        "sys.exit(code)"
    )
    assert proc.returncode == 0, proc.stderr
    report, _, loaded = proc.stdout.rpartition("}")
    assert json.loads(report + "}")["results"] == [
        {"suite": "braiding", "status": "pass", "checked": 16, "failures": []}
    ]
    assert loaded.strip() == "True"


# ---------------------------------------------------------------------------
# Value semantics of the records and of the hand-written value classes.
# ---------------------------------------------------------------------------


def _strand() -> StrandComplex:
    return koszul.enumerate_strand(load_config("weyl(1)"), 0)


@pytest.mark.parametrize(
    "make,field",
    [(lambda: load_config("weyl(2)"), "n"),
     (_strand, "weight"),
     (lambda: _strand().blocks[0], "key"),
     (lambda: CohomologyEntry(0, 1, "center-kernel"), "note"),
     (lambda: AcyclicityResult((1, 0), True), "passed")],
    ids=["AlgebraSpec", "StrandComplex", "StrandBlock", "CohomologyEntry", "AcyclicityResult"],
)
def test_fields_are_read_only(make, field):
    obj = make()
    with pytest.raises(AttributeError):
        setattr(obj, field, 1)
    with pytest.raises(AttributeError):
        delattr(obj, field)


def test_specs_are_equal_and_hash_as_their_fields():
    a, b = load_config("weyl(2)"), load_config("weyl(2)")
    assert a is not b and a == b
    assert hash(a) == hash(b) == hash((a.n, a.r, a.model))
    assert a != load_config("weyl(1)") and a != (a.n, a.r, a.model)
    # The cached tables live next to the fields and leave equality alone.
    assert a.lowering_table is a.lowering_table and a == b


def test_strand_complex_equality_and_generators():
    a, b = _strand(), _strand()
    assert a == b and a != a.blocks
    keys = sorted(key for block in a.blocks for key in block.basis[1])
    assert len(keys) == a.chain_dimensions[1]
    assert a.generators[1] == keys
    with pytest.raises(TypeError):  # its fields are dicts
        hash(a)


def test_reprs_are_unchanged():
    assert repr(load_config("weyl(1)")).startswith(
        "AlgebraSpec(n=1, r=1, model=<hochhom.scalar.RationalModel object at "
    )
    assert repr(StrandComplex(-1, {0: 0}, [])) == (
        "StrandComplex(weight=-1, chain_dimensions={0: 0}, blocks=[])"
    )
    assert repr(StrandBlock((0,), {0: []}, {})) == (
        "StrandBlock(key=(0,), basis={0: []}, matrices={})"
    )
    assert repr(CohomologyEntry(0, 1, "center-kernel")) == (
        "CohomologyEntry(degree=0, dimension=1, method='center-kernel', note='')"
    )
    assert repr(DualityCheckResult(True, 1)) == (
        "DualityCheckResult(passed=True, degree=1, wedge=None, inserted=None, discrepancy=None)"
    )
    assert repr(Hh1Window(2, 0, [])) == "Hh1Window(bound=2, dimension=0, representatives=[])"
    assert repr(AcyclicityResult((1, 0), True)) == (
        "AcyclicityResult(rho=(1, 0), passed=True, failing_degree=None, witness=None)"
    )


def test_record_defaults_hold():
    assert CohomologyEntry(0, 1, "center-kernel").note == ""
    result = AcyclicityResult((1, 0), True)
    assert result.failing_degree is None and result.witness is None
    assert DualityCheckResult(True, 1).discrepancy is None


@pytest.mark.parametrize("mono,wedge", [((1,), (0, 1)), ((-1, 0), (0, 0)), ((0, 0), (2, 0))])
def test_bad_chain_generator_is_refused(mono, wedge):
    with pytest.raises(IndexOutOfRange):
        ChainElement.single(load_config("weyl(1)"), (mono, wedge))


@pytest.mark.parametrize("n,r", [(0, 0), (2, 3), (2, -1), (1, 0)])
def test_bad_spec_is_refused(n, r):
    model = load_config("weyl(2)").model  # a 2 x 2 parameter matrix
    with pytest.raises(ConfigError):
        AlgebraSpec(n, r, model)
