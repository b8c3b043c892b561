"""End-to-end command-line behavior: configs, presets, exit codes, determinism."""

from __future__ import annotations

import json
import time

import pytest

from hochhom import koszul
from hochhom.cli import (
    MAX_CYCLOTOMIC_ORDER,
    MAX_PARAMETER_DIGITS,
    build_parser,
    emit_config,
    load_config,
    parse_config,
    preset_config,
    run,
)
from hochhom.errors import ConfigError


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
    assert weyl.n == weyl.r == 2 and weyl.is_all_one()
    free = parse_config(preset_config("free(2,1)"))
    assert free.model.is_free_of_maximal_rank()
    sc = parse_config(preset_config("semiclassical(2,4,1)"))
    assert sc.is_semiclassical()
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
        "complex", "chainmaps", "braiding", "quotient", "duality"
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
    terms = koszul._lowering_terms

    def leaky(spec, g):
        for gen, coeff in terms(spec, g):
            yield koszul.ChainGenerator(gen.mono, gen.wedge[::-1]), coeff

    monkeypatch.setattr(koszul, "_lowering_terms", leaky)
    code = run(["hh", "--config", "weyl(1)", "--wmin", "-1", "--wmax", "-1"])
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


def test_cochain_text_format():
    from fractions import Fraction

    from hochhom.algebra import PbwElement
    from hochhom.cli import cochain_lines
    from hochhom.cohomology import Cochain
    from hochhom.scalar import AlgebraSpec, RationalModel

    spec = AlgebraSpec(
        2, 1, RationalModel([[Fraction(1), Fraction(1, 2)], [Fraction(2), Fraction(1)]])
    )
    phi = Cochain(spec, 1, {(3,): PbwElement.monomial(spec, (0, 0, 1))})
    assert cochain_lines(phi) == ["y2 -> y2"]
    psi = Cochain(spec, 0, {(): PbwElement.one(spec)})
    assert cochain_lines(psi) == ["1 -> 1"]


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
