"""Command-line front end: config ingestion, dispatch, deterministic reports.

Subcommands:

* ``hh``     — homology dimensions per weight strand over a range.
* ``cohh``   — windowed cohomology degrees.
* ``oracle`` — compare computed homology against the closed-answer oracle.
* ``verify`` — machine checks (differential soundness, comparison chain
  maps, braiding vanishing, quotient acyclicity, duality identity).  Each
  suite reports how many cases it checked; a suite that checked none is
  ``vacuous``, not ``pass``.

Exit codes: 0 success, 1 a verification or oracle failure, 2 a config error
or a negative ``--trunc``/``--bound`` window, 3 an internal failure of the
computation (a ``HochhomError`` such as a broken complex), each error
reported on one stderr line.

Configs are JSON documents (``{"n": .., "r": .., "scalar": {..}}``) or one of
the built-in presets ``weyl(n)``, ``semiclassical(n,order,e)``, ``free(n,r)``,
``mixed-minimal(order)``.  Reports are emitted as JSON (schema-tagged,
byte-reproducible) or as a human table derived from the same data.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import cache
from typing import Optional

from .cohomology import (
    Cochain,
    cohomology_report,
    duality_identity_check,
)
from .errors import ConfigError, HochhomError
from .homology import (
    expected_hh_oracle,
    hh_report,
    quotient_strand_acyclicity,
)
from .koszul import (
    ChainElement,
    apply_diff,
    braiding_f_prime,
    chain_generator_str,
    diff_full,
    diff_full_closed,
    diff_small,
    diff_symmetric,
    diff_weyl,
    generators_up_to,
    is_in_C,
    weyl_f_map,
    weyl_g_map,
    _compositions,
)
from .scalar import AlgebraSpec, CyclotomicModel, RationalModel

SCHEMA = "hochhom-report/1"
MAX_GENERATORS = 6
# Q(zeta_m) elements hold phi(m) integers and the reduction table is built
# from x^m - 1, so time and memory grow linearly with the order m; at 10^4,
# hh on the mixed minimal config over w in [-2, 2] takes about 0.25 s in process.
MAX_CYCLOTOMIC_ORDER = 10_000
# A rational parameter may have at most this many digits in its numerator or
# denominator, counting the shift of a decimal exponent ("1e20000" has 20001).
MAX_PARAMETER_DIGITS = 1_000

_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


# ---------------------------------------------------------------------------
# Configuration.
# ---------------------------------------------------------------------------


def parse_config(doc: dict) -> AlgebraSpec:
    try:
        n, r = int(doc["n"]), int(doc["r"])
        scalar = doc["scalar"]
        kind = scalar["type"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    if not (0 <= r <= n):
        raise ConfigError(f"need 0 <= r <= n, got n={n} r={r}")
    if n + r > MAX_GENERATORS:
        raise ConfigError(f"n + r = {n + r} exceeds the supported bound {MAX_GENERATORS}")
    try:
        if kind == "rational":
            rows = scalar["values"]
            for row in rows:
                for v in row:
                    _check_parameter_digits(v)
            model = RationalModel([[Fraction(v) for v in row] for row in rows])
        elif kind == "cyclotomic":
            order = int(scalar["order"])
            if order > MAX_CYCLOTOMIC_ORDER:
                raise ConfigError(
                    f"cyclotomic order {order} exceeds the supported bound {MAX_CYCLOTOMIC_ORDER}"
                )
            model = CyclotomicModel(order, scalar["exponents"])
        else:
            raise ConfigError(f"unknown scalar model type {kind!r}")
        return AlgebraSpec(n, r, model)
    except ConfigError:
        raise
    except (HochhomError, ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
        raise ConfigError(f"invalid scalar model: {exc}") from exc


_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)")


def _check_parameter_digits(value) -> None:
    """Refuse a parameter with more than MAX_PARAMETER_DIGITS digits, before parsing it.

    Counts the digits on each side of the "/" of its text plus the size of
    its decimal exponent, which is read only from a text that is itself short.
    """
    text = str(value)
    if len(text) <= 2 * MAX_PARAMETER_DIGITS:
        exponent = _EXPONENT.search(text)
        mantissa = text[: exponent.start()] if exponent else text
        digits = max(sum(c.isdigit() for c in part) for part in mantissa.split("/"))
        if digits + (abs(int(exponent[1])) if exponent else 0) <= MAX_PARAMETER_DIGITS:
            return
    raise ConfigError(f"a parameter exceeds the supported {MAX_PARAMETER_DIGITS} digits")


def emit_config(spec: AlgebraSpec) -> dict:
    return {"n": spec.n, "r": spec.r, "scalar": spec.model.to_config()}


def preset_config(name: str) -> dict:
    """Configs for the named parameter regimes."""
    m = re.fullmatch(r"([a-z-]+)\(([-0-9,\s]*)\)", name.strip())
    if not m:
        raise ConfigError(f"not a preset: {name!r}")
    kind = m.group(1)
    args = [int(a) for a in m.group(2).split(",") if a.strip()]
    if kind == "weyl" and len(args) == 1:
        n = args[0]
        values = [["1"] * n for _ in range(n)]
        return {"n": n, "r": n, "scalar": {"type": "rational", "values": values}}
    if kind == "semiclassical" and len(args) == 3:
        n, order, e = args
        exps = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if i < j:
                    exps[i][j], exps[j][i] = e, -e
        return {"n": n, "r": n, "scalar": {"type": "cyclotomic", "order": order, "exponents": exps}}
    if kind == "free" and len(args) == 2:
        n, r = args
        values = [["1"] * n for _ in range(n)]
        it = iter(_PRIMES)
        for i in range(n):
            for j in range(i + 1, n):
                p = next(it)
                values[i][j], values[j][i] = str(Fraction(1, p)), str(p)
        return {"n": n, "r": r, "scalar": {"type": "rational", "values": values}}
    if kind == "mixed-minimal" and len(args) == 1:
        return {
            "n": 2,
            "r": 1,
            "scalar": {"type": "cyclotomic", "order": args[0], "exponents": [[0, -1], [1, 0]]},
        }
    raise ConfigError(f"not a preset: {name!r}")


def load_config(source: str) -> AlgebraSpec:
    """Load a config from a JSON file path or a preset name."""
    try:
        doc = preset_config(source)
    except ConfigError:
        try:
            with open(source) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {source!r}: {exc}") from exc
        except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
            raise ConfigError(f"config {source!r} is not valid JSON: {exc}") from exc
    return parse_config(doc)


# ---------------------------------------------------------------------------
# Report rendering.
# ---------------------------------------------------------------------------


def cochain_lines(phi: Cochain) -> list[str]:
    """`wedge -> element` lines, one per nonzero value, wedge order fixed."""
    from .algebra import generator_name

    lines = []
    for I in sorted(phi.values):
        wedge = "^".join(generator_name(phi.spec, i) for i in I) if I else "1"
        lines.append(f"{wedge} -> {phi.values[I]}")
    return lines


def emit_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=False)
    lines = [f"command: {report['command']}"]
    config = report["config"]
    lines.append(f"algebra: n={config['n']} r={config['r']} scalar={json.dumps(config['scalar'])}")
    for key, value in report.items():
        if key in ("schema", "command", "config"):
            continue
        if isinstance(value, list) and value and isinstance(value[0], dict):
            for item in value:
                lines.append("  " + "  ".join(f"{k}={v}" for k, v in item.items()))
        else:
            lines.append(f"{key}: {json.dumps(value)}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Verification suites.
# ---------------------------------------------------------------------------


# Each suite returns (cases checked, failure messages).


def verify_complex(spec: AlgebraSpec, bound: int) -> tuple[int, list[str]]:
    """d.d = 0 for every differential; closed form agrees with generic."""
    failures = []
    checked = 0
    semiclassical = spec.r == spec.n
    for g in generators_up_to(spec, bound):
        checked += 1
        full = diff_full(spec, g)
        if not apply_diff(spec, diff_full, full).is_zero():
            failures.append(f"diff_full squared nonzero on {chain_generator_str(spec, g)}")
        if diff_full_closed(spec, g) != full:
            failures.append(f"closed form disagrees on {chain_generator_str(spec, g)}")
        if is_in_C(spec, g.rho):
            small = diff_small(spec, g)
            if not apply_diff(spec, diff_small, small).is_zero():
                failures.append(f"diff_small squared nonzero on {chain_generator_str(spec, g)}")
        sym = diff_symmetric(spec, g)
        if not apply_diff(spec, diff_symmetric, sym).is_zero():
            failures.append(f"diff_symmetric squared nonzero on {chain_generator_str(spec, g)}")
        if semiclassical:
            weyl = diff_weyl(spec, g)
            if not apply_diff(spec, diff_weyl, weyl).is_zero():
                failures.append(f"diff_weyl squared nonzero on {chain_generator_str(spec, g)}")
    return checked, failures


def verify_chainmaps(spec: AlgebraSpec, bound: int) -> tuple[int, list[str]]:
    """f and g intertwine the Weyl and small differentials; g.f = id on K_C."""
    if spec.r != spec.n:
        return 0, ["chain-map suite needs a semi-classical spec (r = n)"]
    failures = []
    checked = 0
    for g in generators_up_to(spec, bound):
        if not is_in_C(spec, g.rho):
            continue
        checked += 1
        f_g, g_g = weyl_f_map(spec, g), weyl_g_map(spec, g)
        if apply_diff(spec, weyl_f_map, diff_small(spec, g)) != apply_diff(spec, diff_weyl, f_g):
            failures.append(f"f not a chain map at {chain_generator_str(spec, g)}")
        if apply_diff(spec, weyl_g_map, diff_weyl(spec, g)) != apply_diff(spec, diff_small, g_g):
            failures.append(f"g not a chain map at {chain_generator_str(spec, g)}")
        if apply_diff(spec, weyl_g_map, f_g) != ChainElement.single(spec, g):
            failures.append(f"g.f != id at {chain_generator_str(spec, g)}")
    return checked, failures


def verify_braiding(spec: AlgebraSpec, bound: int) -> tuple[int, list[str]]:
    from itertools import product

    failures = []
    checked = 0
    m = spec.num_generators
    for length in range(2, min(bound, 4) + 1):
        for word in product(range(1, m + 1), repeat=length):
            checked += 1
            if braiding_f_prime(spec, word):
                failures.append(f"f' nonzero on word {word}")
    return checked, failures


def verify_quotient(spec: AlgebraSpec, bound: int) -> tuple[int, list[str]]:
    failures = []
    checked = 0
    m = spec.num_generators
    for total in range(1, bound + 1):
        for rho in _compositions(total, m):
            if is_in_C(spec, rho):
                continue
            checked += 1
            result = quotient_strand_acyclicity(spec, rho)
            if not result.passed:
                failures.append(
                    f"quotient strand rho={rho} not exact in degree {result.failing_degree}"
                )
    return checked, failures


def verify_duality(spec: AlgebraSpec, bound: int) -> tuple[int, list[str]]:
    failures = []
    checked = 0
    for degree in range(spec.num_generators):
        checked += 1
        result = duality_identity_check(spec, degree, bound)
        if not result.passed:
            failures.append(
                f"degree {degree} wedge {result.wedge}: "
                f"row {result.inserted} product = {result.discrepancy}"
            )
            break
    return checked, failures


SUITES = {
    "complex": verify_complex,
    "chainmaps": verify_chainmaps,
    "braiding": verify_braiding,
    "quotient": verify_quotient,
    "duality": verify_duality,
}


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def _cmd_hh(spec: AlgebraSpec, args) -> tuple[int, dict]:
    report = hh_report(spec, args.wmin, args.wmax, representatives=args.representatives)
    entries = []
    for w, k, dim in report.nonzero_entries():
        entry = {"w": w, "k": k, "dim": dim}
        if args.representatives:
            entry["representatives"] = [
                str(rep) for rep in report.strands[w].representatives.get(k, [])
            ]
        entries.append(entry)
    doc = {
        "schema": SCHEMA,
        "command": "hh",
        "config": emit_config(spec),
        "wmin": report.w_min,
        "wmax": report.w_max,
        "entries": entries,
    }
    return 0, doc


def _cmd_cohh(spec: AlgebraSpec, args) -> tuple[int, dict]:
    degrees = list(range(spec.num_generators + 1))
    report = cohomology_report(spec, degrees, args.trunc)
    entries = [
        {"degree": e.degree, "dim": e.dimension, "method": e.method, "note": e.note}
        for e in report.entries
    ]
    doc = {
        "schema": SCHEMA,
        "command": "cohh",
        "config": emit_config(spec),
        "trunc": report.bound,
        "entries": entries,
    }
    return 0, doc


def _cmd_oracle(spec: AlgebraSpec, args) -> tuple[int, dict]:
    report = hh_report(spec, args.wmin, args.wmax, representatives=False)
    mismatches = []
    for w in sorted(report.strands):
        expected = expected_hh_oracle(spec, w)
        if expected is None:
            raise ConfigError("no closed-answer oracle for this parameter regime")
        ks = set(expected) | set(report.strands[w].dimensions)
        for k in sorted(ks):
            got = report.strands[w].dimensions.get(k, 0)
            want = expected.get(k, 0)
            if got != want:
                mismatches.append({"w": w, "k": k, "computed": got, "expected": want})
    doc = {
        "schema": SCHEMA,
        "command": "oracle",
        "config": emit_config(spec),
        "wmin": report.w_min,
        "wmax": report.w_max,
        "status": "pass" if not mismatches else "fail",
        "mismatches": mismatches,
    }
    return (0 if not mismatches else 1), doc


def _cmd_verify(spec: AlgebraSpec, args) -> tuple[int, dict]:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = []
    failed = False
    for name in names:
        if name == "chainmaps" and args.suite == "all" and spec.r != spec.n:
            results.append({"suite": name, "status": "skipped", "checked": 0, "failures": []})
            continue
        checked, failures = SUITES[name](spec, args.bound)
        failed = failed or bool(failures)
        status = "fail" if failures else "pass" if checked else "vacuous"
        results.append(
            {"suite": name, "status": status, "checked": checked, "failures": failures[:10]}
        )
    doc = {
        "schema": SCHEMA,
        "command": "verify",
        "config": emit_config(spec),
        "bound": args.bound,
        "results": results,
    }
    return (1 if failed else 0), doc


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: each parse_args returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="hochhom",
        description="Exact Hochschild (co)homology of mixed Weyl/q-commuting algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON config path or preset name")
        p.add_argument("--format", choices=["table", "json"], default="table")

    p_hh = sub.add_parser("hh", help="homology dimensions per weight strand")
    common(p_hh)
    p_hh.add_argument("--wmin", type=int, default=-6)
    p_hh.add_argument("--wmax", type=int, default=6)
    p_hh.add_argument("--representatives", action="store_true")

    p_cohh = sub.add_parser("cohh", help="windowed cohomology degrees")
    common(p_cohh)
    p_cohh.add_argument(
        "--trunc",
        type=int,
        default=6,
        help="window N: the polynomial degree bound for degrees 0 and 1, the weight range "
        "-(n+r)..N for degrees >= 2, and min(N, 3) for the duality check",
    )

    p_oracle = sub.add_parser("oracle", help="compare homology against the closed answers")
    common(p_oracle)
    p_oracle.add_argument("--wmin", type=int, default=-6)
    p_oracle.add_argument("--wmax", type=int, default=6)

    p_verify = sub.add_parser("verify", help="run machine checks")
    common(p_verify)
    p_verify.add_argument("--suite", choices=[*SUITES, "all"], default="all")
    p_verify.add_argument("--bound", type=int, default=4)
    return parser


def run(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # A negative window holds no monomials, so every answer from it would be vacuous.
    for option in ("trunc", "bound"):
        value = getattr(args, option, 0)
        if value < 0:
            print(f"argument error: --{option} must be >= 0, got {value}", file=sys.stderr)
            return 2
    try:
        spec = load_config(args.config)
        handler = {
            "hh": _cmd_hh,
            "cohh": _cmd_cohh,
            "oracle": _cmd_oracle,
            "verify": _cmd_verify,
        }[args.command]
        code, doc = handler(spec, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HochhomError as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    print(emit_report(doc, args.format))
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
