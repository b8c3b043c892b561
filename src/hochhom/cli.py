"""Command-line front end: config ingestion, dispatch, deterministic reports.

Subcommands:

* ``hh``     — homology dimensions per weight strand over a range.
* ``cohh``   — windowed cohomology degrees.
* ``oracle`` — compare computed homology against the closed-answer oracle.
* ``verify`` — machine checks (differential soundness, comparison chain
  maps, braiding vanishing, quotient acyclicity, duality identity, and the
  block count against elimination).  Each suite reports how many cases it
  checked; a suite that checked none is ``vacuous``, not ``pass``.

Exit codes: 0 success, 1 a verification or oracle failure, 2 a config error,
a negative ``--trunc``/``--bound`` window or an empty ``--wmin``..``--wmax``
range, 3 an internal failure of the computation (a ``HochhomError`` such as a
broken complex), each error reported on one stderr line.  ``oracle`` refuses a
parameter regime with no closed answer (exit 2) before it builds any strand;
otherwise a window wholly below the lowest weight -(n+r) compares nothing and
reports ``vacuous``.

Configs are JSON documents (``{"n": .., "r": .., "scalar": {..}}``) or one of
the built-in presets ``weyl(n)``, ``semiclassical(n,order,e)``, ``free(n,r)``,
``mixed-minimal(order)``.  Reports are emitted as JSON (schema-tagged,
byte-reproducible) or as a human table derived from the same data.

The front end costs an op little beyond its own math.  ``COMMANDS`` declares
each subcommand's options once; ``build_parser`` builds argparse from it, and
``_parse_fast`` reads argv of the exact form ``SUB --opt value ...`` from it
into the namespace argparse would return.  Any other argv (help, an
abbreviation, ``--opt=value``, a repeated option, every usage error) goes to
argparse, which is imported only then, so its usage text and exit 2 are its
own.  ``run`` keeps one spec per preset name or config file text it has run
(the file is read on every call), so later ops on a config reuse the tables
its spec caches; ``load_config`` builds a new spec on every call.  A JSON
report is laid out as ``json.dumps(report, indent=2)`` would, by a writer
that encodes each leaf as json's C encoder does and leaves any document with
another value type to ``json.dumps``.  A one-shot process gains only the
parsing and printing part.
"""
from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from functools import cache
from itertools import chain
from types import SimpleNamespace
from typing import TYPE_CHECKING, Optional

from .cohomology import cohomology_report, duality_identity_check
from .errors import ConfigError, HochhomError
from .homology import (
    detect_regime,
    expected_hh_oracle,
    hh_report,
    quotient_strand_acyclicity,
)
from .koszul import (
    ChainElement,
    apply_diff,
    block_chain_dimensions,
    block_homology,
    chain_generator_str,
    check_generator,
    diff_small,
    diff_weyl,
    is_in_C,
    keys_up_to,
    rho_of,
    strand_block,
    weyl_f_map,
    weyl_g_map,
    _compositions,
    _full,
    _lowering,
    _small,
    _strand_keys,
    _symmetric,
    _weyl,
)
from .linalg import homology_picks, matrix_of
from .scalar import AlgebraSpec, CyclotomicModel, RationalModel, as_integer

if TYPE_CHECKING:
    import argparse

SCHEMA = "hochhom-report/1"
MAX_GENERATORS = 6
# Q(zeta_m) elements hold phi(m) integers and the reduction table is built
# from x^m - 1, so time and memory grow linearly with the order m; at 10^4,
# hh on the mixed minimal config over w in [-2, 2] takes about 0.25 s in process.
MAX_CYCLOTOMIC_ORDER = 10_000
# A rational parameter may have at most this many digits in its numerator or
# denominator, counting the shift of a decimal exponent ("1e20000" has 20001).
MAX_PARAMETER_DIGITS = 1_000

# One prime per pair i < j of the free(n, r) preset, for every n allowed.
_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
# The syntax of a preset name; a config source of this form is never read as a file.
_PRESET = re.compile(r"([a-z-]+)\(([-0-9,\s]*)\)")


# ---------------------------------------------------------------------------
# Configuration.
# ---------------------------------------------------------------------------


def _check_size(n: int, r: int) -> None:
    """Refuse (n, r) outside 0 <= r <= n or past MAX_GENERATORS generators."""
    if not (0 <= r <= n):
        raise ConfigError(f"need 0 <= r <= n, got n={n} r={r}")
    if n + r > MAX_GENERATORS:
        raise ConfigError(f"n + r = {n + r} exceeds the supported bound {MAX_GENERATORS}")


def parse_config(doc: dict) -> AlgebraSpec:
    try:
        n, r = as_integer(doc["n"], "n"), as_integer(doc["r"], "r")
        scalar = doc["scalar"]
        kind = scalar["type"]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    _check_size(n, r)
    try:
        if kind == "rational":
            rows = scalar["values"]
            for row in rows:
                for v in row:
                    _check_parameter_digits(v)
            model = RationalModel([[Fraction(v) for v in row] for row in rows])
        elif kind == "cyclotomic":
            order = as_integer(scalar["order"], "the cyclotomic order")
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
    """Configs for the named parameter regimes, sized by ``_check_size`` before they are built."""
    m = _PRESET.fullmatch(name.strip())
    if not m:
        raise ConfigError(f"not a preset: {name!r}")
    kind = m.group(1)
    args = [as_integer(a, "a preset argument") for a in m.group(2).split(",") if a.strip()]
    if kind == "weyl" and len(args) == 1:
        n = args[0]
        _check_size(n, n)
        values = [["1"] * n for _ in range(n)]
        return {"n": n, "r": n, "scalar": {"type": "rational", "values": values}}
    if kind == "semiclassical" and len(args) == 3:
        n, order, e = args
        _check_size(n, n)
        exps = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if i < j:
                    exps[i][j], exps[j][i] = e, -e
        return {"n": n, "r": n, "scalar": {"type": "cyclotomic", "order": order, "exponents": exps}}
    if kind == "free" and len(args) == 2:
        n, r = args
        _check_size(n, r)
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
    """Load a config from a JSON file path or a preset name, as a new spec on every call."""
    return parse_config(_config_doc(source, _config_text(source)))


def _config_text(source: str) -> Optional[str]:
    """The text of the config file ``source``, or None when ``source`` is a preset name."""
    if _PRESET.fullmatch(source.strip()):
        return None
    try:
        with open(source) as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {source!r}: {exc}") from exc
    except ValueError as exc:  # bytes the file's encoding cannot decode
        raise _not_json(source, exc) from exc


def _config_doc(source: str, text: Optional[str]) -> dict:
    """The config document of a preset name (``text`` None) or of a config file's text."""
    if text is None:
        return preset_config(source)
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise _not_json(source, exc) from exc


def _not_json(source: str, exc: ValueError) -> ConfigError:
    return ConfigError(f"config {source!r} is not valid JSON: {exc}")


# The spec of every config ``run`` has loaded, keyed by its preset name or by
# its file's text (no preset name is valid JSON), so that the tables a spec
# caches are built once per process however many ops use it.
_SPECS: dict[str, AlgebraSpec] = {}


def _run_spec(source: str) -> AlgebraSpec:
    """The spec of ``source``, parsed on its first use only; a config that fails is not kept."""
    text = _config_text(source)
    key = source if text is None else text
    spec = _SPECS.get(key)
    if spec is None:
        spec = _SPECS[key] = parse_config(_config_doc(source, text))
    return spec


# ---------------------------------------------------------------------------
# Report rendering.
# ---------------------------------------------------------------------------


def emit_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        out = []
        try:
            _write_json(report, "\n", out)
        except _Unwritten:
            return json.dumps(report, indent=2, sort_keys=False)
        return "".join(out)
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


class _Unwritten(Exception):
    """A value ``_write_json`` leaves to ``json.dumps``."""


_encode_str = json.encoder.encode_basestring_ascii  # json's C string encoder


def _write_json(value, indent: str, out: list[str]) -> None:
    """Append the chunks of ``json.dumps(value, indent=2)`` to ``out``; ``indent`` opens a line.

    Knows dicts with str keys, lists, str, int, bool and None, and encodes
    each leaf as json does: a string with its C encoder, an int with
    ``int.__repr__``.  Anything else (a float, a tuple, a non-str key, a
    subclass) raises ``_Unwritten``.
    """
    kind = type(value)
    if kind is str:
        out.append(_encode_str(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner, sep = indent + "  ", "{"
        for key, item in value.items():
            if type(key) is not str:
                raise _Unwritten
            out.append(f"{sep}{inner}{_encode_str(key)}: ")
            _write_json(item, inner, out)
            sep = ","
        out.append(indent + "}")
    elif kind is list:
        if not value:
            out.append("[]")
            return
        inner, sep = indent + "  ", "["
        for item in value:
            out.append(sep + inner)
            _write_json(item, inner, out)
            sep = ","
        out.append(indent + "]")
    elif value is None:
        out.append("null")
    elif kind is bool:
        out.append("true" if value else "false")
    else:
        raise _Unwritten


# ---------------------------------------------------------------------------
# Verification suites.
# ---------------------------------------------------------------------------


# Each suite returns (cases checked, failure messages).


def verify_complex(spec: AlgebraSpec, bound: int) -> tuple[int, list[str]]:
    """d.d = 0 for every differential as one matrix product, d on the generators times d on
    their images; the closed form agrees with generic as one matrix, the full triples minus
    the symmetric and lowering ones.  A nonzero column names a failing generator."""
    columns = list(keys_up_to(spec, bound))
    in_C = [key for key in columns if is_in_C(spec, rho_of(key))]
    kernels = {"diff_full": _full, "diff_small": _small, "diff_symmetric": _symmetric}
    if spec.r == spec.n:
        kernels["diff_weyl"] = _weyl
    images, nonzero = {}, {}
    for name, kernel in kernels.items():
        keys = in_C if name == "diff_small" else columns
        image = images[name] = {g: list(kernel(spec, *g)) for g in keys}
        first, rows = matrix_of(spec.model, keys, image.__getitem__, check_generator)
        second, _ = matrix_of(
            spec.model, rows, lambda h: image.get(h) or kernel(spec, *h), check_generator
        )
        nonzero[name] = {keys[j] for _, j in second.compose(first).ints}
    full, symmetric = images["diff_full"], images["diff_symmetric"]

    def disagreement(g):  # the full triples minus the closed form's
        return chain(full[g], ((h, c, -k) for h, c, k in chain(symmetric[g], _lowering(spec, *g))))

    difference, _ = matrix_of(spec.model, columns, disagreement, check_generator)
    nonzero["closed"] = {columns[j] for _, j in difference.ints}
    failures = []
    for key in columns:
        for name in kernels:
            if key in nonzero[name]:
                failures.append(f"{name} squared nonzero on {chain_generator_str(spec, key)}")
            if name == "diff_full" and key in nonzero["closed"]:
                failures.append(f"closed form disagrees on {chain_generator_str(spec, key)}")
    return len(columns), failures


def verify_chainmaps(spec: AlgebraSpec, bound: int) -> tuple[int, list[str]]:
    """f and g intertwine the Weyl and small differentials; g.f = id on K_C (needs r = n)."""
    failures = []
    checked = 0
    for g in keys_up_to(spec, bound):
        if not is_in_C(spec, rho_of(g)):
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

    from .braiding import braiding_f_prime

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


def verify_blocks(spec: AlgebraSpec, bound: int) -> tuple[int, list[str]]:
    """Every block of every strand w in [-(n+r), bound] eliminated and compared with its closed form."""
    failures = []
    checked, one = 0, spec.one()
    for w in range(-spec.num_generators, bound + 1):
        for key, base, pairs in _strand_keys(spec, w):
            checked += 1
            block = strand_block(spec, w, key, base, pairs)
            classes = block_homology(spec, w, key, base, pairs)
            dims, picks = homology_picks(block.matrices, spec.one(), representatives=classes)
            found = {k: dim for k, dim in dims.items() if dim}
            count = {k: len(basis) for k, basis in classes.items()}
            # Each pick must be one generator with coefficient 1.
            picked = {k: [block.basis[k][j] for j, v in ps if v == {j: one}] for k, ps in picks.items()}
            if found != count:
                failures.append(f"block {key} of weight {w}: homology {found}, count {count}")
            elif picked != classes:
                failures.append(f"block {key} of weight {w}: classes {picked}, closed form {classes}")
            sizes = {k: len(basis) for k, basis in block.basis.items()}
            if sizes != block_chain_dimensions(spec, w, key, base, pairs):
                failures.append(f"block {key} of weight {w}: chain dimensions {sizes} miscounted")
    return checked, failures


SUITES = {
    "complex": verify_complex,
    "chainmaps": verify_chainmaps,
    "braiding": verify_braiding,
    "quotient": verify_quotient,
    "duality": verify_duality,
    "blocks": verify_blocks,
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
    # Refused before any strand is built, whatever the window.
    if detect_regime(spec) == "unsupported":
        raise ConfigError("no closed-answer oracle for this parameter regime")
    report = hh_report(spec, args.wmin, args.wmax, representatives=False)
    mismatches = []
    for w in sorted(report.strands):
        expected = expected_hh_oracle(spec, w)
        for k in sorted(set(expected) | set(report.strands[w].dimensions)):
            got, want = report.dimension(w, k), expected.get(k, 0)
            if got != want:
                mismatches.append({"w": w, "k": k, "computed": got, "expected": want})
    doc = {
        "schema": SCHEMA,
        "command": "oracle",
        "config": emit_config(spec),
        "wmin": report.w_min,
        "wmax": report.w_max,
        "status": "fail" if mismatches else "pass" if report.strands else "vacuous",
        "mismatches": mismatches,
    }
    return (0 if not mismatches else 1), doc


def _cmd_verify(spec: AlgebraSpec, args) -> tuple[int, dict]:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = []
    failed = False
    for name in names:
        if name == "chainmaps" and spec.r != spec.n:
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


# Each subcommand's help and options, flag -> (kind, default, help).  A kind is
# int, str, a tuple of choices, or bool for a flag; --config, the one option
# with no default, is required.  build_parser and _parse_fast both read it.
_COMMON = {
    "--config": (str, None, "JSON config path or preset name"),
    "--format": (("table", "json"), "table", None),
}
_WINDOW = {"--wmin": (int, -6, None), "--wmax": (int, 6, None)}
COMMANDS = {
    "hh": (
        "homology dimensions per weight strand",
        {**_COMMON, **_WINDOW, "--representatives": (bool, False, None)},
    ),
    "cohh": (
        "windowed cohomology degrees",
        {
            **_COMMON,
            "--trunc": (
                int,
                6,
                "window N: the polynomial degree bound for degrees 0 and 1, and the weight "
                "range -(n+r)..N for degrees >= 2",
            ),
        },
    ),
    "oracle": ("compare homology against the closed answers", {**_COMMON, **_WINDOW}),
    "verify": (
        "run machine checks",
        {**_COMMON, "--suite": ((*SUITES, "all"), "all", None), "--bound": (int, 4, None)},
    ),
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of ``COMMANDS``, built once: each parse_args returns a fresh namespace."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="hochhom",
        description="Exact Hochschild (co)homology of mixed Weyl/q-commuting algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, options) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for flag, (kind, default, text) in options.items():
            if kind is bool:
                p.add_argument(flag, action="store_true", help=text)
            elif default is None:
                p.add_argument(flag, required=True, help=text)
            elif kind is int:
                p.add_argument(flag, type=int, default=default, help=text)
            else:
                p.add_argument(flag, choices=kind, default=default, help=text)
    return parser


_NEGATIVE = re.compile(r"-[0-9]+")


def _parse_fast(argv: list[str]) -> Optional[SimpleNamespace]:
    """The namespace argparse returns for ``SUB --opt value ... [--flag]``, or None.

    Each option of ``COMMANDS[SUB]`` may appear once, --config must, and each
    value must be one argparse takes as it stands.  Any other argv, such as
    help, an abbreviation, ``--opt=value``, a repeated option, a missing or
    refused value, or a value starting with "-" other than a negative integer
    for an int option, is declined and left to argparse.
    """
    if not argv or not all(isinstance(token, str) for token in argv) or argv[0] not in COMMANDS:
        return None
    options = COMMANDS[argv[0]][1]
    given = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        if flag not in options or flag in given:
            return None
        kind = options[flag][0]
        if kind is bool:
            given[flag] = True
            continue
        value = next(tokens, None)
        if value is None or value[:1] == "-" and not (kind is int and _NEGATIVE.fullmatch(value)):
            return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif kind is not str and value not in kind:
            return None
        given[flag] = value
    if "--config" not in given:
        return None
    args = SimpleNamespace(command=argv[0])
    for flag, (_, default, _) in options.items():
        setattr(args, flag[2:], given.get(flag, default))
    return args


def run(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_fast(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    # A negative window holds no monomials, so every answer from it would be vacuous.
    for option in ("trunc", "bound"):
        value = getattr(args, option, 0)
        if value < 0:
            print(f"argument error: --{option} must be >= 0, got {value}", file=sys.stderr)
            return 2
    if getattr(args, "wmin", 0) > getattr(args, "wmax", 0):
        print(f"argument error: --wmin {args.wmin} exceeds --wmax {args.wmax}", file=sys.stderr)
        return 2
    try:
        spec = _run_spec(args.config)
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
