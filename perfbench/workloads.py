"""Workload definitions, seeded inputs and the output checker.

Every op is one ``hochhom`` command line, run through ``hochhom.cli.run``.
The checker never imports ``hochhom``: the closed-form dimensions below are
restated from the paper's structure results, and the ``cohh``/``verify``
reports are compared with ``references.json``, recorded at the commit that
introduced this benchmark.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

REFERENCES = Path(__file__).with_name("references.json")

# Digit counts of the three off-diagonal parameters of the certify oracle
# config.  ``is_free_of_maximal_rank`` factors them by trial division, whose
# cost grows like the square root of the parameter, so the leading digits are
# fixed too: the seed changes the primes, not the amount of work.
FREE_PRIME_DIGITS = (6, 9, 11)
FREE_PRIME_LEADING = 3


@dataclass(frozen=True)
class Op:
    """One command line and the closed form its output is checked against.

    ``family`` names the closed form for ``hh`` ops, for example
    ``("weyl", 3)`` or ``("mixed-minimal", 12)``; ``cohh`` and ``verify`` ops
    have none and are compared with the recorded reference instead.
    """

    argv: tuple[str, ...]
    family: tuple | None = None

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass
class Workload:
    ops: list[Op]
    configs: list[str]
    defect_ops: list[Op] = field(default_factory=list)
    files: dict[str, dict] = field(default_factory=dict)


def _hh(config: str, wmin: int, wmax: int, family: tuple, reps: bool = False) -> list[Op]:
    """One ``hh`` op per weight, so that each op is short (see README.md)."""
    tail = ("--representatives",) if reps else ()
    return [
        Op(("hh", "--config", config, "--wmin", str(w), "--wmax", str(w), *tail,
            "--format", "json"), family)
        for w in range(wmin, wmax + 1)
    ]


def _plain(*argv: str) -> Op:
    return Op(tuple(argv) + ("--format", "json"))


# ---------------------------------------------------------------------------
# Seeded inputs.
# ---------------------------------------------------------------------------


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for every n below 3.3 * 10**24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def seeded_prime(rng: random.Random, digits: int) -> int:
    """The first prime above a random point in [L * 10^(d-1), (L + 0.01) * 10^(d-1))."""
    base = FREE_PRIME_LEADING * 10 ** (digits - 1)
    n = base + rng.randrange(10 ** (digits - 3))
    while not is_prime(n):
        n += 1
    return n


def free_config(rng: random.Random) -> dict:
    """A free(3,1) config: lambda_{i,j} = 1/p and lambda_{j,i} = p above the diagonal."""
    values = [["1"] * 3 for _ in range(3)]
    pairs = [(0, 1), (0, 2), (1, 2)]
    for (i, j), digits in zip(pairs, FREE_PRIME_DIGITS):
        p = seeded_prime(rng, digits)
        values[i][j], values[j][i] = f"1/{p}", str(p)
    return {"n": 3, "r": 1, "scalar": {"type": "rational", "values": values}}


def build(name: str, seed: int, workdir: Path) -> Workload:
    """The workload's ops in a seed-dependent order, and the config files they read."""
    rng = random.Random(seed)
    files: dict[str, dict] = {}
    defect_ops: list[Op] = []
    if name == "hh-weyl":
        ops = [*_hh("weyl(3)", -6, -1, ("weyl", 3)), *_hh("weyl(2)", -4, 4, ("weyl", 2))]
    elif name == "hh-root-reps":
        ops = [
            *_hh("mixed-minimal(12)", -3, 40, ("mixed-minimal", 12), reps=True),
            *_hh("semiclassical(2,12,5)", -4, 12, ("weyl", 2), reps=True),
        ]
    elif name == "certify":
        free_path = workdir / "free.json"
        files[str(free_path)] = free_config(rng)
        ops = [
            _plain("cohh", "--config", "weyl(2)", "--trunc", "2"),
            _plain("cohh", "--config", "semiclassical(2,4,1)", "--trunc", "3"),
            _plain("cohh", "--config", "mixed-minimal(3)", "--trunc", "5"),
            _plain("verify", "--config", "semiclassical(2,4,1)", "--suite", "complex",
                   "--bound", "3"),
            _plain("verify", "--config", "mixed-minimal(2)", "--suite", "quotient", "--bound", "6"),
            *(_plain("oracle", "--config", str(free_path), "--wmin", str(w), "--wmax", str(w))
              for w in range(-2, 7)),
        ]
        # Known defect: braiding_f_prime returns a dict, so this suite crashes.
        # It runs once per pass outside the timed region; see README.md.
        defect_ops = [_plain("verify", "--config", "weyl(2)", "--suite", "braiding")]
    else:
        raise KeyError(name)
    rng.shuffle(ops)
    configs = sorted({op.argv[2] for op in ops})
    return Workload(ops, configs, defect_ops, files)


WORKLOADS = ("hh-weyl", "hh-root-reps", "certify")


# ---------------------------------------------------------------------------
# Closed forms (restated, not imported).
# ---------------------------------------------------------------------------


def closed_form(family: tuple, w: int) -> dict[int, int]:
    """Nonzero homology dimensions {k: dim} at weight w for a closed regime."""
    kind = family[0]
    dims: dict[int, int] = {}
    if kind == "weyl":
        # Weyl and semi-classical algebras: only the fundamental class (-2n, 2n).
        n = family[1]
        if w == -2 * n:
            dims[2 * n] = 1
    elif kind == "mixed-minimal":
        # Basis families z^s (degree 0, order does not divide s), z^s (x) z
        # (degree 1, order does not divide s+1), z^s (x) x^y (degree 2, order
        # divides s) and z^(s*order-1) (x) x^y^z (degree 3, s >= 1); a
        # generator of polynomial degree p in exterior degree k has weight p - k.
        order = family[1]
        if w >= 1 and w % order:
            dims[0] = 1
        if w >= -1 and (w + 2) % order:
            dims[1] = 1
        if w >= -2 and (w + 2) % order == 0:
            dims[2] = 1
        if w >= order - 4 and (w + 4) % order == 0:
            dims[3] = 1
    else:
        raise KeyError(kind)
    return dims


# ---------------------------------------------------------------------------
# The checker.
# ---------------------------------------------------------------------------


def load_references() -> dict[str, dict]:
    return json.loads(REFERENCES.read_text())


def _contains(got, want) -> bool:
    """Whether ``got`` matches ``want``, ignoring dict keys that ``want`` lacks.

    Keys added to a report later do not count as a wrong answer.
    """
    if isinstance(want, dict):
        return isinstance(got, dict) and all(
            k in got and _contains(got[k], v) for k, v in want.items()
        )
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_contains(g, w) for g, w in zip(got, want)))
    return got == want


def _weights(argv: tuple[str, ...], generators: int) -> range:
    wmin = int(argv[argv.index("--wmin") + 1])
    wmax = int(argv[argv.index("--wmax") + 1])
    return range(max(wmin, -generators), wmax + 1)


def check_op(op: Op, code, stdout: str, references: dict[str, dict]) -> str | None:
    """None when the op's output is right, else the reason it is not.

    ``code`` is the exit code, or the exception's text when ``run`` raised.
    """
    if not isinstance(code, int):
        return f"raised {code}"
    if code != 0:
        return f"exit code {code}, expected 0"
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return "output is not JSON"
    if op.command == "oracle":
        # The report lists mismatches against the program's closed forms, not
        # dimensions, so a pass with no mismatch is all there is to check.
        if doc.get("status") != "pass" or doc.get("mismatches"):
            return f"oracle status {doc.get('status')!r}"
        return None
    if op.family is None:
        want = references.get(op.key)
        if want is None:
            return "no recorded reference"
        return None if _contains(doc, want) else "report differs from the recorded reference"
    generators = doc["config"]["n"] + doc["config"]["r"]
    got = {(e["w"], e["k"]): e for e in doc["entries"]}
    want = {
        (w, k): dim
        for w in _weights(op.argv, generators)
        for k, dim in closed_form(op.family, w).items()
    }
    if {key: e["dim"] for key, e in got.items()} != want:
        return "dimensions differ from the closed form"
    if "--representatives" in op.argv:
        for (w, k), e in got.items():
            count = len(e.get("representatives", ()))
            if count != e["dim"]:
                return f"{count} representatives for dim {e['dim']} at w={w} k={k}"
    return None


KNOWN_BRAIDING_CRASH = "AttributeError: 'dict' object has no attribute 'is_zero'"


def defect_status(code, stdout: str) -> str:
    """'known-defect' while the braiding crash persists, 'fixed' once every suite passes."""
    if code == KNOWN_BRAIDING_CRASH:
        return "known-defect"
    try:
        results = json.loads(stdout)["results"] if code == 0 else []
    except (json.JSONDecodeError, KeyError):
        results = []
    if results and all(r.get("status") == "pass" for r in results):
        return "fixed"
    return "wrong"
