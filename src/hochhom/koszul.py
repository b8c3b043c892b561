"""Koszul-type chain complexes for A_{n,r}^Lambda.

Four differentials live here:

* ``diff_full`` — the full complex K on generators x^alpha y^beta (x) wedge,
  computed by the generic coefficient formula driven through PBW
  multiplication (the authoritative route).  It equals ``diff_symmetric``
  (the exponent-raising part) plus the exponent-lowering Weyl contraction
  terms, a closed form that ``verify --suite complex`` checks term by term.
* ``diff_small`` — the small complex K_C: only the exponent-lowering terms,
  defined on generators whose total degree rho lies in the set C.
* ``diff_symmetric`` — the quantum symmetric algebra complex, used for the
  quotient strands that witness the K -> K_C reduction.
* ``diff_weyl`` — the classical Weyl-algebra Koszul differential, the target
  of the semi-classical comparison maps f and g.

Each is a kernel on raw (mono, wedge) keys (``_full``, ``_small`` over
``_lowering``, ``_symmetric``, ``_weyl``) that yields ((mono, wedge),
lambda~-character, int) triples; ``linalg.matrix_of`` builds every matrix
from them with no scalar per term, and ``diff_*`` sum them into a
``ChainElement``, a ``Combination`` keyed by the same (mono, wedge) tuples,
as cochains are keyed by (I, mono).  ``check_generator`` checks a key, its
length n + r included, where it arrives from a caller (each ``diff_*``, each
Weyl map and ``ChainElement.single``) and every key a kernel yields to a
``diff_*``.
The module also provides the membership test for C,
weight-strand enumeration, and the comparison scalar R with the maps
``weyl_f_map`` and ``weyl_g_map``.  Every coefficient and column product is
a lambda~-character: entries of the spec's table summed
(``AlgebraSpec.character`` or ``add_character``), or a row of the lowering
table below.

A weight strand of K_C is a direct sum of fine blocks.  The small
differential lowers rho_{x_i} and rho_{y_i} together and never changes
rho_{y_j} for j > r, so it preserves the block key (rho_{x_i} - rho_{y_i})_{i<=r}
+ (rho_{y_j})_{j>r}.  The rho with a given key are its base point (the
smallest of them) plus t_i (x_i + y_i) with t_i >= 0.  Row x_i of the
extended parameter matrix is the entrywise inverse of row y_i, so the column
characters are constant on a block and membership in C is decided once per
key: a key whose base point touches a bad column has no point in C, and the
points in C of any other key raise only the Weyl pairs whose two columns are
good.  At the base point the column characters are linear in the signed
key, so when the lattice is Z/t alone (every lambda a root of unity, period
t) they depend only on the key mod t: keys are walked residue class by
residue class, and only classes that hold a key are visited.  An exact
lattice (period 0) is one class, decided key by key.  Strands are built
key first: for each key with a generator in C and each of its points rho of
total degree w + 2k, the degree-k generators are rho minus a wedge on a
k-subset of the support of rho.  No generator outside C is built, and a
block's basis is a list of (mono, wedge) tuples, its matrices built from
the lowering kernel (``_lowering``).  The kernel reads one table per spec
(``AlgebraSpec.lowering_table``), a row per lowering term: the wedge
position it removes (its prefix sets the sign), the exponent it lowers, and
its lambda~ factors that are not 1.  A term's character is a sparse dot
product, empty when every lambda is 1, and its image changes one index of
each tuple.

The block lemma (``block_homology``).  Let a block of weight w have key
delta, base point b with s = |supp b|, and p raisable pairs P.  If
delta_i != 0 for some i in P, the block is acyclic.  Otherwise its homology
sits in the degree k = (|b| + 2p - w) / 2 (none if k is not an integer),
with basis x^{b - 1_S} (x) (wedge_{i in P} x_i y_i) wedge v_S, coefficient
1, one class for each of the C(s, k - 2p) (k - 2p)-subsets S of supp b.

Proof: a twisted Kunneth over the raisable pairs.  The characters are
trivial on the block, so its points are b + sum_i t_i (x_i + y_i) over the
raisable pairs with every t_i >= 0; a pair that is not raisable has both
columns bad, so it has delta_i = 0 and stays at 0.  A generator is a part
on each raisable pair (its t_i and its wedge on x_i, y_i) times a part on
the spectators, the columns of supp b outside those pairs, which no term
changes.  The differential is
d = sum_i d_i, where d_i removes x_i (y_i) from the wedge and lowers the
exponent of y_i (x_i), with coefficient that exponent times a sign and a
lambda-character value: nonzero exactly when the exponent is.  The part of
d d = 0 that lowers pair i twice is d_i d_i = 0.

One pair, the rest fixed: d_i changes nothing else, and the rest enters its
coefficients only through nonzero factors.  At a fixed weight its degree-j
part sits at t_i = t0 + j (j = 0, 1, 2).  For t0 >= 0 the part is
1 -> 2 -> 1-dimensional, every exponent met is >= 1, so both maps have rank
1 and it is exact.  For t0 = -1 it is x^{b_x} y^{b_y} (x) x_i y_i in degree
2 over x^{b_x - 1} (x) x_i or y^{b_y - 1} (x) y_i in degree 1 when
delta_i != 0, mapped by |delta_i| != 0 (exact), and over nothing when
delta_i = 0: one class x_i y_i, in degree 2 and weight -2.  For t0 <= -2
it is 0.

The block: the pieces with sum_{j != i} t_j <= f are subcomplexes, since
d_i keeps that sum and each other d_j lowers it by one; their quotients are
sums of one-pair complexes under d_i.  If delta_i != 0 these are exact, so
by the long exact sequences the block is.  If every delta_i = 0, the span
B' of the generators with pair i at 1 (x) x_i y_i is a subcomplex (d_i
needs a positive exponent on pair i), and the block modulo B' is exact by
the same filtration, so H(block) = H(B').  B' is the block without pair i,
shifted by degree 2 and weight -2, with a differential of the same kind.
By induction on p, H is that of the spectators, here all s columns of
supp b, where d = 0: a wedge v_S on k - 2p of them at weight
|b| - 2(k - 2p) - 2p = w.  For r = 0 this is Wambst's differential-free
small complex of a quantum affine space.  The classes are cycles, as d
lowers only exponents on P, which are 0 in them, and bound nothing, as they
are the generators of the innermost B' at weight w.

Corollary: a block with homology has delta_i = 0 on every Weyl pair i.
Proof: by the lemma on a raisable pair; a pair that is not raisable has both
columns bad, so every key with a generator has delta_i = 0 there.

A block's chain dimensions (``block_chain_dimensions``) are binomial sums:
raising b by T = (w + 2k - |b|) / 2 along the pairs, a pair raised by
t_i > 0 adds two columns to the support when delta_i = 0 and one otherwise.
"""
from __future__ import annotations

from itertools import chain, combinations
from math import comb, gcd
from operator import add, sub
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple

from .algebra import Combination, commutator_with_generator, generator_name, monomial_str
from .errors import (
    IndexOutOfRange,
    NotInSmallComplex,
    NotSemiClassical,
)
from .linalg import SparseMatrix, matrix_of
from .scalar import AlgebraSpec, Scalar

Exponents = tuple[int, ...]
Key = tuple[Exponents, Exponents]  # (mono, wedge)
Basis = list[Key]


def check_generator(key: Key, length: int | None = None) -> None:
    """Raise IndexOutOfRange unless (mono, wedge) has equal lengths, ``length`` when given,
    mono >= 0 and wedge in {0, 1}."""
    mono, wedge = key
    if (
        len(mono) != len(wedge)
        or length is not None and len(mono) != length
        or min(mono, default=0) < 0
        or not {*wedge} <= {0, 1}
    ):
        raise IndexOutOfRange(f"bad chain generator {key}")


def rho_of(key: Key) -> Exponents:
    """The total multidegree mono + wedge of a (mono, wedge) key."""
    return tuple(map(add, *key))


def chain_generator_str(spec: AlgebraSpec, key: Key) -> str:
    mono, wedge = key
    wedge_names = [generator_name(spec, i + 1) for i, b in enumerate(wedge) if b]
    return f"{monomial_str(spec, mono)} (x) {'^'.join(wedge_names) or '1'}"


class ChainElement(Combination):
    """A finite scalar combination of chain generators, keyed by (mono, wedge) tuples."""

    __slots__ = ()

    @classmethod
    def single(cls, spec: AlgebraSpec, key: Key, coeff=None) -> "ChainElement":
        check_generator(key, spec.num_generators)
        return cls(spec, {key: spec.one() if coeff is None else coeff})

    def __str__(self):
        keys = sorted(self.terms)
        return " + ".join(f"{self.terms[k]}*{chain_generator_str(self.spec, k)}" for k in keys) or "0"


def _without(vec: Exponents, index0: int) -> Exponents:
    return vec[:index0] + (0,) + vec[index0 + 1 :]


def _chain(spec: AlgebraSpec, kernel, key: Key) -> ChainElement:
    """The chain element summing the triples ``kernel`` yields on a key, every key checked."""
    m = spec.num_generators
    check_generator(key, m)
    triples = list(kernel(spec, *key))
    for image, _, _ in triples:
        check_generator(image, m)
    return ChainElement.from_triples(spec, triples)


# ---------------------------------------------------------------------------
# Membership in C.
# ---------------------------------------------------------------------------


def is_in_C(spec: AlgebraSpec, rho: Iterable[int]) -> bool:
    """Whether a total multidegree lies in the set C.

    Definition: for every column i, rho_i = 0 or the column product
    prod_k lambda~_{k,i}^{rho_k} equals 1.  Strand enumeration uses the
    once-per-block rule of ``bad_columns`` instead; the tests check both that
    rule and a characterization pairing each Weyl column with its partner
    against this definition.
    """
    rho = tuple(rho)
    m = spec.num_generators
    if len(rho) != m or any(e < 0 for e in rho):
        raise IndexOutOfRange(f"bad multidegree {rho}")
    return all(rho[i - 1] == 0 or _column_is_one(spec, rho, i) for i in range(1, m + 1))


def _column_is_one(spec: AlgebraSpec, rho: Exponents, i: int) -> bool:
    """Whether the column product prod_k lambda~_{k,i}^{rho_k} (i 1-based) is 1."""
    return spec.monomial_is_one((k, i, e) for k, e in enumerate(rho, 1) if e)


def block_key(spec: AlgebraSpec, rho: Exponents) -> Exponents:
    """The fine-block key (rho_{x_i} - rho_{y_i})_{i<=r} + (rho_{y_j})_{j>r}."""
    r = spec.r
    return tuple(rho[i] - rho[r + i] for i in range(r)) + tuple(rho[2 * r :])


def _base_point(spec: AlgebraSpec, key: Exponents) -> Exponents:
    """The smallest rho with this key: rho_{x_i} = max(delta_i, 0), rho_{y_i} = max(-delta_i, 0)."""
    deltas = key[: spec.r]
    return (
        tuple([d if d > 0 else 0 for d in deltas] + [-d if d < 0 else 0 for d in deltas])
        + key[spec.r :]
    )


def bad_columns(spec: AlgebraSpec, key: Exponents) -> tuple[int, ...]:
    """The 0-based columns whose character is not 1 on the block with this key.

    The characters are constant on a block, and at its base point the
    character of column x_i (y_i's is its inverse) or y_j is linear in the
    signed key, summed over ``AlgebraSpec.block_characters``.  When the
    lattice is Z/t alone (period t), it depends only on the key mod t;
    ``_strand_keys`` decides whole residue classes that way and calls this
    only on exact lattices (period 0), key by key.

    A rho with this key lies in C exactly when rho_c = 0 for every column c
    returned: a key whose base point touches such a column has no generator
    in C, and otherwise only the Weyl pairs with both columns good can be
    raised.
    """
    model, r = spec.model, spec.r
    bad = []
    for j, row in enumerate(spec.block_characters):
        acc = [0] * model.rank
        for k, ch in zip(key, row):
            if k:
                acc = [a + k * x for a, x in zip(acc, ch)]
        if not model.is_trivial(acc):
            bad.append(j)
    return tuple([j for j in bad if j < r] + [r + j for j in bad])


# ---------------------------------------------------------------------------
# Differentials.
# ---------------------------------------------------------------------------


def diff_full(spec: AlgebraSpec, key: Key) -> ChainElement:
    """The full differential, by the generic coefficient formula (``_full``)."""
    return _chain(spec, _full, key)


def _full(spec: AlgebraSpec, mono: Exponents, wedge: Exponents):
    """The ((mono, wedge), character, int) triples of the full differential.

    d(v^A (x) v^G) = sum_i Omega(G;i) (v^A . v_i) (x) v^{G-[i]}
                   + sum_i Theta(G;i) (v_i . v^A) (x) v^{G-[i]}

    with the braided coefficients Omega, Theta over the extended parameter
    matrix, each a character and a sign, and both products evaluated through
    PBW multiplication.  The two signs are opposite, so each i is one braided
    commutator of v^A with v_i (``commutator_with_generator``), with Theta's
    character on the left and Omega's on the right.
    """
    add, model = spec.add_character, spec.model
    positions = [k for k, e in enumerate(wedge, 1) if e]
    for i in positions:
        omega, theta = [0] * model.rank, [0] * model.rank
        for k in positions:
            if k < i:
                add(omega, k, i)
            elif k > i:
                add(theta, i, k)
        # Theta's sign (-1)^(|G| + |G after i|) is -(-1)^(|G before i|), Omega's negated.
        sign = 1 if sum(wedge[: i - 1]) % 2 else -1
        new_wedge = _without(wedge, i - 1)
        left, right = model.reduce(theta), model.reduce(omega)
        for prod, char, k in commutator_with_generator(spec, i, mono, left, right, sign):
            yield (prod, new_wedge), char, k


def _lowering(spec: AlgebraSpec, mono: Exponents, wedge: Exponents):
    """The exponent-lowering (Weyl contraction) terms of the differential.

    Yields ((mono, wedge), character, int) triples by the closed coefficient
    formulas, one per row of ``AlgebraSpec.lowering_table``: the x_i terms
    for i <= r, then the y_j terms.  They make up the small-complex
    differential, and with ``_symmetric`` the full one.
    """
    model = spec.model
    rank, torsion = model.rank, model.torsion
    vec = mono + wedge
    for w, e, sign, pairs in spec.lowering_table:
        top = mono[e]
        if wedge[w] and top:
            acc = [0] * rank
            for p, ch in pairs:
                f = vec[p]
                if f:
                    for c, x in ch:
                        acc[c] += f * x
            acc[0] %= torsion
            yield (
                (mono[:e] + (top - 1,) + mono[e + 1 :], wedge[:w] + (0,) + wedge[w + 1 :]),
                tuple(acc),
                -sign * top if wedge[:w].count(1) % 2 else sign * top,
            )


def diff_small(spec: AlgebraSpec, key: Key) -> ChainElement:
    """The small-complex differential: only the exponent-lowering terms (``_small``)."""
    return _chain(spec, _small, key)


def _small(spec: AlgebraSpec, mono: Exponents, wedge: Exponents):
    """``_lowering`` on a generator with rho in C, else NotInSmallComplex; its image stays in C."""
    rho = rho_of((mono, wedge))
    if not is_in_C(spec, rho):
        raise NotInSmallComplex(f"rho={rho} is not in C")
    return _lowering(spec, mono, wedge)


def diff_symmetric(spec: AlgebraSpec, key: Key) -> ChainElement:
    """The quantum symmetric algebra differential (``_symmetric``); preserves rho exactly."""
    return _chain(spec, _symmetric, key)


def _symmetric(spec: AlgebraSpec, mono: Exponents, wedge: Exponents):
    """The triples of the quantum symmetric algebra differential.

    Removing wedge i raises mono_i by +-base (1 - bracket) for two characters:
    a triple on base with the sign and one on base + bracket with the other.
    """
    add, model = spec.add_character, spec.model
    support = [(k, a, e) for k, (a, e) in enumerate(zip(mono, wedge), 1) if a or e]
    for i in range(1, spec.num_generators + 1):
        if not wedge[i - 1]:
            continue
        base, bracket = [0] * model.rank, [0] * model.rank
        for k, a, e in support:
            add(bracket, i, k, a + e)
            f = e if k < i else a  # lambda~_{i,i} = 1
            if f:
                add(base, k, i, f)
        if model.is_trivial(bracket):
            continue
        key = (mono[: i - 1] + (mono[i - 1] + 1,) + mono[i:], _without(wedge, i - 1))
        sign = -1 if sum(wedge[: i - 1]) % 2 else 1
        base = model.reduce(base)
        yield key, base, sign
        yield key, model.add(base, model.reduce(bracket)), -sign


def diff_weyl(spec: AlgebraSpec, key: Key) -> ChainElement:
    """The classical Weyl-algebra Koszul differential (``_weyl``)."""
    return _chain(spec, _weyl, key)


def _weyl(spec: AlgebraSpec, mono: Exponents, wedge: Exponents):
    """The triples of the classical Weyl-algebra Koszul differential (all parameters 1).

    Removing wedge x_i lowers beta_i (coefficient -eps beta_i), removing y_j
    lowers alpha_j (eps alpha_j); eps is (-1)^(wedge factors before it).
    """
    if spec.r != spec.n:
        raise NotSemiClassical("the Weyl complex needs r = n")
    r, trivial = spec.r, (0,) * spec.model.rank
    for w, e, sign in [(i, r + i, -1) for i in range(r)] + [(r + j, j, 1) for j in range(r)]:
        if wedge[w] and mono[e]:
            key = (mono[:e] + (mono[e] - 1,) + mono[e + 1 :], _without(wedge, w))
            yield key, trivial, sign * (-1) ** sum(wedge[:w]) * mono[e]


# ---------------------------------------------------------------------------
# Weight strands of the small complex.
# ---------------------------------------------------------------------------


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to `total`, in lex order.

    Each step raises the entry just before the last nonzero one among
    positions 1.. and moves the rest of that entry's mass to the end.
    """
    if parts == 0 or total < 0:
        if parts == 0 and total == 0:
            yield ()
        return
    a = [0] * (parts - 1) + [total]
    while True:
        yield tuple(a)
        j = parts - 1
        while j > 0 and not a[j]:
            j -= 1
        if j == 0:
            return
        rest = a[j]
        a[j] = 0
        a[j - 1] += 1
        a[-1] = rest - 1


def _values(residue: int, step: int, signed: bool, cap: int) -> list[tuple[int, int]]:
    """(v, |v|) for every v = residue (mod step) with |v| <= cap, by |v|; v >= 0 unless signed."""
    ups = range(residue, cap + 1, step)
    values = sorted(chain(ups, range(residue - step, -cap - 1, -step)), key=abs) if signed else ups
    return [(v, abs(v)) for v in values]


def _residues(t: int, budget: int, signed: bool, start: int = 0, step: int = 1):
    """(x mod t, |v|) for every x = start (mod step) whose smallest value v has |v| <= budget.

    By |v|; step divides t.
    """
    values = _values(start, step, signed, min(budget, t // 2 if signed else t - 1))
    return [(v % t, c) for v, c in values if 2 * v != -t]


def _solve(equations: Iterable[tuple[int, int]], t: int) -> tuple[int, int] | None:
    """The x with a x = b (mod t) for every (a, b), as (x0, step): x = x0 (mod step), step | t.

    None when there is none.  Each congruence is solved on the solutions
    x0 + step y of those before it.
    """
    x0, step = 0, 1
    for a, b in equations:
        g = gcd(a * step, t)
        rhs = b - a * x0
        if rhs % g:
            return None
        x0 += step * (rhs // g * pow(a * step // g, -1, t // g) % (t // g))
        step *= t // g
    return x0 % step, step


def _bounded(options: list, budget: int, parity: int | None = None):
    """(items, cost) for every tuple taking one (item, cost) from each list, each sorted by cost.

    The total cost is at most budget and, when a parity is given, of that parity.
    """
    if not options:
        if budget >= 0 and not parity:
            yield (), 0
        return
    for item, cost in options[0]:
        if cost > budget:
            break
        rest = None if parity is None else (parity - cost) % 2
        for tail, spent in _bounded(options[1:], budget - cost, rest):
            yield (item,) + tail, cost + spent


def _key_classes(spec: AlgebraSpec, cap: int, caps: list[int]):
    """(residues, free) for every class of block keys mod the period t with a key of size <= cap.

    Keys in one class have the same characters, so the same bad columns, and
    a coordinate is free when its column(s) are good.  A class holds a key
    of size <= cap, each coordinate j within caps[j], exactly when every
    nonzero residue is free and the smallest values of the residues keep
    those bounds.  The first n - 1 residues are walked under them; given
    them, the free conditions of the nonzero ones are congruences in the
    last residue (``_solve``), and a nonzero last residue also needs the
    last column good (its own entry is 0).  An exact lattice (period 0) is
    one class in which every coordinate is free.
    """
    n, r, t = spec.n, spec.r, spec.model.period
    if not t:
        yield (0,) * n, (True,) * n
        return
    table = [[ch[0] for ch in row] for row in spec.block_characters]
    last = n - 1
    for prefix, spent in _bounded([_residues(t, caps[j], j < r) for j in range(last)], cap):
        chars = [sum(x * a for x, a in zip(prefix, row)) % t for row in table]
        solution = _solve(((table[s][last], -chars[s]) for s in range(last) if prefix[s]), t)
        if solution is None:
            continue
        budget = min(cap - spent, caps[last]) if not chars[last] else 0
        for x, _ in _residues(t, budget, last < r, *solution):
            yield prefix + (x,), tuple(not (c + x * row[last]) % t for c, row in zip(chars, table))


def _strand_keys(spec: AlgebraSpec, w: int, delta_zero: bool = False):
    """(key, base point, raisable pairs) for every block of weight w with a generator.

    Keys are walked class by class (``_key_classes``): a class's keys set its
    coordinates that are not free to 0 and give each free one every value of
    its residue, either sign on a delta coordinate, of total size at most
    w + 2n and of the parity of w.  On an exact lattice the one class holds
    every key, and a key whose base point touches a bad column is left out.
    With ``delta_zero`` every delta coordinate is capped at 0: only the
    blocks that can carry homology (the block lemma's corollary) are walked.
    The pairs listed have both columns good.  Raising the base point b by T
    along them reaches degree k = (|b| + 2T - w) / 2, and some point there
    has k columns in its support exactly when T = 0 or a pair is raisable,
    and k <= s + 2 min(T, z) + min(T - z, nz) for s = |supp b|, the z
    raisable pairs with delta_i = 0 and the nz with delta_i != 0.

    Why |b| <= w + 2n: a Weyl pair with delta_i = 0 has both columns out of
    supp b, one with delta_i != 0 has one column in it, and each y_j (j > r)
    adds at most one column, so s + z <= n.  With |b| = w + 2k - 2T, the
    bound on k gives |b| <= w + 2s + 2T <= w + 2(s + z) when T <= z, and
    |b| <= w + 2(s + 2z + (T - z)) - 2T = w + 2(s + z) when T > z.
    """
    n, r, m = spec.n, spec.r, spec.num_generators
    cap, period = w + 2 * n, spec.model.period
    caps = [0 if delta_zero and j < r else cap for j in range(n)]
    for residues, free in _key_classes(spec, cap, caps):
        pairs = [i for i in range(r) if free[i]]
        options = [
            _values(x, period or 1, j < r, caps[j]) if f else [(0, 0)]
            for j, (x, f) in enumerate(zip(residues, free))
        ]
        for key, size in _bounded(options, cap, w % 2):
            base = _base_point(spec, key)
            if not period:
                bad = bad_columns(spec, key)
                if any(base[c] for c in bad):
                    continue
                pairs = [i for i in range(r) if i not in bad]
            z, support = sum(1 for i in pairs if not key[i]), m - base.count(0)
            if any(
                k <= support + 2 * min(t, z) + min(max(t - z, 0), len(pairs) - z)
                for k, t in ((k, (w + 2 * k - size) // 2) for k in range(m + 1))
                if t == 0 or (t > 0 and pairs)
            ):
                yield key, base, pairs


def block_homology(
    spec: AlgebraSpec, w: int, key: Exponents, base: Exponents, pairs
) -> dict[int, Basis]:
    """{k: sorted classes of H_k} of the block of a ``_strand_keys`` triple; {} if acyclic."""
    p, support = len(pairs), [c for c, e in enumerate(base) if e]
    k, odd = divmod(sum(base) + 2 * p - w, 2)
    if odd or any(key[i] for i in pairs) or not 0 <= k - 2 * p <= len(support):
        return {}
    paired = {*pairs, *(spec.r + i for i in pairs)}
    # Subsets S in lexicographic order give their tuples in sorted order.
    classes = [
        (tuple(e - (c in cols) for c, e in enumerate(base)),
         tuple(int(c in paired or c in cols) for c in range(len(base))))
        for cols in combinations(support, k - 2 * p)
    ]
    return {k: classes}


def block_chain_dimensions(
    spec: AlgebraSpec, w: int, key: Exponents, base: Exponents, pairs
) -> dict[int, int]:
    """{k: dim C_k} of the block of a ``_strand_keys`` triple, for every degree k.

    With s = |supp b|, z (nz) the raisable pairs with delta_i = 0 (!= 0) and
    T = (w + 2k - |b|) / 2: C(s, k) when T = 0, else the sum over a + b >= 1
    of C(z, a) C(nz, b) C(T - 1, a + b - 1) C(s + 2a + b, k), choosing the
    a + b pairs raised and a composition of T into them.
    """
    z = sum(1 for i in pairs if not key[i])
    nz, s, excess = len(pairs) - z, len(base) - base.count(0), w - sum(base)
    dims = {}
    for k in range(spec.num_generators + 1):
        t, odd = divmod(excess + 2 * k, 2)
        dims[k] = (
            0 if odd or t < 0
            else comb(s, k) if t == 0
            else sum(
                comb(z, a) * comb(nz, b) * comb(t - 1, a + b - 1) * comb(s + 2 * a + b, k)
                for a in range(z + 1)
                for b in range(nz + 1)
                if a + b
            )
        )
    return dims


class StrandBlock(NamedTuple):
    """One fine block of a weight strand: the generators with one block key.

    basis[k] lists the block's degree-k generators as (mono, wedge) tuples in
    lexicographic order; matrices[k] maps the block's degree-k coordinates to
    its degree-(k-1) coordinates, for every k in 1..n+r.
    """

    key: Exponents
    basis: dict[int, Basis]
    matrices: dict[int, SparseMatrix]


class StrandComplex(NamedTuple):
    """The weight-w strand of the small complex, as the direct sum of its blocks."""

    weight: int
    chain_dimensions: dict[int, int]
    blocks: list[StrandBlock]

    @property
    def generators(self) -> dict[int, Basis]:
        """The degree-k generators as (mono, wedge) tuples, sorted."""
        return {k: sorted(t for b in self.blocks for t in b.basis[k]) for k in self.chain_dimensions}


def splittings(rho: Exponents, k: int) -> Basis:
    """The degree-k generators (rho - wedge, wedge), one per k-subset of the support of rho."""
    support = [c for c, e in enumerate(rho) if e]
    wedges = (tuple(int(c in cols) for c in range(len(rho))) for cols in combinations(support, k))
    return [(tuple(map(sub, rho, wedge)), wedge) for wedge in wedges]


def strand_block(spec: AlgebraSpec, w: int, key: Exponents, base: Exponents, pairs) -> StrandBlock:
    """The block of a ``_strand_keys`` triple, with its basis and matrices.

    A key's points in C are its base point raised along the pairs it may
    raise, and a point rho of degree w + 2k gives the degree-k generators
    rho - wedge, one per k-subset of the support of rho, sorted.
    """
    m, r = spec.num_generators, spec.r
    basis: dict[int, Basis] = {}
    for k in range(m + 1):
        found = basis[k] = []
        raise_by = w + 2 * k - sum(base)
        for ts in _compositions(raise_by // 2, len(pairs)):
            rho = list(base)
            for i, t in zip(pairs, ts):
                rho[i] += t
                rho[r + i] += t
            found += splittings(rho, k)
        found.sort()
    matrices = {
        k: matrix_of(spec.model, basis[k], lambda g: _lowering(spec, *g), check_generator, basis[k - 1])[0]
        for k in range(1, m + 1)
    }
    return StrandBlock(key, basis, matrices)


def enumerate_strand(spec: AlgebraSpec, w: int) -> StrandComplex:
    """The weight-w strand of K_C, split into its fine blocks.

    Enumerated key by key, over the keys with a generator only
    (``_strand_keys``, whose base points have degree at most w + 2n), one
    ``strand_block`` each; blocks are listed by their first generator in
    strand order.
    """
    blocks = [strand_block(spec, w, *triple) for triple in _strand_keys(spec, w)]
    blocks.sort(key=lambda b: next((k, found[0]) for k, found in b.basis.items() if found))
    dims = {k: sum(len(b.basis[k]) for b in blocks) for k in range(spec.num_generators + 1)}
    return StrandComplex(w, dims, blocks)


# ---------------------------------------------------------------------------
# Verification helpers shared by the CLI and the tests.
# ---------------------------------------------------------------------------


def monomials_up_to(spec: AlgebraSpec, bound: int) -> Iterator[Exponents]:
    """Every exponent vector of total degree <= bound, by degree then lexicographically."""
    for p in range(bound + 1):
        yield from _compositions(p, spec.num_generators)


def keys_up_to(spec: AlgebraSpec, bound: int) -> Iterator[Key]:
    """The (mono, wedge) key of every chain generator whose polynomial part has degree <= bound."""
    m = spec.num_generators
    # Wedges by size, each size in lexicographic order: the reverse of the
    # order in which combinations lists the positions of its ones.
    wedges = [
        tuple(int(c in cols) for c in range(m))
        for size in range(m + 1)
        for cols in reversed(list(combinations(range(m), size)))
    ]
    for mono in monomials_up_to(spec, bound):
        for wedge in wedges:
            yield mono, wedge


def apply_diff(spec: AlgebraSpec, diff: Callable[[AlgebraSpec, Hashable], Combination], elem):
    """Extend a differential given on basis elements linearly to a chain or a cochain."""
    return type(elem).from_terms(
        spec, ((h, d * c) for g, c in elem.terms.items() for h, d in diff(spec, g).terms.items())
    )


# ---------------------------------------------------------------------------
# Semi-classical comparison with the Weyl complex.
# ---------------------------------------------------------------------------


def _compare_character(spec: AlgebraSpec, key: Key, sign: int) -> tuple[int, ...]:
    """The reduced character of R(key)^sign, sign = +-1; checks the key and r = n first."""
    check_generator(key, spec.num_generators)
    if spec.r != spec.n:
        raise NotSemiClassical("comparison maps need r = n")
    n, (mono, wedge) = spec.n, key
    alpha, beta = mono[:n], mono[n:]
    gamma, delta = wedge[:n], wedge[n:]
    acc = [0] * spec.model.rank
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            e = gamma[u - 1] * beta[v - 1] + alpha[u - 1] * delta[v - 1]
            if e:
                spec.add_character(acc, u, v, sign * e)
    return spec.model.reduce(acc)


def weyl_compare_R(spec: AlgebraSpec, key: Key) -> Scalar:
    """The comparison scalar R(alpha, beta, gamma, delta).

    R = prod_{u<v} lambda_{u,v}^{gamma_u beta_v + alpha_u delta_v}, the value
    of the exponents' sum of characters.  This is the unique natural rescaling
    making the identity map a chain isomorphism between the small complex of a
    semi-classical algebra and the classical Weyl-algebra Koszul complex: it satisfies

        Omega'_1(g) R(d_1 g) = -eps_1(i) beta_i R(g)
        Omega'_2(g) R(d_2 g) =  eps_2(j) alpha_j R(g)

    exactly, which is the statement that f (multiplication by R) intertwines
    the two differentials.  With r = n, lambda_{u,v} is lambda~_{u,v}.
    """
    return spec.model.value(_compare_character(spec, key, 1))


def weyl_f_map(spec: AlgebraSpec, key: Key) -> ChainElement:
    """The map f: K_C -> Weyl complex, R times the same exponent data.

    f and ``weyl_g_map`` are mutually inverse on K_C; f is only defined there.
    """
    R = weyl_compare_R(spec, key)  # checks the key first
    rho = rho_of(key)
    if not is_in_C(spec, rho):
        raise NotInSmallComplex(f"f is only defined on K_C; rho={rho} not in C")
    return ChainElement.single(spec, key, R)


def weyl_g_map(spec: AlgebraSpec, key: Key) -> ChainElement:
    """The section g: Weyl complex -> K_C, R^-1 as the negated character's value (zero off K_C)."""
    char = _compare_character(spec, key, -1)  # checks the key first
    if not is_in_C(spec, rho_of(key)):
        return ChainElement.zero(spec)
    return ChainElement.single(spec, key, spec.model.value(char))
