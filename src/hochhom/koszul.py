"""Koszul-type chain complexes for A_{n,r}^Lambda.

Four differentials live here:

* ``diff_full`` — the full complex K on generators x^alpha y^beta (x) wedge,
  computed by the generic coefficient formula driven through PBW
  multiplication (the authoritative route).  Its closed form
  ``diff_full_closed`` is ``diff_symmetric`` (the exponent-raising part)
  plus the exponent-lowering Weyl contraction terms, a second path that must
  agree term by term.
* ``diff_small`` — the small complex K_C: only the exponent-lowering terms,
  defined on generators whose total degree rho lies in the set C.
* ``diff_symmetric`` — the quantum symmetric algebra complex, used for the
  quotient strands that witness the K -> K_C reduction.
* ``diff_weyl`` — the classical Weyl-algebra Koszul differential, the target
  of the semi-classical comparison maps f and g.

The module also provides the membership test for C, weight-strand
enumeration, the comparison scalar R with the maps ``weyl_f_map`` and
``weyl_g_map``, and the braided antisymmetry check (the alternating
contraction f' that must vanish).

A weight strand of K_C is a direct sum of fine blocks.  The small
differential lowers rho_{x_i} and rho_{y_i} together and never changes
rho_{y_j} for j > r, so it preserves the block key (rho_{x_i} - rho_{y_i})_{i<=r}
+ (rho_{y_j})_{j>r}.  The rho with a given key are its base point (the
smallest of them) plus t_i (x_i + y_i) with t_i >= 0.  Row x_i of the
extended parameter matrix is the entrywise inverse of row y_i, so the column
characters are constant on a block and membership in C is decided once per
key: a key whose base point touches a bad column has no point in C, and the
points in C of any other key raise only the Weyl pairs whose two columns are
good.  Strands are therefore enumerated key first: for each key meeting C
and each of its points rho of total degree w + 2k, the degree-k generators
are rho minus a wedge on a k-subset of the support of rho.  No generator
outside C is built.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, product
from operator import mul, sub
from typing import Callable, Iterable, Iterator, Mapping, Union

from .algebra import generator_monomial, generator_name, monomial_str, normal_mul_monomials
from .errors import (
    IndexOutOfRange,
    ModelMismatch,
    NotInSmallComplex,
    NotSemiClassical,
    WordTooLong,
)
from .linalg import SparseMatrix, matrix_of
from .scalar import AlgebraSpec, Scalar

Exponents = tuple[int, ...]


@dataclass(frozen=True)
class ChainGenerator:
    """Basis element x^alpha y^beta (x) x^gamma y^delta of a Koszul complex.

    ``mono`` stores (alpha, beta) and ``wedge`` stores (gamma, delta), both as
    tuples of length n + r; wedge entries are 0/1.
    """

    mono: Exponents
    wedge: Exponents

    def __post_init__(self):
        if any(e < 0 for e in self.mono) or any(e not in (0, 1) for e in self.wedge):
            raise IndexOutOfRange(f"bad chain generator ({self.mono}, {self.wedge})")
        if len(self.mono) != len(self.wedge):
            raise IndexOutOfRange("mono and wedge lengths differ")

    @property
    def degree(self) -> int:
        """Homological degree: the number of wedge factors."""
        return sum(self.wedge)

    @property
    def poly_degree(self) -> int:
        return sum(self.mono)

    @property
    def weight(self) -> int:
        return self.poly_degree - self.degree

    @property
    def rho(self) -> Exponents:
        """Total multidegree (alpha + gamma, beta + delta)."""
        return tuple(a + g for a, g in zip(self.mono, self.wedge))

    def quantum_degree(self, spec: AlgebraSpec) -> Exponents:
        """The purely-quantum part (beta_j + delta_j) for j > r."""
        t = 2 * spec.r
        return tuple(self.rho[t:])


def chain_generator_str(spec: AlgebraSpec, g: ChainGenerator) -> str:
    wedge_names = [generator_name(spec, i + 1) for i, b in enumerate(g.wedge) if b]
    wedge = "^".join(wedge_names) if wedge_names else "1"
    return f"{monomial_str(spec, g.mono)} (x) {wedge}"


class ChainElement:
    """A finite scalar combination of chain generators."""

    __slots__ = ("spec", "terms")

    def __init__(self, spec: AlgebraSpec, terms: dict[ChainGenerator, Scalar] | None = None):
        self.spec = spec
        self.terms = {g: c for g, c in (terms or {}).items() if not c.is_zero()}

    @classmethod
    def zero(cls, spec: AlgebraSpec) -> "ChainElement":
        return cls(spec)

    @classmethod
    def single(cls, spec: AlgebraSpec, g: ChainGenerator, coeff=None) -> "ChainElement":
        return cls(spec, {g: spec.one() if coeff is None else coeff})

    def _check(self, other: "ChainElement"):
        if other.spec != self.spec:
            raise ModelMismatch("cannot combine chains over different algebras")

    def __add__(self, other: "ChainElement") -> "ChainElement":
        self._check(other)
        out = dict(self.terms)
        for g, c in other.terms.items():
            out[g] = out[g] + c if g in out else c
        return ChainElement(self.spec, out)

    def __sub__(self, other: "ChainElement") -> "ChainElement":
        return self + (-other)

    def __neg__(self) -> "ChainElement":
        return ChainElement(self.spec, {g: -c for g, c in self.terms.items()})

    def scale(self, coeff: Union[Scalar, int]) -> "ChainElement":
        if isinstance(coeff, int):
            coeff = self.spec.scalar(coeff)
        return ChainElement(self.spec, {g: c * coeff for g, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, ChainElement):
            return NotImplemented
        self._check(other)
        return self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for g in sorted(self.terms, key=lambda t: (t.mono, t.wedge)):
            parts.append(f"{self.terms[g]}*{chain_generator_str(self.spec, g)}")
        return " + ".join(parts)

    def __repr__(self):
        return f"ChainElement({self})"


def _without(vec: Exponents, index0: int) -> Exponents:
    return vec[:index0] + (0,) + vec[index0 + 1 :]


def _lower(vec: Exponents, index0: int) -> Exponents:
    return vec[:index0] + (vec[index0] - 1,) + vec[index0 + 1 :]


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
    """Whether the character prod_k lambda~_{k,i}^{rho_k} of column i (1-based) is 1.

    Each lattice coordinate of the character is an integer dot product with rho.
    """
    return spec.model.is_trivial(
        [sum(map(mul, coords, rho)) for coords in spec.column_characters[i - 1]]
    )


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

    The characters are constant on a block, so they are evaluated once, at
    the base point, by integer dot products with the spec's column-character
    table, and kept in the spec's memo for every later key and strand.  At
    the base point they are linear in the key, so when the lattice is Z/t
    alone (no exact coordinates) they depend only on the key mod t, which is
    what the memo is keyed by then.  Column y_i's character is the inverse of
    column x_i's, so only x_i is evaluated for a Weyl pair.

    A rho with this key lies in C exactly when rho_c = 0 for every column c
    returned: a key whose base point touches such a column has no generator
    in C, and otherwise only the Weyl pairs with both columns good can be
    raised.
    """
    memo, period = spec.block_memo, spec.model.period
    if period:
        key = tuple([x % period for x in key])
    bad = memo.get(key)
    if bad is None:
        r, base = spec.r, _base_point(spec, key)
        pairs = [i for i in range(r) if not _column_is_one(spec, base, i + 1)]
        quantum = [
            c for c in range(2 * r, spec.num_generators) if not _column_is_one(spec, base, c + 1)
        ]
        bad = memo[key] = tuple(pairs + [r + i for i in pairs] + quantum)
    return bad


# ---------------------------------------------------------------------------
# Differentials.
# ---------------------------------------------------------------------------


def diff_full(spec: AlgebraSpec, g: ChainGenerator) -> ChainElement:
    """The full differential, by the generic coefficient formula.

    d(v^A (x) v^G) = sum_i Omega(G;i) (v^A . v_i) (x) v^{G-[i]}
                   + sum_i Theta(G;i) (v_i . v^A) (x) v^{G-[i]}

    with the braided coefficients Omega, Theta over the extended parameter
    matrix, and both products evaluated through PBW multiplication.
    """
    m = spec.num_generators
    G = g.wedge
    k_total = sum(G)
    poly = g.mono
    out: dict[ChainGenerator, Scalar] = {}

    def accumulate(product: Mapping[Exponents, Scalar], coeff: Scalar, new_wedge: Exponents):
        for mono, c in product.items():
            gen = ChainGenerator(mono, new_wedge)
            contrib = coeff * c
            out[gen] = out[gen] + contrib if gen in out else contrib

    for i in range(1, m + 1):
        if not G[i - 1]:
            continue
        v_i = generator_monomial(spec, i)
        new_wedge = _without(G, i - 1)
        sign_omega = (-1) ** sum(G[: i - 1])
        omega = spec.lambda_tilde_power_product(
            (k, i, G[k - 1]) for k in range(1, i) if G[k - 1]
        ) * sign_omega
        accumulate(normal_mul_monomials(spec, poly, v_i), omega, new_wedge)
        sign_theta = (-1) ** (k_total + sum(G[i:]))
        theta = spec.lambda_tilde_power_product(
            (i, k, G[k - 1]) for k in range(i + 1, m + 1) if G[k - 1]
        ) * sign_theta
        accumulate(normal_mul_monomials(spec, v_i, poly), theta, new_wedge)
    return ChainElement(spec, out)


def _epsilon_1(gamma: Exponents, i: int) -> int:
    return (-1) ** sum(gamma[: i - 1])


def _epsilon_2(gamma: Exponents, delta: Exponents, j: int) -> int:
    return (-1) ** (sum(gamma) + sum(delta[: j - 1]))


def _lowering_terms(spec: AlgebraSpec, g: ChainGenerator):
    """The exponent-lowering (Weyl contraction) terms of the differential.

    Yields (generator, scalar) pairs by the closed coefficient formulas: the
    x_i terms for i <= r, then the y_j terms for j <= r.  They make up the
    small-complex differential, and with ``diff_symmetric`` the full one.
    """
    r, n = spec.r, spec.n
    lam = spec.model.lambda_power_product
    alpha, beta = g.mono[:r], g.mono[r:]
    gamma, delta = g.wedge[:r], g.wedge[r:]

    for i in range(1, r + 1):
        if gamma[i - 1] and beta[i - 1]:
            coeff = lam(
                [(k, i, gamma[k - 1]) for k in range(1, i)]
                + [(k, i, -beta[k - 1]) for k in range(i + 1, n + 1)]
            ) * (-_epsilon_1(gamma, i) * beta[i - 1])
            mono = alpha + _lower(beta, i - 1)
            yield ChainGenerator(mono, _without(g.wedge, i - 1)), coeff

    for j in range(1, r + 1):
        if delta[j - 1] and alpha[j - 1]:
            coeff = lam(
                [(j, k, delta[k - 1]) for k in range(j + 1, n + 1)]
                + [(j, k, -alpha[k - 1]) for k in range(1, j)]
            ) * (_epsilon_2(gamma, delta, j) * alpha[j - 1])
            mono = _lower(alpha, j - 1) + beta
            yield ChainGenerator(mono, _without(g.wedge, r + j - 1)), coeff


def _sum_terms(spec: AlgebraSpec, terms: Iterable[tuple[ChainGenerator, Scalar]]) -> ChainElement:
    """The chain with the given (generator, scalar) terms, repeated generators added."""
    out: dict[ChainGenerator, Scalar] = {}
    for gen, coeff in terms:
        out[gen] = out[gen] + coeff if gen in out else coeff
    return ChainElement(spec, out)


def diff_full_closed(spec: AlgebraSpec, g: ChainGenerator) -> ChainElement:
    """The full differential by the closed formulas: diff_symmetric plus the lowering terms.

    Optimized second path; must agree with diff_full on every generator.
    """
    return _sum_terms(spec, chain(diff_symmetric(spec, g).terms.items(), _lowering_terms(spec, g)))


def diff_small(spec: AlgebraSpec, g: ChainGenerator) -> ChainElement:
    """The small-complex differential: only the exponent-lowering terms.

    Defined on generators with rho in C; the output stays in the small
    complex and has the same weight and purely-quantum multidegree.
    """
    if not is_in_C(spec, g.rho):
        raise NotInSmallComplex(f"rho={g.rho} is not in C")
    return _sum_terms(spec, _lowering_terms(spec, g))


def diff_symmetric(spec: AlgebraSpec, g: ChainGenerator) -> ChainElement:
    """The quantum symmetric algebra differential; preserves rho exactly."""
    m = spec.num_generators
    A, G = g.mono, g.wedge
    out: dict[ChainGenerator, Scalar] = {}
    for i in range(1, m + 1):
        if not G[i - 1]:
            continue
        sign = (-1) ** sum(G[: i - 1])
        base = spec.lambda_tilde_power_product(
            [(k, i, G[k - 1]) for k in range(1, i)]
            + [(k, i, A[k - 1]) for k in range(i + 1, m + 1)]
        )
        bracket = spec.one() - spec.lambda_tilde_power_product(
            (i, k, A[k - 1] + G[k - 1]) for k in range(1, m + 1)
        )
        coeff = base * bracket * sign
        if coeff.is_zero():
            continue
        gen = ChainGenerator(
            tuple(a + (1 if t == i - 1 else 0) for t, a in enumerate(A)), _without(G, i - 1)
        )
        out[gen] = out[gen] + coeff if gen in out else coeff
    return ChainElement(spec, out)


def diff_weyl(spec: AlgebraSpec, g: ChainGenerator) -> ChainElement:
    """The classical Weyl-algebra Koszul differential (all parameters 1)."""
    if spec.r != spec.n:
        raise NotSemiClassical("the Weyl complex needs r = n")
    r = spec.r
    alpha, beta = g.mono[:r], g.mono[r:]
    gamma, delta = g.wedge[:r], g.wedge[r:]
    out: dict[ChainGenerator, Scalar] = {}

    def add(gen: ChainGenerator, c: int):
        coeff = spec.scalar(c)
        out[gen] = out[gen] + coeff if gen in out else coeff

    for i in range(1, r + 1):
        if gamma[i - 1] and beta[i - 1]:
            add(
                ChainGenerator(alpha + _lower(beta, i - 1), _without(g.wedge, i - 1)),
                -_epsilon_1(gamma, i) * beta[i - 1],
            )
    for j in range(1, r + 1):
        if delta[j - 1] and alpha[j - 1]:
            add(
                ChainGenerator(_lower(alpha, j - 1) + beta, _without(g.wedge, r + j - 1)),
                _epsilon_2(gamma, delta, j) * alpha[j - 1],
            )
    return ChainElement(spec, out)


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


def _bit_vectors(total: int, parts: int):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in (0, 1):
        if first <= total:
            for rest in _bit_vectors(total - first, parts - 1):
                yield (first,) + rest


def _strand_keys(spec: AlgebraSpec, w: int):
    """(key, base point, raisable pairs) for every block of weight w meeting C.

    A degree-k generator has |rho| = w + 2k, so a key's base point has degree
    at most w + 2(n+r) and the parity of w.  Keys whose base point touches a
    bad column are left out; the pairs listed have both columns good.
    """
    r, m = spec.r, spec.num_generators
    for size in range(w % 2, w + 2 * m + 1, 2):
        for parts in _compositions(size, spec.n):
            quantum = parts[r:]
            for deltas in product(*[(d, -d) if d else (0,) for d in parts[:r]]):
                key = deltas + quantum
                bad = bad_columns(spec, key)
                base = _base_point(spec, key)
                if not any(base[c] for c in bad):
                    yield key, base, [i for i in range(r) if i not in bad]


@dataclass(frozen=True)
class StrandBlock:
    """One fine block of a weight strand: the generators with one block key.

    generators[k] lists the block's degree-k basis in strand order;
    matrices[k] maps the block's degree-k coordinates to its degree-(k-1)
    coordinates, for every k in 1..n+r.
    """

    key: Exponents
    generators: dict[int, list[ChainGenerator]]
    matrices: dict[int, SparseMatrix]


@dataclass(frozen=True)
class StrandComplex:
    """The weight-w strand of the small complex, as the direct sum of its blocks.

    generators[k] lists the degree-k basis in lexicographic (mono, wedge)
    order.  matrices[k], the whole-strand map from degree-k to degree-(k-1)
    coordinates, is assembled from the blocks when first read.
    """

    weight: int
    generators: dict[int, list[ChainGenerator]]
    blocks: list[StrandBlock]

    @cached_property
    def matrices(self) -> dict[int, SparseMatrix]:
        columns: dict[ChainGenerator, list[tuple[ChainGenerator, Scalar]]] = {}
        for block in self.blocks:
            for k, matrix in block.matrices.items():
                for (i, j), v in matrix.entries.items():
                    columns.setdefault(block.generators[k][j], []).append(
                        (block.generators[k - 1][i], v)
                    )
        return {
            k: matrix_of(self.generators[k], lambda g: columns.get(g, ()), self.generators[k - 1])
            for k in range(1, len(self.generators))
        }


def enumerate_strand(spec: AlgebraSpec, w: int) -> StrandComplex:
    """The weight-w strand of K_C, split into its fine blocks.

    Enumerated key by key (``_strand_keys``): a key's points in C are its
    base point raised along the pairs it may raise, and a point rho of degree
    w + 2k gives the degree-k generators rho - wedge, one per k-subset of the
    support of rho.  Each degree is sorted in (mono, wedge) order and blocks
    are listed by their first generator in that order; the block matrices
    take the exponent-lowering terms directly, and an image outside its block
    raises ComplexBroken.
    """
    m, r = spec.num_generators, spec.r
    keys = list(_strand_keys(spec, w))
    generators: dict[int, list[ChainGenerator]] = {}
    blocks: dict[Exponents, dict[int, list[ChainGenerator]]] = {}
    for k in range(0, m + 1):
        found: list[tuple[Exponents, Exponents, Exponents]] = []
        for key, base, pairs in keys:
            raise_by = w + 2 * k - sum(base)
            if raise_by < 0:
                continue
            for ts in _compositions(raise_by // 2, len(pairs)):
                rho = list(base)
                for i, t in zip(pairs, ts):
                    rho[i] += t
                    rho[r + i] += t
                for cols in combinations([c for c in range(m) if rho[c]], k):
                    wedge = [0] * m
                    for c in cols:
                        wedge[c] = 1
                    found.append((tuple(map(sub, rho, wedge)), tuple(wedge), key))
        found.sort()
        generators[k] = [ChainGenerator(mono, wedge) for mono, wedge, _ in found]
        for g, (_, _, key) in zip(generators[k], found):
            blocks.setdefault(key, {d: [] for d in range(m + 1)})[k].append(g)

    return StrandComplex(
        w,
        generators,
        [
            StrandBlock(
                key,
                gens,
                {
                    k: matrix_of(gens[k], lambda g: _lowering_terms(spec, g), gens[k - 1])
                    for k in range(1, m + 1)
                },
            )
            for key, gens in blocks.items()
        ],
    )


# ---------------------------------------------------------------------------
# Verification helpers shared by the CLI and the tests.
# ---------------------------------------------------------------------------


def monomials_up_to(spec: AlgebraSpec, bound: int) -> Iterator[Exponents]:
    """Every exponent vector of total degree <= bound, by degree then lexicographically."""
    for p in range(bound + 1):
        yield from _compositions(p, spec.num_generators)


def generators_up_to(spec: AlgebraSpec, bound: int) -> Iterator[ChainGenerator]:
    """Every chain generator whose polynomial part has degree <= bound."""
    m = spec.num_generators
    for mono in monomials_up_to(spec, bound):
        for size in range(m + 1):
            for wedge in _bit_vectors(size, m):
                yield ChainGenerator(mono, wedge)


def apply_diff(
    spec: AlgebraSpec,
    diff: Callable[[AlgebraSpec, ChainGenerator], ChainElement],
    elem: ChainElement,
) -> ChainElement:
    """Extend a differential given on generators linearly to a chain."""
    out: dict[ChainGenerator, Scalar] = {}
    for g, c in elem.terms.items():
        for h, d in diff(spec, g).terms.items():
            contrib = d * c
            out[h] = out[h] + contrib if h in out else contrib
    return ChainElement(spec, out)


# ---------------------------------------------------------------------------
# Semi-classical comparison with the Weyl complex.
# ---------------------------------------------------------------------------


def weyl_compare_R(spec: AlgebraSpec, g: ChainGenerator) -> Scalar:
    """The comparison scalar R(alpha, beta, gamma, delta).

    R = prod_{u<v} lambda_{u,v}^{gamma_u beta_v + alpha_u delta_v}.  This is
    the unique natural rescaling making the identity map a chain isomorphism
    between the small complex of a semi-classical algebra and the classical
    Weyl-algebra Koszul complex: it satisfies

        Omega'_1(g) R(d_1 g) = -eps_1(i) beta_i R(g)
        Omega'_2(g) R(d_2 g) =  eps_2(j) alpha_j R(g)

    exactly, which is the statement that f (multiplication by R) intertwines
    the two differentials.
    """
    if spec.r != spec.n:
        raise NotSemiClassical("comparison maps need r = n")
    n = spec.n
    alpha, beta = g.mono[:n], g.mono[n:]
    gamma, delta = g.wedge[:n], g.wedge[n:]
    factors = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            e = gamma[u - 1] * beta[v - 1] + alpha[u - 1] * delta[v - 1]
            if e:
                factors.append((u, v, e))
    return spec.model.lambda_power_product(factors)


def weyl_f_map(spec: AlgebraSpec, g: ChainGenerator) -> ChainElement:
    """The map f: K_C -> Weyl complex, R times the same exponent data.

    f and ``weyl_g_map`` are mutually inverse on K_C; f is only defined there.
    """
    R = weyl_compare_R(spec, g)
    if not is_in_C(spec, g.rho):
        raise NotInSmallComplex(f"f is only defined on K_C; rho={g.rho} not in C")
    return ChainElement.single(spec, g, R)


def weyl_g_map(spec: AlgebraSpec, g: ChainGenerator) -> ChainElement:
    """The section g: Weyl complex -> K_C (zero off the small complex)."""
    if spec.r != spec.n:
        raise NotSemiClassical("comparison maps need r = n")
    if not is_in_C(spec, g.rho):
        return ChainElement.zero(spec)
    return ChainElement.single(spec, g, weyl_compare_R(spec, g).inv())


# ---------------------------------------------------------------------------
# Braided antisymmetry check.
# ---------------------------------------------------------------------------

Word = tuple[int, ...]
WordElement = dict[Word, Scalar]


def _braid_at(spec: AlgebraSpec, elem: WordElement, pos: int) -> WordElement:
    """Apply the braiding at positions (pos, pos+1), 1-based."""
    out: WordElement = {}
    for word, c in elem.items():
        a, b = word[pos - 1], word[pos]
        if a != b:
            c = c * spec.lambda_tilde(a, b)
            word = word[: pos - 1] + (b, a) + word[pos + 1 :]
        out[word] = out[word] + c if word in out else c
    return {w: c for w, c in out.items() if not c.is_zero()}


def _pi_front(spec: AlgebraSpec, elem: WordElement, i: int) -> WordElement:
    """Bring letter i to the front: the composite c_1 ... c_{i-1}."""
    for t in range(i - 1, 0, -1):
        elem = _braid_at(spec, elem, t)
    return elem


def _pi_back(spec: AlgebraSpec, elem: WordElement, k: int, length: int) -> WordElement:
    """Bring letter k to the end of a length-`length` prefix: c_{L-1} ... c_k."""
    for t in range(k, length):
        elem = _braid_at(spec, elem, t)
    return elem


def _pair_form(spec: AlgebraSpec, a: int, b: int) -> int:
    """The bilinear form pairing each Weyl generator with its partner."""
    if a <= spec.r and b == a + spec.r:
        return 1
    if b <= spec.r and a == b + spec.r:
        return -1
    return 0


def braiding_f_prime(
    spec: AlgebraSpec, word: Word, bound: int = 6
) -> WordElement:
    """The alternating contraction f' on a tensor word; expected to vanish.

    f' = sum_{i<j} (-1)^{i+j+1} [ (f (x) I)(I (x) Pi_{j-1}) Pi_i
                                - (I (x) f)(PiBack_i (x) I) PiBack_j ]

    where Pi_i braids letter i to the front, PiBack_k braids letter k to the
    end, and f pairs v_i with v_{r+i} (value 1) and v_{r+i} with v_i
    (value -1).
    """
    p = len(word)
    if p > bound:
        raise WordTooLong(f"word length {p} exceeds bound {bound}")
    if p < 2:
        raise WordTooLong("need a word of length at least 2")
    for a in word:
        if not (1 <= a <= spec.num_generators):
            raise IndexOutOfRange(f"letter {a} out of range")
    total: WordElement = {}

    def accumulate(elem: WordElement, sign: int, drop_front: bool):
        for w, c in elem.items():
            if drop_front:
                pair = _pair_form(spec, w[0], w[1])
                rest = w[2:]
            else:
                pair = _pair_form(spec, w[-2], w[-1])
                rest = w[:-2]
            if pair == 0:
                continue
            contrib = c * (pair * sign)
            total[rest] = total[rest] + contrib if rest in total else contrib

    start: WordElement = {word: spec.one()}
    for i in range(1, p + 1):
        for j in range(i + 1, p + 1):
            sign = (-1) ** (i + j + 1)
            # (f (x) I) (I_1 (x) Pi_{j-1}) Pi_i
            elem = _pi_front(spec, start, i)
            shifted: WordElement = {}
            for w, c in elem.items():
                sub = {w[1:]: c}
                for ww, cc in _pi_front(spec, sub, j - 1).items():
                    nw = (w[0],) + ww
                    shifted[nw] = shifted[nw] + cc if nw in shifted else cc
            accumulate(shifted, sign, drop_front=True)
            # (I (x) f) (PiBack_i (x) I_1) PiBack_j
            elem = _pi_back(spec, start, j, p)
            moved: WordElement = {}
            for w, c in elem.items():
                sub = {w[: p - 1]: c}
                for ww, cc in _pi_back(spec, sub, i, p - 1).items():
                    nw = ww + (w[-1],)
                    moved[nw] = moved[nw] + cc if nw in moved else cc
            accumulate(moved, -sign, drop_front=False)
    return {w: c for w, c in total.items() if not c.is_zero()}
