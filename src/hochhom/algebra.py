"""Normal-form (PBW) arithmetic in the algebra A_{n,r}^Lambda.

Elements are finite scalar combinations of the basis monomials
x_1^{a_1} ... x_r^{a_r} y_1^{b_1} ... y_n^{b_n}, stored as exponent tuples of
length r + n.  Multiplication rewrites arbitrary products into this basis
using the defining relations, written for the generators v_1..v_{r+n} =
x_1..x_r, y_1..y_n over the extended parameter matrix lambda~ of AlgebraSpec,

    v_a v_b = lambda~_{a,b} v_b v_a          (a, b not a Weyl pair)
    x_i y_i = y_i x_i + 1                    (i <= r)

and, for each Weyl pair, the closed reorder

    y_i^b x_i^c = sum_t (-1)^t t! C(b,t) C(c,t) x_i^{c-t} y_i^{b-t}.

Every product reduces to products of basis monomials, and the normal form of
each pair (left, right) is computed once per ``AlgebraSpec`` and kept in its
``product_table``.  The cochain differential, the duality check and the
generic Koszul differential all multiply a monomial by one generator, so
they meet the same few pairs many times.  An entry is a read-only tuple of
(monomial, character, int) triples, the coefficient being the model's value
of the lambda~-character times the int.  This is exact: the rewrite branches
only at the Weyl reorders, and each pending (g, b) fixes the vector t of
reorder indices, so its output monomial (alpha + g, b + delta), g = gamma - t,
appears once.  Its coefficient is a product of lambda~-powers (one
character) times a product of ``weyl_reorder_coefficient`` values, a nonzero
int as t_i <= min(b_i, gamma_i).  Callers add their characters to an entry's.

``Combination`` is the one finite k-linear combination type: ``PbwElement``
here, the Koszul chains ``koszul.ChainElement`` and the cochains
``cohomology.Cochain`` share it.  A sum of (key, scalar) pairs goes through
``Combination.from_terms`` and one of (key, character, int) triples through
``from_triples``; both keep keys in first-appearance order, the row order of
the matrices built from the same triples.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Hashable, Iterable, Iterator, Union

from .errors import IndexOutOfRange, ModelMismatch
from .linalg import cells_of
from .scalar import AlgebraSpec, Scalar

Monomial = tuple[int, ...]
Product = tuple[Monomial, tuple[int, ...], int]  # monomial, lambda~-character, int


def weyl_reorder_coefficient(b: int, c: int, t: int) -> int:
    """Integer coefficient of x^{c-t} y^{b-t} in the normal form of y^b x^c."""
    return (-1) ** t * factorial(t) * comb(b, t) * comb(c, t)


def generator_name(spec: AlgebraSpec, index: int) -> str:
    """Name of generator v_index: x1..xr then y1..yn (1-based)."""
    if not (1 <= index <= spec.num_generators):
        raise IndexOutOfRange(f"generator index {index} out of range")
    if index <= spec.r:
        return f"x{index}"
    return f"y{index - spec.r}"


def generator_monomial(spec: AlgebraSpec, index: int) -> Monomial:
    """The exponent vector of the generator v_index (1-based)."""
    if not (1 <= index <= spec.num_generators):
        raise IndexOutOfRange(f"generator index {index} out of range")
    return spec.generator_monomials[index - 1]


def monomial_str(spec: AlgebraSpec, mono: Monomial) -> str:
    parts = []
    for i, e in enumerate(mono):
        if e == 0:
            continue
        name = generator_name(spec, i + 1)
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts) if parts else "1"


class Combination:
    """A finite k-linear combination of hashable keys over one ``AlgebraSpec``.

    ``terms`` maps each key to its nonzero scalar, in the order the keys
    first appeared, which is the row order of the matrices built from the
    same terms: every way of summing them goes through ``from_terms`` or
    ``from_triples``.
    """

    __slots__ = ("spec", "terms")

    def __init__(self, spec: AlgebraSpec, terms: dict | None = None):
        self.spec = spec
        self.terms = {k: c for k, c in (terms or {}).items() if not c.is_zero()}

    @classmethod
    def zero(cls, spec: AlgebraSpec):
        return cls(spec)

    @classmethod
    def from_terms(cls, spec: AlgebraSpec, pairs: Iterable[tuple[Hashable, Scalar]]):
        """The sum of the (key, scalar) pairs: repeated keys are added, in first-appearance order."""
        out: dict = {}
        for k, c in pairs:
            out[k] = out[k] + c if k in out else c
        return cls(spec, out)

    @classmethod
    def from_triples(cls, spec: AlgebraSpec, triples: Iterable[tuple[Hashable, tuple[int, ...], int]]):
        """The sum of (key, lambda~-character, int) triples, summed as ``linalg.cells_of`` does."""
        make, rational = spec.model.field._make, spec.model.field.degree == 1
        cells = cells_of(spec.model, triples)
        return cls(spec, {key: make([c] if rational else c, den) for key, (c, den) in cells.items()})

    def _check(self, other: "Combination"):
        if other.spec != self.spec:
            raise ModelMismatch("cannot combine elements over different algebras")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] + c if k in out else c
        return type(self)(self.spec, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)(self.spec, {k: -c for k, c in self.terms.items()})

    def scale(self, coeff: Union[Scalar, int, Fraction]):
        if isinstance(coeff, (int, Fraction)):
            coeff = self.spec.scalar(coeff)
        return type(self)(self.spec, {k: c * coeff for k, c in self.terms.items()})

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        return self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class PbwElement(Combination):
    """A finite k-linear combination of PBW basis monomials."""

    __slots__ = ()

    @classmethod
    def one(cls, spec: AlgebraSpec) -> "PbwElement":
        return cls.monomial(spec, (0,) * spec.num_generators)

    @classmethod
    def monomial(cls, spec: AlgebraSpec, mono: Monomial, coeff=None) -> "PbwElement":
        mono = tuple(mono)
        if len(mono) != spec.num_generators or any(e < 0 for e in mono):
            raise IndexOutOfRange(f"bad exponent vector {mono}")
        return cls(spec, {mono: spec.one() if coeff is None else coeff})

    @classmethod
    def generator(cls, spec: AlgebraSpec, index: int) -> "PbwElement":
        """The generator v_index (x_index if index <= r, else y_{index-r})."""
        return cls.monomial(spec, generator_monomial(spec, index))

    def __mul__(self, other: "PbwElement") -> "PbwElement":
        self._check(other)
        spec = self.spec
        value = spec.model.value
        return PbwElement.from_terms(
            spec,
            (
                (mono, c * value(char) * k)
                for ml, cl in self.terms.items()
                for mr, cr in other.terms.items()
                for c in (cl * cr,)
                for mono, char, k in normal_mul_monomials(spec, ml, mr)
            ),
        )

    def __hash__(self):
        return hash((self.spec, frozenset(self.terms.items())))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms):
            c = self.terms[m]
            ms = monomial_str(self.spec, m)
            cs = str(c)
            parts.append(ms if cs == "1" and ms != "1" else (cs if ms == "1" else f"{cs}*{ms}"))
        return " + ".join(parts)


def normal_mul_monomials(spec: AlgebraSpec, left: Monomial, right: Monomial) -> tuple[Product, ...]:
    """Normal form of the product of two basis monomials, computed once per spec.

    The triples of ``normal_mul_uncached``: the first call for a pair stores
    them in ``spec.product_table``, later calls return the same tuple.
    """
    table = spec.product_table
    key = (left, right)
    entry = table.get(key)
    if entry is None:
        entry = table[key] = normal_mul_uncached(spec, left, right)
    return entry


def normal_mul_uncached(spec: AlgebraSpec, left: Monomial, right: Monomial) -> tuple[Product, ...]:
    """Normal form of the product of two basis monomials, rewritten afresh.

    Returns one (monomial, character, int) triple per output monomial (see
    the module docstring).  The rewriting proceeds in three stages: move the
    x-block of the right factor through the y-block of the left factor (Weyl
    pairs produce the lower-order sum), then merge the two x-blocks and the
    two y-blocks, which only costs commutation characters.
    """
    r, n = spec.r, spec.n
    add, model = spec.add_character, spec.model
    beta = left[r:]
    gamma, delta = right[:r], right[r:]

    # Stage 1: y^beta * x^gamma.  Each pending term is (g, b, acc, w) where g
    # holds the x-exponents settled so far (indices 1..i), b the current
    # y-exponents, acc the unreduced character and w the int.  Moving
    # x_i^{gamma_i} left past y_j costs lambda~_{r+j,i} per crossing; meeting
    # y_i^{b_i} triggers the Weyl reorder sum.
    pending = [((), beta, [0] * model.rank, 1)]
    for i in range(1, r + 1):
        gi = gamma[i - 1]
        nxt = []
        for g, b, outer, w in pending:
            for j in range(i + 1, n + 1):
                if gi and b[j - 1]:
                    add(outer, r + j, i, gi * b[j - 1])
            for t in range(0, min(b[i - 1], gi) + 1):
                acc = outer.copy()
                for j in range(1, i):
                    if gi - t and b[j - 1]:
                        add(acc, r + j, i, (gi - t) * b[j - 1])
                nb = b[: i - 1] + (b[i - 1] - t,) + b[i:]
                nxt.append((g + (gi - t,), nb, acc, w * weyl_reorder_coefficient(b[i - 1], gi, t)))
        pending = nxt

    # Stages 2 and 3: x^alpha * x^g and y^b * y^delta.
    alpha = left[:r]
    out = []
    for g, b, acc, w in pending:
        for i in range(1, r + 1):
            for j in range(i + 1, r + 1):
                if g[i - 1] and alpha[j - 1]:
                    add(acc, j, i, g[i - 1] * alpha[j - 1])
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if delta[i - 1] and b[j - 1]:
                    add(acc, r + j, r + i, delta[i - 1] * b[j - 1])
        mono = tuple(a + gg for a, gg in zip(alpha, g)) + tuple(bb + d for bb, d in zip(b, delta))
        out.append((mono, model.reduce(acc), w))
    return tuple(out)


def commutator_with_generator(
    spec: AlgebraSpec,
    index: int,
    mono: Monomial,
    left: tuple[int, ...],
    right: tuple[int, ...],
    sign: int,
) -> Iterator[Product]:
    """The (monomial, character, int) triples of sign * (left * v_index mono - right * mono v_index).

    ``left`` and ``right`` are reduced lambda~-characters, added to each
    product triple's; ``index`` is not checked.  The triples of v_index mono
    come first, then those of mono v_index, each side's monomials distinct
    and in the product table's order: summed they keep the order of
    ``(v * m).scale(sign * left) - (m * v).scale(sign * right)`` for the
    generator v and the monomial m, the row order of the cochain matrices.
    """
    v = spec.generator_monomials[index - 1]
    add = spec.model.add
    for char, s, pair in ((left, sign, (v, mono)), (right, -sign, (mono, v))):
        trivial = not any(char)
        for prod, entry, k in normal_mul_monomials(spec, *pair):
            yield prod, entry if trivial else add(char, entry), s * k
