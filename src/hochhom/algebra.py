"""Normal-form (PBW) arithmetic in the algebra A_{n,r}^Lambda.

Elements are finite scalar combinations of the basis monomials
x_1^{a_1} ... x_r^{a_r} y_1^{b_1} ... y_n^{b_n}, stored as exponent tuples of
length r + n.  Multiplication rewrites arbitrary products into this basis
using the defining relations

    y_i y_j = lambda_{i,j} y_j y_i
    x_i x_j = lambda_{i,j} x_j x_i           (i, j <= r)
    x_i y_j = lambda_{i,j}^{-1} y_j x_i      (i != j)
    x_i y_i = y_i x_i + 1                    (i <= r)

and, for each Weyl pair, the closed reorder

    y_i^b x_i^c = sum_t (-1)^t t! C(b,t) C(c,t) x_i^{c-t} y_i^{b-t}.

Every product reduces to products of basis monomials, and the normal form of
each pair (left, right) is computed once per ``AlgebraSpec`` and kept in its
``product_table``.  The cochain differential, the duality check and the
generic Koszul differential all multiply a monomial by one generator, so
they meet the same few pairs many times.  Table entries are shared and
read-only: a caller that needs a mutable result copies the entry.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from types import MappingProxyType
from typing import Mapping, Union

from .errors import IndexOutOfRange, ModelMismatch
from .scalar import AlgebraSpec, Scalar

Monomial = tuple[int, ...]


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
    return tuple(1 if k == index - 1 else 0 for k in range(spec.num_generators))


def monomial_str(spec: AlgebraSpec, mono: Monomial) -> str:
    parts = []
    for i, e in enumerate(mono):
        if e == 0:
            continue
        name = generator_name(spec, i + 1)
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def monomial_degree(mono: Monomial) -> int:
    return sum(mono)


class PbwElement:
    """A finite k-linear combination of PBW basis monomials."""

    __slots__ = ("spec", "terms")

    def __init__(self, spec: AlgebraSpec, terms: dict[Monomial, Scalar] | None = None):
        self.spec = spec
        self.terms = {m: c for m, c in (terms or {}).items() if not c.is_zero()}

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, spec: AlgebraSpec) -> "PbwElement":
        return cls(spec)

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

    # -- linear structure ---------------------------------------------------

    def _check(self, other: "PbwElement"):
        if other.spec != self.spec:
            raise ModelMismatch("cannot combine elements over different algebras")

    def __add__(self, other: "PbwElement") -> "PbwElement":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out[m] + c if m in out else c
        return PbwElement(self.spec, out)

    def __sub__(self, other: "PbwElement") -> "PbwElement":
        return self + (-other)

    def __neg__(self) -> "PbwElement":
        return PbwElement(self.spec, {m: -c for m, c in self.terms.items()})

    def scale(self, coeff: Union[Scalar, int, Fraction]) -> "PbwElement":
        if isinstance(coeff, (int, Fraction)):
            coeff = self.spec.scalar(coeff)
        return PbwElement(self.spec, {m: c * coeff for m, c in self.terms.items()})

    # -- multiplication -----------------------------------------------------

    def __mul__(self, other: "PbwElement") -> "PbwElement":
        self._check(other)
        out: dict[Monomial, Scalar] = {}
        for ml, cl in self.terms.items():
            for mr, cr in other.terms.items():
                c = cl * cr
                for mono, factor in normal_mul_monomials(self.spec, ml, mr).items():
                    contrib = c * factor
                    out[mono] = out[mono] + contrib if mono in out else contrib
        return PbwElement(self.spec, out)

    def __eq__(self, other):
        if not isinstance(other, PbwElement):
            return NotImplemented
        self._check(other)
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.spec, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def max_degree(self) -> int:
        return max((monomial_degree(m) for m in self.terms), default=0)

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

    def __repr__(self):
        return f"PbwElement({self})"


def normal_mul_monomials(
    spec: AlgebraSpec, left: Monomial, right: Monomial
) -> Mapping[Monomial, Scalar]:
    """Normal form of the product of two basis monomials, computed once per spec.

    The first call for a pair (left, right) rewrites the product and stores
    it in ``spec.product_table``; later calls return the stored entry.  The
    entry is a read-only view shared by every caller: iterate it, or copy it
    with ``dict(...)`` to get a mutable result.
    """
    table = spec.product_table
    key = (left, right)
    entry = table.get(key)
    if entry is None:
        entry = table[key] = MappingProxyType(normal_mul_uncached(spec, left, right))
    return entry


def normal_mul_uncached(spec: AlgebraSpec, left: Monomial, right: Monomial) -> dict[Monomial, Scalar]:
    """Normal form of the product of two basis monomials, rewritten afresh.

    Returns the resulting exponent vectors with their scalar coefficients.
    The rewriting proceeds in three stages: move the x-block of the right
    factor through the y-block of the left factor (Weyl pairs produce the
    lower-order sum), then merge the two x-blocks and the two y-blocks,
    which only costs commutation scalars.
    """
    r, n = spec.r, spec.n
    beta = left[r:]
    gamma, delta = right[:r], right[r:]
    model = spec.model

    # Stage 1: y^beta * x^gamma.  Each pending term is (g, b, coeff) where g
    # holds the x-exponents settled so far (indices 1..i) and b the current
    # y-exponents.  Moving x_i^{gamma_i} left past y_j costs lambda_{i,j} per
    # crossing; meeting y_i^{b_i} triggers the Weyl reorder sum.
    pending: list[tuple[tuple[int, ...], tuple[int, ...], Scalar]] = [((), beta, spec.one())]
    for i in range(1, r + 1):
        gi = gamma[i - 1]
        nxt = []
        for g, b, coeff in pending:
            outer = [(i, j, gi * b[j - 1]) for j in range(i + 1, n + 1) if b[j - 1]]
            for t in range(0, min(b[i - 1], gi) + 1):
                inner = [(i, j, (gi - t) * b[j - 1]) for j in range(1, i) if b[j - 1]]
                c = coeff * model.lambda_power_product(outer + inner)
                w = weyl_reorder_coefficient(b[i - 1], gi, t)
                if w != 1:
                    c = c * w
                nb = b[: i - 1] + (b[i - 1] - t,) + b[i:]
                nxt.append((g + (gi - t,), nb, c))
        pending = nxt

    # Stages 2 and 3: x^alpha * x^g and y^b * y^delta.
    alpha = left[:r]
    out: dict[Monomial, Scalar] = {}
    for g, b, coeff in pending:
        xfac = [(j, i, g[i - 1] * alpha[j - 1]) for i in range(1, r + 1) for j in range(i + 1, r + 1)]
        yfac = [(j, i, delta[i - 1] * b[j - 1]) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        c = coeff * model.lambda_power_product(xfac + yfac)
        mono = tuple(a + gg for a, gg in zip(alpha, g)) + tuple(bb + d for bb, d in zip(b, delta))
        out[mono] = out[mono] + c if mono in out else c
    return {m: c for m, c in out.items() if not c.is_zero()}


def commutator_with_generator(
    spec: AlgebraSpec,
    index: int,
    element: PbwElement,
    left: Scalar | None = None,
    right: Scalar | None = None,
) -> PbwElement:
    """The braided commutator left * v_index * element - right * element * v_index.

    ``left`` and ``right`` default to 1, giving [v_index, element].  The terms
    keep the order of ``(v * element).scale(left) - (element * v).scale(right)``
    for the generator v, without building those elements: matrices built from
    the cochain differential take their row order from it.
    """
    v = generator_monomial(spec, index)

    def products(coeff: Scalar | None, generator_first: bool) -> dict[Monomial, Scalar]:
        out: dict[Monomial, Scalar] = {}
        for mono, c in element.terms.items():
            if coeff is not None:
                c = c * coeff
            pair = (v, mono) if generator_first else (mono, v)
            for prod, factor in normal_mul_monomials(spec, *pair).items():
                contrib = c * factor
                out[prod] = out[prod] + contrib if prod in out else contrib
        return {m: c for m, c in out.items() if not c.is_zero()}

    out = products(left, True)
    for mono, c in products(right, False).items():
        out[mono] = out[mono] - c if mono in out else -c
    return PbwElement(spec, out)
