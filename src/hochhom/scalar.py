"""Exact coefficient arithmetic for the two supported scalar models.

Coefficients live either in Q (arbitrary-precision rationals) or in the
cyclotomic field Q(zeta_m), represented by polynomials in zeta_m reduced
modulo the m-th cyclotomic polynomial.  Both representations are canonical,
so equality, is_zero and is_one are exact decisions.

The module also owns the parameter bookkeeping: a ScalarModel stores the
multiplicatively antisymmetric matrix of quantisation parameters, and an
AlgebraSpec combines it with the integers (n, r) and exposes the extended
(n+r) x (n+r) block matrix of parameters together with exact "product of
parameter powers equals 1" decisions.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Sequence, Union

from .errors import ConfigError, DivisionByZero, IndexOutOfRange, ModelMismatch

# ---------------------------------------------------------------------------
# Polynomial helpers (dense coefficient tuples, constant term first).
# ---------------------------------------------------------------------------


def _poly_trim(coeffs):
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return tuple(coeffs[:end])


def _poly_mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    return _poly_trim(out)


def _poly_divmod(num, den):
    """Euclidean division for polynomials over a field (Fraction coeffs)."""
    num = list(num)
    den = _poly_trim(den)
    if not den:
        raise DivisionByZero("polynomial division by zero")
    quot = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    inv_lead = Fraction(1) / Fraction(den[-1])
    for i in range(len(num) - len(den), -1, -1):
        c = Fraction(num[i + len(den) - 1]) * inv_lead
        if c:
            quot[i] = c
            for j, d in enumerate(den):
                num[i + j] -= c * d
    return _poly_trim(quot), _poly_trim(num)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """The m-th cyclotomic polynomial as integer coefficients, constant first.

    Computed by dividing x^m - 1 by the product of all lower-order
    cyclotomic polynomials at proper divisors of m.
    """
    if m < 1:
        raise ConfigError("cyclotomic order must be >= 1")
    num = tuple([-1] + [0] * (m - 1) + [1])  # x^m - 1
    den = (1,)
    for d in range(1, m):
        if m % d == 0:
            den = _poly_mul(den, cyclotomic_polynomial(d))
    quot, rem = _poly_divmod(tuple(Fraction(c) for c in num), tuple(Fraction(c) for c in den))
    assert not rem
    return tuple(int(c) for c in quot)


def euler_phi(m: int) -> int:
    return len(cyclotomic_polynomial(m)) - 1


# ---------------------------------------------------------------------------
# Scalars.
# ---------------------------------------------------------------------------

_RatLike = Union[int, Fraction]


class RationalScalar:
    """An exact rational field element."""

    __slots__ = ("value",)

    def __init__(self, value: _RatLike):
        self.value = Fraction(value)

    def _coerce(self, other):
        if isinstance(other, RationalScalar):
            return other.value
        if isinstance(other, (int, Fraction)):
            return Fraction(other)
        if isinstance(other, CyclotomicScalar):
            raise ModelMismatch("cannot mix rational and cyclotomic scalars")
        return NotImplemented

    def __add__(self, other):
        v = self._coerce(other)
        return NotImplemented if v is NotImplemented else RationalScalar(self.value + v)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        return NotImplemented if v is NotImplemented else RationalScalar(self.value - v)

    def __rsub__(self, other):
        v = self._coerce(other)
        return NotImplemented if v is NotImplemented else RationalScalar(v - self.value)

    def __mul__(self, other):
        v = self._coerce(other)
        return NotImplemented if v is NotImplemented else RationalScalar(self.value * v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        if v == 0:
            raise DivisionByZero("division by zero scalar")
        return RationalScalar(self.value / v)

    def __neg__(self):
        return RationalScalar(-self.value)

    def inv(self) -> "RationalScalar":
        if self.value == 0:
            raise DivisionByZero("inverse of zero")
        return RationalScalar(1 / self.value)

    def __pow__(self, e: int):
        if e < 0:
            return self.inv() ** (-e)
        return RationalScalar(self.value**e)

    def is_zero(self) -> bool:
        return self.value == 0

    def is_one(self) -> bool:
        return self.value == 1

    def __eq__(self, other):
        if isinstance(other, RationalScalar):
            return self.value == other.value
        if isinstance(other, (int, Fraction)):
            return self.value == other
        if isinstance(other, CyclotomicScalar):
            raise ModelMismatch("cannot compare rational and cyclotomic scalars")
        return NotImplemented

    def __hash__(self):
        return hash(("rat", self.value))

    def __repr__(self):
        return f"RationalScalar({self.value})"

    def __str__(self):
        return str(self.value)


class CyclotomicField:
    """Q(zeta_m) as the quotient of Q[x] by the m-th cyclotomic polynomial."""

    def __init__(self, order: int):
        if order < 1:
            raise ConfigError("cyclotomic order must be >= 1")
        self.order = order
        self.modulus = tuple(Fraction(c) for c in cyclotomic_polynomial(order))
        self.degree = len(self.modulus) - 1
        # x^t mod Phi_m for 0 <= t < m, as padded coefficient tuples.
        self._zeta_pows = []
        cur = (Fraction(1),)
        for _ in range(order):
            self._zeta_pows.append(self._pad(cur))
            cur = self.reduce(_poly_mul(cur, (Fraction(0), Fraction(1))))
        self.zero = CyclotomicScalar(self, self._pad(()))
        self.one = CyclotomicScalar(self, self._zeta_pows[0])

    def _pad(self, coeffs):
        coeffs = tuple(Fraction(c) for c in coeffs)
        return coeffs + (Fraction(0),) * (self.degree - len(coeffs))

    def reduce(self, coeffs):
        if len(coeffs) > self.degree:
            _, coeffs = _poly_divmod(coeffs, self.modulus)
        return _poly_trim(coeffs)

    def element(self, coeffs: Sequence[_RatLike]) -> "CyclotomicScalar":
        return CyclotomicScalar(self, self._pad(self.reduce(tuple(Fraction(c) for c in coeffs))))

    def from_rational(self, value: _RatLike) -> "CyclotomicScalar":
        return self.element((value,))

    def zeta_power(self, t: int) -> "CyclotomicScalar":
        return CyclotomicScalar(self, self._zeta_pows[t % self.order])

    def __eq__(self, other):
        return isinstance(other, CyclotomicField) and other.order == self.order

    def __hash__(self):
        return hash(("cycfield", self.order))

    def __repr__(self):
        return f"CyclotomicField(order={self.order})"


class CyclotomicScalar:
    """An element of Q(zeta_m), stored as phi(m) rational coordinates."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: CyclotomicField, coeffs: tuple[Fraction, ...]):
        self.field = field
        self.coeffs = coeffs

    def _coerce(self, other):
        if isinstance(other, CyclotomicScalar):
            if other.field.order != self.field.order:
                raise ModelMismatch("cannot mix different cyclotomic orders")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        if isinstance(other, RationalScalar):
            raise ModelMismatch("cannot mix rational and cyclotomic scalars")
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return CyclotomicScalar(self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return CyclotomicScalar(self.field, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        prod = self.field.reduce(_poly_mul(self.coeffs, o.coeffs))
        return CyclotomicScalar(self.field, self.field._pad(prod))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inv()

    def __neg__(self):
        return CyclotomicScalar(self.field, tuple(-c for c in self.coeffs))

    def inv(self) -> "CyclotomicScalar":
        """Inverse via the extended Euclidean algorithm modulo Phi_m."""
        a = _poly_trim(self.coeffs)
        if not a:
            raise DivisionByZero("inverse of zero")
        # Invariant: s * self == r (mod Phi_m).
        r0, r1 = self.field.modulus, a
        s0, s1 = (), (Fraction(1),)
        while r1:
            q, rem = _poly_divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _poly_trim(
                tuple(
                    x - y
                    for x, y in itertools.zip_longest(s0, _poly_mul(q, s1), fillvalue=Fraction(0))
                )
            )
        assert len(r0) == 1, "cyclotomic modulus is irreducible, gcd must be constant"
        inv = tuple(c / r0[0] for c in s0)
        return self.field.element(inv)

    def __pow__(self, e: int):
        if e < 0:
            return self.inv() ** (-e)
        out = self.field.one
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and all(c == 0 for c in self.coeffs[1:])

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash(("cyc", self.field.order, self.coeffs))

    def __repr__(self):
        return f"CyclotomicScalar(m={self.field.order}, {self})"

    def __str__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*z" if c != 1 else "z")
            else:
                terms.append(f"{c}*z^{i}" if c != 1 else f"z^{i}")
        if not terms:
            return "0"
        return "(" + " + ".join(terms) + ")"


Scalar = Union[RationalScalar, CyclotomicScalar]


# ---------------------------------------------------------------------------
# Scalar models: the quantisation matrix Lambda.
# ---------------------------------------------------------------------------


class RationalModel:
    """Parameters lambda_{i,j} given as explicit nonzero rationals."""

    def __init__(self, values: Sequence[Sequence[_RatLike]]):
        self.n = len(values)
        self.values = tuple(tuple(Fraction(v) for v in row) for row in values)
        for row in self.values:
            if len(row) != self.n:
                raise ConfigError("parameter matrix must be square")
        for i in range(self.n):
            if self.values[i][i] != 1:
                raise ConfigError("parameter matrix needs 1 on the diagonal")
            for j in range(self.n):
                if self.values[i][j] == 0:
                    raise ConfigError("parameters must be nonzero")
                if self.values[i][j] * self.values[j][i] != 1:
                    raise ConfigError("parameter matrix is not multiplicatively antisymmetric")

    def one(self) -> RationalScalar:
        return RationalScalar(1)

    def zero(self) -> RationalScalar:
        return RationalScalar(0)

    def scalar(self, value: _RatLike) -> RationalScalar:
        return RationalScalar(value)

    def lambda_entry(self, i: int, j: int) -> RationalScalar:
        return RationalScalar(self.values[i - 1][j - 1])

    def lambda_power_product(self, factors: Iterable[tuple[int, int, int]]) -> RationalScalar:
        out = Fraction(1)
        for i, j, e in factors:
            v = self.values[i - 1][j - 1]
            out *= v**e if e >= 0 else (1 / v) ** (-e)
        return RationalScalar(out)

    def lambda_product_is_one(self, factors: Iterable[tuple[int, int, int]]) -> bool:
        return self.lambda_power_product(factors).is_one()

    def is_free_of_maximal_rank(self) -> bool:
        """Whether the lambda_{i,j} (i<j) generate a free group of rank n(n-1)/2.

        Writes every numerator and denominator over one coprime base (built
        by gcd factor refinement, no factoring) and checks that the exponent
        vectors are linearly independent.  Signs are ignored: a relation up
        to sign becomes a relation after squaring.
        """
        from .linalg import span_rank

        params = [self.values[i][j] for i in range(self.n) for j in range(i + 1, self.n)]
        base = _coprime_base([abs(v.numerator) for v in params] + [v.denominator for v in params])
        vectors = []
        for v in params:
            vec = {}
            for c, b in enumerate(base):
                e = _valuation(abs(v.numerator), b) - _valuation(v.denominator, b)
                if e:
                    vec[c] = RationalScalar(e)
            vectors.append(vec)
        return span_rank(vectors) == len(vectors)

    def to_config(self) -> dict:
        return {
            "type": "rational",
            "values": [[str(v) for v in row] for row in self.values],
        }

    def __eq__(self, other):
        return isinstance(other, RationalModel) and other.values == self.values

    def __hash__(self):
        return hash(("ratmodel", self.values))


class CyclotomicModel:
    """Parameters lambda_{i,j} = zeta_m ^ E_{i,j} for an integer matrix E."""

    def __init__(self, order: int, exponents: Sequence[Sequence[int]]):
        self.order = order
        self.field = CyclotomicField(order)
        self.exponents = tuple(tuple(int(e) for e in row) for row in exponents)
        self.n = len(self.exponents)
        for row in self.exponents:
            if len(row) != self.n:
                raise ConfigError("exponent matrix must be square")
        for i in range(self.n):
            if self.exponents[i][i] % order != 0:
                raise ConfigError("exponent matrix needs 0 (mod m) on the diagonal")
            for j in range(self.n):
                if (self.exponents[i][j] + self.exponents[j][i]) % order != 0:
                    raise ConfigError("exponent matrix is not additively antisymmetric mod m")

    def one(self) -> CyclotomicScalar:
        return self.field.one

    def zero(self) -> CyclotomicScalar:
        return self.field.zero

    def scalar(self, value: _RatLike) -> CyclotomicScalar:
        return self.field.from_rational(value)

    def lambda_entry(self, i: int, j: int) -> CyclotomicScalar:
        return self.field.zeta_power(self.exponents[i - 1][j - 1])

    def lambda_power_product(self, factors: Iterable[tuple[int, int, int]]) -> CyclotomicScalar:
        t = 0
        for i, j, e in factors:
            t += e * self.exponents[i - 1][j - 1]
        return self.field.zeta_power(t)

    def lambda_product_is_one(self, factors: Iterable[tuple[int, int, int]]) -> bool:
        t = 0
        for i, j, e in factors:
            t += e * self.exponents[i - 1][j - 1]
        return t % self.order == 0

    def is_free_of_maximal_rank(self) -> bool:
        # Roots of unity never generate a free group of positive rank.
        return self.n < 2

    def to_config(self) -> dict:
        return {
            "type": "cyclotomic",
            "order": self.order,
            "exponents": [list(row) for row in self.exponents],
        }

    def __eq__(self, other):
        return (
            isinstance(other, CyclotomicModel)
            and other.order == self.order
            and other.exponents == self.exponents
        )

    def __hash__(self):
        return hash(("cycmodel", self.order, self.exponents))


ScalarModel = Union[RationalModel, CyclotomicModel]


def _coprime_base(values: Iterable[int]) -> list[int]:
    """Pairwise coprime integers > 1 of which every value is a product of powers.

    Gcd factor refinement (Bach, Driscoll and Shallit, J. Algorithms 1993):
    a value sharing a factor g > 1 with a base element b is split, together
    with b, into g, b/g and value/g.  Each split divides the product of all
    numbers held by g, so the loop ends after polynomially many gcds.
    """
    base: list[int] = []
    todo = [v for v in values if v > 1]
    while todo:
        x = todo.pop()
        for idx, b in enumerate(base):
            g = gcd(x, b)
            if g > 1:
                del base[idx]
                todo += [y for y in (g, b // g, x // g) if y > 1]
                break
        else:
            base.append(x)
    return base


def _valuation(value: int, b: int) -> int:
    """The largest e with b^e dividing value (b > 1, value > 0)."""
    e = 0
    while value % b == 0:
        value //= b
        e += 1
    return e


# ---------------------------------------------------------------------------
# AlgebraSpec: (n, r, model) plus the extended parameter matrix.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlgebraSpec:
    """One algebra: n q-commuting generators, r of them completed to Weyl pairs.

    The extended (n+r) x (n+r) parameter matrix has the block layout

        [ Lambda_r        Lambda_{r,n}^{-1} ]
        [ Lambda_{n,r}^{-1}    Lambda       ]

    where the first r rows/columns correspond to the x generators and the
    remaining n to the y generators.
    """

    n: int
    r: int
    model: ScalarModel

    def __post_init__(self):
        if not (1 <= self.n and 0 <= self.r <= self.n):
            raise ConfigError("need 1 <= n and 0 <= r <= n")
        if self.model.n != self.n:
            raise ConfigError("parameter matrix size must equal n")

    @property
    def num_generators(self) -> int:
        return self.n + self.r

    def one(self) -> Scalar:
        return self.model.one()

    def zero(self) -> Scalar:
        return self.model.zero()

    def scalar(self, value: _RatLike) -> Scalar:
        return self.model.scalar(value)

    def _tilde_factor(self, k: int, i: int) -> tuple[int, int, int]:
        """Map an extended-matrix index pair to (row, col, exponent) over Lambda."""
        m = self.num_generators
        if not (1 <= k <= m and 1 <= i <= m):
            raise IndexOutOfRange(f"extended index ({k},{i}) out of range for n+r={m}")
        r = self.r
        if k <= r and i <= r:
            return (k, i, 1)
        if k <= r < i:
            return (k, i - r, -1)
        if i <= r < k:
            return (k - r, i, -1)
        return (k - r, i - r, 1)

    def lambda_tilde(self, k: int, i: int) -> Scalar:
        """Entry of the extended parameter matrix Q(Lambda) (1-based)."""
        a, b, e = self._tilde_factor(k, i)
        return self.model.lambda_power_product([(a, b, e)])

    def _over_lambda(self, factors: Iterable[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
        """Rewrite extended-matrix factors (k, i, e) as factors over Lambda."""
        mapped = []
        for k, i, e in factors:
            a, b, s = self._tilde_factor(k, i)
            mapped.append((a, b, s * e))
        return mapped

    def lambda_tilde_power_product(self, factors: Iterable[tuple[int, int, int]]) -> Scalar:
        """Exact product of powers of extended-matrix entries."""
        return self.model.lambda_power_product(self._over_lambda(factors))

    def monomial_is_one(self, factors: Iterable[tuple[int, int, int]]) -> bool:
        """Exact decision of prod lambda~_{k,i}^e = 1 over extended indices."""
        return self.model.lambda_product_is_one(self._over_lambda(factors))

    def is_semiclassical(self) -> bool:
        return self.r == self.n

    def is_all_one(self) -> bool:
        m = self.num_generators
        return all(
            self.lambda_tilde(i, j).is_one() for i in range(1, m + 1) for j in range(1, m + 1)
        )

    def is_free(self) -> bool:
        return self.model.is_free_of_maximal_rank()

    def root_of_unity_order(self, i: int, j: int) -> int | None:
        """Multiplicative order of lambda_{i,j}, or None if infinite."""
        if isinstance(self.model, CyclotomicModel):
            e = self.model.exponents[i - 1][j - 1] % self.model.order
            return self.model.order // gcd(self.model.order, e) if e else 1
        v = self.model.values[i - 1][j - 1]
        if v == 1:
            return 1
        if v == -1:
            return 2
        return None
