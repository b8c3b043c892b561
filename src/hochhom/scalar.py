"""Exact coefficient arithmetic: one scalar type, two parameter models.

Every coefficient is an element of a cyclotomic field Q(zeta_m); the
rationals are the case m = 1, the module-level field QQ.  An element of
Q(zeta_m) is one integer vector of its phi(m) coordinates in the basis 1,
zeta, ..., zeta^(phi-1) over one positive common denominator that shares no
factor with all of them; products are reduced modulo the m-th cyclotomic
polynomial, which is monic, with an integer table.  The representation is
canonical, so equality, is_zero and is_one are exact decisions.  There is one
product and one inverse (extended Euclid, or directly for c zeta^t, t < phi).

The module also owns the parameter bookkeeping: a ScalarModel stores the
multiplicatively antisymmetric matrix of quantisation parameters, given
either as explicit rationals (RationalModel, computing in QQ) or as powers of
zeta_m (CyclotomicModel), and an AlgebraSpec combines it with the integers
(n, r) and exposes the extended (n+r) x (n+r) block matrix of parameters
together with exact "product of parameter powers equals 1" decisions.

Both models map the parameters once, when they are built, into an integer
character lattice Z/t x Z^B: a rational lambda is a sign bit (t = 2) and its
exponents over a coprime base of B integers, a root of unity zeta_m^E is E
mod m (t = m, B = 0).  Every product of parameter powers is written over
the extended matrix lambda~ and is the sum of the characters of its entries,
read from one table per AlgebraSpec; it is 1 exactly when that sum is zero
in the lattice, and its value is looked up per sum in the model's cache.
"""
from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
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


def _pseudo_divmod(num, den):
    """Integer pseudo-division: (q, rem, scale) with scale * num = q * den + rem.

    scale is lead^(deg num - deg den + 1) for the leading coefficient lead of
    den, so for a monic den, as the cyclotomic polynomials are, this is exact
    division with remainder.
    """
    den = _poly_trim(den)
    if not den:
        raise DivisionByZero("polynomial division by zero")
    top, lead = len(den) - 1, den[-1]
    steps = len(num) - top
    scale = lead ** max(steps, 0)
    rem = [c * scale for c in num]
    terms = [(j, d) for j, d in enumerate(den[:-1]) if d]
    quot = [0] * max(steps, 0)
    for i in range(steps - 1, -1, -1):
        c = rem[i + top]
        if c:
            # Exact: the quotient of scale * num over Q has integer coefficients.
            c //= lead
            quot[i] = c
            rem[i + top] = 0
            for j, d in terms:
                rem[i + j] -= c * d
    return _poly_trim(quot), _poly_trim(rem), scale


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """The m-th cyclotomic polynomial as integer coefficients, constant first.

    Computed by dividing x^m - 1 by the lower-order cyclotomic polynomials
    at the proper divisors of m, each exactly and over the integers.
    """
    if m < 1:
        raise ConfigError("cyclotomic order must be >= 1")
    num = tuple([-1] + [0] * (m - 1) + [1])  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            num, rem, _ = _pseudo_divmod(num, cyclotomic_polynomial(d))
            assert not rem
    return num


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with bases 2, 3, 5, 7: exact for n < 3,215,031,751."""
    if n < 11:
        return n in (2, 3, 5, 7)
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x != 1 and all(pow(x, 2**i, n) != n - 1 for i in range(s)):
            return False
    return True


# ---------------------------------------------------------------------------
# Scalars.
# ---------------------------------------------------------------------------

_RatLike = Union[int, Fraction]


class CyclotomicField:
    """Q(zeta_m) as the quotient of Q[x] by the m-th cyclotomic polynomial.

    Phi_m is monic, so x^k mod Phi_m has integer coefficients for every k.
    Its sparse form ((index, coefficient) pairs) for phi(m) <= k < 2 phi(m) - 1
    is the reduction table of a product; further powers of zeta are built on
    demand, one multiplication by x at a time.
    """

    def __init__(self, order: int):
        if order < 1:
            raise ConfigError("cyclotomic order must be >= 1")
        self.order = order
        self.modulus = cyclotomic_polynomial(order)
        self.degree = phi = len(self.modulus) - 1
        # _powers[k] is x^k mod Phi_m in sparse form, k = 0, 1, ... as built.
        self._powers = [((k, 1),) for k in range(phi)]
        self._powers.append(tuple((j, -c) for j, c in enumerate(self.modulus[:-1]) if c))
        self._extend_powers(2 * phi - 2)
        self._table = self._powers[phi : 2 * phi - 1]
        self._zetas: dict[int, CyclotomicScalar] = {}
        self.zero = CyclotomicScalar(self, (0,) * phi)
        self.one = self.zeta_power(0)

    @cached_property
    def residue_map(self) -> tuple[int, tuple[int, ...]]:
        """The first prime p = 1 (mod m) above 2^30, and the images of zeta^0, ..., zeta^(phi-1).

        zeta maps to g = a^((p-1)/m) for the first a >= 2 giving g of order m, so
        Phi_m(g) = 0 mod p and ``residue`` is a ring map where it is defined.
        """
        m = self.order
        p = (2**30 // m + 1) * m + 1
        while not _is_prime(p):
            p += m
        if p >= 3_215_031_751:
            raise ConfigError(f"cyclotomic order {m} has no residue prime below 3.2e9")
        divisors = [q for q in range(2, m + 1) if m % q == 0 and _is_prime(q)]
        for a in itertools.count(2):
            g = pow(a, (p - 1) // m, p)
            if all(pow(g, m // q, p) != 1 for q in divisors):
                return p, tuple(pow(g, k, p) for k in range(self.degree))

    def residue(self, x: "CyclotomicScalar") -> int | None:
        """The image of x in GF(p) under zeta -> g, or None when p divides its denominator."""
        p, images = self.residue_map
        if x.den % p == 0:
            return None
        value = sum(c * g for c, g in zip(x.nums, images))
        return value % p if x.den == 1 else value * pow(x.den, -1, p) % p

    def _extend_powers(self, k: int) -> None:
        """Build x^j mod Phi_m for every j <= k, multiplying by x each step."""
        powers, phi = self._powers, self.degree
        while len(powers) <= k:
            out: dict[int, int] = {}
            for j, d in powers[-1]:
                if j + 1 < phi:
                    out[j + 1] = out.get(j + 1, 0) + d
                else:
                    for i, c in powers[phi]:
                        out[i] = out.get(i, 0) + d * c
            powers.append(tuple((j, d) for j, d in sorted(out.items()) if d))

    def _zeta_terms(self, t: int) -> tuple[tuple[int, int], ...]:
        """zeta^t in sparse form."""
        t %= self.order
        self._extend_powers(t)
        return self._powers[t]

    def _mul_nums(self, a, terms) -> list[int]:
        """The integer vector a times the sparse vector terms, reduced mod Phi_m."""
        phi = self.degree
        out = [0] * (2 * phi - 1)
        for i, c in enumerate(a):
            if c:
                for j, d in terms:
                    out[i + j] += c * d
        for k, row in enumerate(self._table, phi):
            c = out[k]
            if c:
                for j, d in row:
                    out[j] += c * d
        del out[phi:]
        return out

    def _make(self, nums, den: int) -> "CyclotomicScalar":
        """The canonical element nums / den (den > 0)."""
        if den != 1:
            g = gcd(den, *nums)
            if g != 1:
                nums = [c // g for c in nums]
                den //= g
        return CyclotomicScalar(self, tuple(nums), den)

    def element(self, coeffs: Sequence[_RatLike]) -> "CyclotomicScalar":
        """sum_k coeffs[k] zeta^k, for any number of coefficients."""
        fracs = [Fraction(c) for c in coeffs]
        den = lcm(*(f.denominator for f in fracs))
        nums = [0] * self.degree
        for k, f in enumerate(fracs):
            if f:
                c = f.numerator * (den // f.denominator)
                for j, d in self._zeta_terms(k):
                    nums[j] += c * d
        return self._make(nums, den)

    def from_rational(self, value: _RatLike) -> "CyclotomicScalar":
        v = Fraction(value)
        return CyclotomicScalar(self, (v.numerator,) + (0,) * (self.degree - 1), v.denominator)

    def zeta_power(self, t: int) -> "CyclotomicScalar":
        t %= self.order
        z = self._zetas.get(t)
        if z is None:
            nums = [0] * self.degree
            for j, d in self._zeta_terms(t):
                nums[j] = d
            z = self._zetas[t] = CyclotomicScalar(self, tuple(nums))
        return z

    def __eq__(self, other):
        return isinstance(other, CyclotomicField) and other.order == self.order

    def __hash__(self):
        return hash(("cycfield", self.order))

    def __repr__(self):
        return f"CyclotomicField(order={self.order})"


class CyclotomicScalar:
    """An element (nums[0] + nums[1] zeta + ... + nums[phi-1] zeta^(phi-1)) / den.

    nums holds phi(m) integers and den is a positive integer sharing no factor
    with all of them, so (nums, den) is canonical and equality is a tuple
    comparison.
    """

    __slots__ = ("field", "nums", "den")

    def __init__(self, field: CyclotomicField, nums: tuple[int, ...], den: int = 1):
        self.field = field
        self.nums = nums
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The phi(m) rational coordinates in the power basis."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    def _coerce(self, other):
        if isinstance(other, CyclotomicScalar):
            if other.field.order != self.field.order:
                raise ModelMismatch("cannot mix different cyclotomic orders")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b, d1, d2 = self.nums, o.nums, self.den, o.den
        if d1 == d2:
            return self.field._make([x + y for x, y in zip(a, b)], d1)
        g = gcd(d1, d2)
        f1, f2 = d2 // g, d1 // g
        return self.field._make([x * f1 + y * f2 for x, y in zip(a, b)], d1 * f1)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b, d1, d2 = self.nums, o.nums, self.den, o.den
        if d1 == d2:
            return self.field._make([x - y for x, y in zip(a, b)], d1)
        g = gcd(d1, d2)
        f1, f2 = d2 // g, d1 // g
        return self.field._make([x * f1 - y * f2 for x, y in zip(a, b)], d1 * f1)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if isinstance(other, int):
            return self.field._make([c * other for c in self.nums], self.den)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        terms = [(j, d) for j, d in enumerate(o.nums) if d]
        return self.field._make(self.field._mul_nums(self.nums, terms), self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inv()

    def __neg__(self):
        return CyclotomicScalar(self.field, tuple(-c for c in self.nums), self.den)

    def inv(self) -> "CyclotomicScalar":
        """The inverse; a rational multiple of one basis power zeta^t is inverted directly."""
        field = self.field
        terms = [(j, c) for j, c in enumerate(self.nums) if c]
        if not terms:
            raise DivisionByZero("inverse of zero")
        if len(terms) == 1:
            # self = (c / den) zeta^t with gcd(c, den) = 1.
            ((t, c),) = terms
            sign = -1 if c < 0 else 1
            nums = tuple(sign * self.den * d for d in field.zeta_power(-t).nums)
            return CyclotomicScalar(field, nums, sign * c)
        # Extended Euclid modulo Phi_m over the integers, by pseudo-division;
        # invariant: s * self.nums == r (mod Phi_m).
        r0, r1 = field.modulus, _poly_trim(self.nums)
        s0, s1 = (), (1,)
        while len(r1) > 1:
            q, rem, scale = _pseudo_divmod(r0, r1)
            qs = _poly_mul(q, s1)
            s2 = [scale * x - y for x, y in itertools.zip_longest(s0, qs, fillvalue=0)]
            g = gcd(*rem, *s2)
            r0, s0 = r1, s1
            r1, s1 = tuple(c // g for c in rem), _poly_trim([c // g for c in s2])
        assert len(r1) == 1, "cyclotomic modulus is irreducible, gcd must be constant"
        # self = nums / den and s1 * nums == c, so the inverse is den s1 / c.
        c = r1[0]
        sign = 1 if c > 0 else -1
        nums = [sign * self.den * x for x in s1] + [0] * (field.degree - len(s1))
        return field._make(nums, sign * c)

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
        return not any(self.nums)

    def is_one(self) -> bool:
        return self.den == 1 and self.nums == self.field.one.nums

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.den == o.den and self.nums == o.nums

    def __hash__(self):
        return hash(("cyc", self.field.order, self.nums, self.den))

    def __repr__(self):
        return f"CyclotomicScalar(m={self.field.order}, {self})"

    def __str__(self):
        if self.field.order == 1:
            # Q(zeta_1) is Q, and a rational prints bare: 3/7, not (3/7).
            return str(Fraction(self.nums[0], self.den))
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


Scalar = CyclotomicScalar

# The rationals, as Q(zeta_1); every rational parameter model computes here.
QQ = CyclotomicField(1)
# Constructor alias, not a class: the benchmark's per-layer micro job
# (perfbench/worker.py) builds its rational operands under this name.
RationalScalar = QQ.from_rational


# ---------------------------------------------------------------------------
# Scalar models: the quantisation matrix Lambda.
# ---------------------------------------------------------------------------


def as_integer(value, what: str) -> int:
    """A JSON integer or an integer string as an int; a float or a boolean is refused."""
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise ConfigError(f"{what} must be an integer, got {value!r}")


class _LatticeModel:
    """The character lattice Z/torsion x Z^(rank-1) shared by the two scalar models.

    characters[i][j] is the character of lambda_{i+1,j+1}: an integer vector
    of length rank whose first coordinate lives in Z/torsion and whose other
    coordinates are exact.  Subclasses set ``field``, the field their scalars
    live in, call ``_set_lattice`` in their constructor and say how to turn a
    reduced character back into a scalar.
    """

    field: CyclotomicField

    def _set_lattice(self, torsion: int, rank: int, characters) -> None:
        self.torsion, self.rank = torsion, rank
        # Characters are periodic mod t in every exponent when the lattice is Z/t alone.
        self.period = torsion if rank == 1 else 0
        self.characters = tuple(tuple(row) for row in characters)
        self._products: dict[tuple[int, ...], Scalar] = {}

    def is_trivial(self, vector: Sequence[int]) -> bool:
        """Whether an unreduced lattice vector is zero, so its product is 1."""
        return vector[0] % self.torsion == 0 and not any(vector[1:])

    def reduce(self, vector: list[int]) -> tuple[int, ...]:
        """The reduced character of an unreduced lattice vector, which is reduced in place."""
        vector[0] %= self.torsion
        return tuple(vector)

    def add(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        """The reduced sum of two reduced characters: the character of the product."""
        return ((a[0] + b[0]) % self.torsion, *map(operator.add, a[1:], b[1:]))

    def value(self, key: tuple[int, ...]) -> Scalar:
        """The scalar of a reduced character, built once per model."""
        value = self._products.get(key)
        if value is None:
            value = self._products[key] = self._scalar_of(key)
        return value

    def _scalar_of(self, key: tuple[int, ...]) -> Scalar:
        raise NotImplementedError


class RationalModel(_LatticeModel):
    """Parameters lambda_{i,j} given as explicit nonzero rationals.

    Lattice: base is a coprime base of every numerator and denominator (gcd
    factor refinement, no factoring), and lambda = (-1)^s prod_c base[c]^e_c
    has the character (s, e_1, ..., e_B) with s taken mod 2.  Pairwise coprime
    integers > 1 are multiplicatively independent, so the character of a
    product of parameters is zero exactly when the product is 1.
    """

    field = QQ

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
        upper = [self.values[i][j] for i in range(self.n) for j in range(i + 1, self.n)]
        self.base = tuple(
            _coprime_base([abs(v.numerator) for v in upper] + [v.denominator for v in upper])
        )
        rows = [[self._lattice_vector(v) for v in row] for row in self.values]
        self._set_lattice(2, 1 + len(self.base), rows)

    def _lattice_vector(self, v: Fraction) -> tuple[int, ...]:
        num, den = abs(v.numerator), v.denominator
        return (int(v < 0),) + tuple(_valuation(num, b) - _valuation(den, b) for b in self.base)

    def _scalar_of(self, key: tuple[int, ...]) -> CyclotomicScalar:
        num, den = 1, 1
        for b, e in zip(self.base, key[1:]):
            if e > 0:
                num *= b**e
            elif e < 0:
                den *= b**-e
        return QQ._make([-num if key[0] else num], den)

    def lambda_entry(self, i: int, j: int) -> CyclotomicScalar:
        return QQ.from_rational(self.values[i - 1][j - 1])

    def is_free_of_maximal_rank(self) -> bool:
        """Whether the lambda_{i,j} (i<j) generate a free group of rank n(n-1)/2.

        Checks that the exponent parts of their characters are linearly
        independent.  The sign bit is dropped: a relation up to sign becomes
        a relation after squaring.
        """
        from .linalg import span_rank

        vectors = [
            {c: QQ.from_rational(e) for c, e in enumerate(self.characters[i][j][1:]) if e}
            for i in range(self.n)
            for j in range(i + 1, self.n)
        ]
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


class CyclotomicModel(_LatticeModel):
    """Parameters lambda_{i,j} = zeta_m ^ E_{i,j} for an integer matrix E.

    Lattice: the character of lambda_{i,j} is (E_{i,j} mod m,), in Z/m.  The
    order and the exponents are read by ``as_integer``.
    """

    def __init__(self, order: int, exponents: Sequence[Sequence[int]]):
        self.order = order = as_integer(order, "the cyclotomic order")
        self.field = CyclotomicField(order)
        self.exponents = tuple(
            tuple(as_integer(e, "an exponent") for e in row) for row in exponents
        )
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
        self._set_lattice(order, 1, [[(e % order,) for e in row] for row in self.exponents])

    def _scalar_of(self, key: tuple[int, ...]) -> CyclotomicScalar:
        return self.field.zeta_power(key[0])

    def lambda_entry(self, i: int, j: int) -> CyclotomicScalar:
        return self.field.zeta_power(self.exponents[i - 1][j - 1])

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


class AlgebraSpec:
    """One algebra: n q-commuting generators, r of them completed to Weyl pairs.

    The extended (n+r) x (n+r) parameter matrix lambda~ has the block layout

        [ Lambda_r        Lambda_{r,n}^{-1} ]
        [ Lambda_{n,r}^{-1}    Lambda       ]

    where the first r rows/columns correspond to the x generators and the
    remaining n to the y generators: v_a v_b = lambda~_{a,b} v_b v_a but for a
    Weyl pair.  Only ``_tilde_factor`` knows this layout, and only to build
    the table of entry characters that ``character`` sums.
    """

    def __init__(self, n: int, r: int, model: ScalarModel):
        if not (1 <= n and 0 <= r <= n):
            raise ConfigError("need 1 <= n and 0 <= r <= n")
        if model.n != n:
            raise ConfigError("parameter matrix size must equal n")
        vars(self).update(n=n, r=r, model=model)  # a __dict__ holds the cached tables too

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.r, self.model) == (other.n, other.r, other.model)

    def __hash__(self):
        return hash((self.n, self.r, self.model))

    def __repr__(self):
        return f"AlgebraSpec(n={self.n!r}, r={self.r!r}, model={self.model!r})"

    @property
    def num_generators(self) -> int:
        return self.n + self.r

    def one(self) -> Scalar:
        return self.model.field.one

    def scalar(self, value: _RatLike) -> Scalar:
        return self.model.field.from_rational(value)

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

    @cached_property
    def _tilde_characters(self) -> dict[int, dict[int, tuple[tuple[int, int], ...]]]:
        """[k][i]: the nonzero (coordinate, value) pairs of the character of lambda~_{k,i}.

        Keyed by the 1-based indices, so an index outside 1..n+r has no entry.
        """
        m, chars = self.num_generators, self.model.characters
        table = {k: {} for k in range(1, m + 1)}
        for k, row in table.items():
            for i in range(1, m + 1):
                a, b, e = self._tilde_factor(k, i)
                row[i] = tuple((c, e * x) for c, x in enumerate(chars[a - 1][b - 1]) if x)
        return table

    def character(self, factors: Iterable[tuple[int, int, int]]) -> tuple[int, ...]:
        """The reduced lattice character of prod lambda~_{k,i}^e over 1-based (k, i, e) factors."""
        table, model = self._tilde_characters, self.model
        acc = [0] * model.rank
        try:
            for k, i, e in factors:
                for c, x in table[k][i]:
                    acc[c] += e * x
        except KeyError:
            self._tilde_factor(k, i)  # raises IndexOutOfRange
            raise
        return model.reduce(acc)

    def add_character(self, acc: list[int], k: int, i: int, e: int = 1) -> None:
        """Add e times the character of lambda~_{k,i} (1-based) to an unreduced lattice vector."""
        for c, x in self._tilde_characters[k][i]:
            acc[c] += e * x

    def lambda_tilde(self, k: int, i: int) -> Scalar:
        """Entry of the extended parameter matrix Q(Lambda) (1-based)."""
        return self.model.value(self.character([(k, i, 1)]))

    def lambda_tilde_power_product(self, factors: Iterable[tuple[int, int, int]]) -> Scalar:
        """Exact product of powers of extended-matrix entries."""
        return self.model.value(self.character(factors))

    def monomial_is_one(self, factors: Iterable[tuple[int, int, int]]) -> bool:
        """Exact decision of prod lambda~_{k,i}^e = 1 over extended indices."""
        return self.model.is_trivial(self.character(factors))

    @cached_property
    def block_characters(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """[j][s]: the character of lambda~ from block-key generator s to block-key generator j.

        The block-key generators are x_1..x_r, then y_{r+1}..y_n, one per
        coordinate of a ``koszul.block_key``.
        """
        n, r = self.n, self.r
        gen = [s + 1 if s < r else r + s + 1 for s in range(n)]
        return tuple(
            tuple(self.character([(gen[s], gen[j], 1)]) for s in range(n)) for j in range(n)
        )

    @cached_property
    def lowering_table(self) -> tuple[tuple[int, int, int, tuple], ...]:
        """(w, e, sign, pairs) per lowering term of ``koszul._lowering``: x_1..x_r, then y_1..y_r.

        The term removes wedge position w and lowers exponent e, with coefficient
        sign (-1)^(wedge factors before w) mono[e]; its character sums f * ch over
        the (p, ch) in pairs, f = (mono + wedge)[p], for the factors that are not 1.
        """
        n, r, m, chars = self.n, self.r, self.num_generators, self._tilde_characters
        rows = []
        for i in range(1, r + 1):  # lambda~_{k,i}^{gamma_k} (k < i), lambda~_{r+k,i}^{beta_k} (k > i)
            factors = [(m + k - 1, k, i) for k in range(1, i)]
            factors += [(r + k - 1, r + k, i) for k in range(i + 1, n + 1)]
            rows.append((i - 1, r + i - 1, -1, factors))
        for j in range(1, r + 1):  # lambda~_{r+j,r+k}^{delta_k} (k > j), lambda~_{r+j,k}^{alpha_k} (k < j)
            factors = [(m + r + k - 1, r + j, r + k) for k in range(j + 1, n + 1)]
            factors += [(k - 1, r + j, k) for k in range(1, j)]
            rows.append((r + j - 1, j - 1, 1, factors))
        return tuple(
            (w, e, sign, tuple((p, chars[k][i]) for p, k, i in factors if chars[k][i]))
            for w, e, sign, factors in rows
        )

    @cached_property
    def generator_monomials(self) -> tuple[tuple[int, ...], ...]:
        """[i - 1]: the exponent vector of the generator v_i."""
        m = self.num_generators
        return tuple(tuple(int(k == i) for k in range(m)) for i in range(m))

    @cached_property
    def product_table(self) -> dict:
        """Per-spec table of PBW monomial products (``algebra.normal_mul_monomials``)."""
        return {}

    def is_free(self) -> bool:
        return self.model.is_free_of_maximal_rank()

    def root_of_unity_order(self, i: int, j: int) -> int | None:
        """Multiplicative order of lambda_{i,j}, or None if infinite."""
        t, ch = self.model.torsion, self.model.characters[i - 1][j - 1]
        return None if any(ch[1:]) else t // gcd(t, ch[0])
