"""Exact scalar arithmetic: rationals, cyclotomic fields, parameter matrices."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hochhom import scalar as scalar_module
from hochhom.errors import ConfigError, DivisionByZero, IndexOutOfRange, ModelMismatch
from hochhom.scalar import (
    AlgebraSpec,
    CyclotomicField,
    CyclotomicModel,
    CyclotomicScalar,
    QQ,
    RationalModel,
    RationalScalar,
    cyclotomic_polynomial,
)


def euler_phi(m):
    """phi(m), as the degree of the m-th cyclotomic polynomial."""
    return len(cyclotomic_polynomial(m)) - 1


def is_all_one(spec):
    """Every entry of the extended parameter matrix is 1."""
    indices = range(1, spec.num_generators + 1)
    return all(spec.lambda_tilde(k, i).is_one() for k in indices for i in indices)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6, 8, 9, 12, 15])
def test_cyclotomic_polynomial_matches_sympy(order):
    ours = cyclotomic_polynomial(order)
    x = sympy.symbols("x")
    theirs = sympy.Poly(sympy.cyclotomic_poly(order, x), x).all_coeffs()
    assert [Fraction(int(c)) for c in reversed(theirs)] == list(ours)


@pytest.mark.parametrize("order,phi", [(1, 1), (2, 1), (3, 2), (4, 2), (12, 4), (30, 8)])
def test_euler_phi(order, phi):
    assert euler_phi(order) == phi


def test_rational_scalar_field_ops():
    a = RationalScalar(Fraction(3, 4))
    b = RationalScalar(Fraction(-2, 5))
    assert a * b == Fraction(-3, 10)
    assert a / b == Fraction(-15, 8)
    assert a + b - a == b
    assert a ** -2 == Fraction(16, 9)
    assert a * a.inv() == RationalScalar(1)
    with pytest.raises(DivisionByZero):
        a / RationalScalar(0)


@settings(max_examples=200, deadline=None)
@given(a=st.fractions(), b=st.fractions(), e=st.integers(min_value=-3, max_value=3))
def test_q_zeta_1_agrees_with_fraction(a, b, e):
    x, y = QQ.from_rational(a), QQ.from_rational(b)
    assert x + y == a + b and x - y == a - b and x * y == a * b
    assert (x == y) == (a == b)
    # The same value reached by another route is equal and hashes equally.
    for got, want in ((x + y, a + b), (x * y, a * b), (y - x + x, b)):
        same = QQ.from_rational(want)
        assert got == same and hash(got) == hash(same)
    assert str(x) == str(a) and str(x * y) == str(a * b)
    if b:
        assert x / y == a / b and y.inv() == 1 / b
    else:
        with pytest.raises(DivisionByZero):
            x / y
        with pytest.raises(DivisionByZero):
            y.inv()
    if a or e >= 0:
        assert x**e == a**e and str(x**e) == str(a**e)
    else:
        with pytest.raises(DivisionByZero):
            x**e


def test_mixed_model_arithmetic_rejected():
    field = CyclotomicField(4)
    z = field.zeta_power(1)
    with pytest.raises(ModelMismatch):
        z * RationalScalar(Fraction(1, 2))


def test_cyclotomic_root_of_unity_relations():
    field = CyclotomicField(4)
    i = field.zeta_power(1)
    assert i * i == field.zeta_power(2)
    assert (i ** 4).is_one()
    assert i.inv() == field.zeta_power(3)
    assert (i * i).coeffs == field.from_rational(Fraction(-1)).coeffs


def _cyclotomic_elements(order):
    degree = euler_phi(order)
    field = CyclotomicField(order)
    coeff = st.fractions(min_value=-20, max_value=20, max_denominator=8)
    return st.lists(coeff, min_size=degree, max_size=degree).map(
        lambda cs: field.element(cs)
    )


@settings(max_examples=60, deadline=None)
@given(a=_cyclotomic_elements(12), b=_cyclotomic_elements(12), c=_cyclotomic_elements(12))
def test_cyclotomic_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    assert a * b == b * a


@settings(max_examples=40, deadline=None)
@given(a=_cyclotomic_elements(9))
def test_cyclotomic_inverse(a):
    if not a.is_zero():
        assert (a * a.inv()).is_one()


def test_cyclotomic_inverse_against_sympy():
    field = CyclotomicField(5)
    a = field.element([Fraction(1), Fraction(2), Fraction(0), Fraction(-1)])
    inv = a.inv()
    x = sympy.symbols("x")
    poly_a = sum(int(c.numerator) * x**k / int(c.denominator) for k, c in enumerate(a.coeffs))
    poly_b = sum(int(c.numerator) * x**k / int(c.denominator) for k, c in enumerate(inv.coeffs))
    modulus = sympy.cyclotomic_poly(5, x)
    assert sympy.rem(sympy.expand(poly_a * poly_b - 1), modulus, x) == 0


def test_rational_model_validation():
    good = RationalModel([[Fraction(1), Fraction(2)], [Fraction(1, 2), Fraction(1)]])
    assert good.lambda_entry(1, 2) == 2
    with pytest.raises(Exception):
        RationalModel([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(1)]])
    with pytest.raises(Exception):
        RationalModel([[Fraction(2)]])


def test_cyclotomic_model_validation():
    CyclotomicModel(4, [[0, 1], [-1, 0]])
    with pytest.raises(Exception):
        CyclotomicModel(4, [[0, 1], [1, 0]])
    with pytest.raises(Exception):
        CyclotomicModel(4, [[1, 1], [-1, 0]])


@pytest.mark.parametrize(
    "order,entry",
    [(4, 1.5), (4, 1.0), (4, True), (4, "1.5"), (4.0, 1), (True, 1), ("four", 1)],
)
def test_cyclotomic_model_refuses_non_integers(order, entry):
    # Read as cli configs are: an int or an integer string, never a float or a bool.
    with pytest.raises(ConfigError, match="must be an integer"):
        CyclotomicModel(order, [[0, entry], [-1, 0]])


def test_cyclotomic_model_reads_integer_strings():
    model = CyclotomicModel("4", [[0, "1"], [-1, 0]])
    assert model.order == 4 and model.exponents == ((0, 1), (-1, 0))


def test_free_of_maximal_rank():
    primes = RationalModel([[Fraction(1), Fraction(1, 2)], [Fraction(2), Fraction(1)]])
    assert primes.is_free_of_maximal_rank()
    ones = RationalModel([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]])
    assert not ones.is_free_of_maximal_rank()
    roots = CyclotomicModel(3, [[0, 1], [-1, 0]])
    assert not roots.is_free_of_maximal_rank()


def _factorint_freeness(model):
    """Reference: rank of the prime-exponent vectors of the lambda_{i,j} (i < j)."""
    vectors = []
    for i in range(model.n):
        for j in range(i + 1, model.n):
            v = model.values[i][j]
            exps = dict(sympy.factorint(abs(v.numerator)))
            for p, e in sympy.factorint(v.denominator).items():
                exps[p] = exps.get(p, 0) - e
            vectors.append(exps)
    if not vectors:
        return True
    primes = sorted({p for exps in vectors for p in exps})
    if not primes:
        return False
    return sympy.Matrix([[v.get(p, 0) for p in primes] for v in vectors]).rank() == len(vectors)


# Products of these share factors in many ways, so the coprime base needs
# several refinement steps; 1000000007 is prime.
_FACTORS = [2, 3, 4, 5, 6, 9, 10, 12, 15, 18, 22, 35, 39, 49, 91, 1000000007]


@st.composite
def _parameter_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    part = st.lists(st.sampled_from(_FACTORS), max_size=4).map(
        lambda xs: Fraction(1) if not xs else Fraction(sympy.prod(xs))
    )
    values = [[Fraction(1)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = draw(part) / draw(part) * draw(st.sampled_from([1, -1]))
            values[i][j], values[j][i] = v, 1 / v
    return RationalModel(values)


@settings(max_examples=200, deadline=None)
@given(model=_parameter_matrices())
def test_free_of_maximal_rank_matches_prime_factorization(model):
    assert model.is_free_of_maximal_rank() == _factorint_freeness(model)


# ---------------------------------------------------------------------------
# The character lattice against raw products of the parameters.
# ---------------------------------------------------------------------------

_LATTICE_ENTRIES = [Fraction(v) for v in (-1, Fraction(1, 9), 3, 4, 2, 6, 10)]
_SHARED_PRIMES = (2, 3, 5)


@st.composite
def _lattice_models(draw):
    """Signed parameters over a few shared primes, so products often collapse to +-1."""
    n = draw(st.integers(min_value=1, max_value=3))
    shared = st.tuples(
        st.sampled_from([1, -1]), *[st.integers(min_value=-3, max_value=3) for _ in _SHARED_PRIMES]
    ).map(lambda t: t[0] * sympy.prod([Fraction(p) ** e for p, e in zip(_SHARED_PRIMES, t[1:])]))
    entry = st.one_of(st.sampled_from(_LATTICE_ENTRIES), shared)
    values = [[Fraction(1)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = Fraction(draw(entry))
            values[i][j], values[j][i] = v, 1 / v
    return RationalModel(values)


def _factors(draw, size):
    index = st.integers(min_value=1, max_value=size)
    factor = st.tuples(index, index, st.integers(min_value=-4, max_value=4))
    return draw(st.lists(factor, max_size=5))


def _tilde_value(spec, k, i):
    """lambda~_{k,i} read off the block layout of the extended matrix, as a Fraction."""
    r, values = spec.r, spec.model.values
    a, b = (k if k <= r else k - r), (i if i <= r else i - r)
    v = values[a - 1][b - 1]
    return 1 / v if (k <= r) != (i <= r) else v


@settings(max_examples=200, deadline=None)
@given(model=_lattice_models(), data=st.data())
def test_lambda_power_product_matches_raw_fractions(model, data):
    factors = _factors(data.draw, model.n)
    raw, sym = Fraction(1), sympy.Integer(1)
    for i, j, e in factors:
        v = model.values[i - 1][j - 1]
        raw *= v**e
        sym *= sympy.Rational(v.numerator, v.denominator) ** e
    assert Fraction(int(sym.p), int(sym.q)) == raw
    # With r = 0 the extended matrix is Lambda itself.
    spec = AlgebraSpec(model.n, 0, model)
    assert spec.lambda_tilde_power_product(factors) == RationalScalar(raw)
    assert spec.monomial_is_one(factors) == (raw == 1)


@settings(max_examples=200, deadline=None)
@given(model=_lattice_models(), data=st.data())
def test_monomial_is_one_matches_raw_fractions(model, data):
    spec = AlgebraSpec(model.n, data.draw(st.integers(min_value=0, max_value=model.n)), model)
    factors = _factors(data.draw, spec.num_generators)
    raw = Fraction(1)
    for k, i, e in factors:
        raw *= _tilde_value(spec, k, i) ** e
    assert spec.monomial_is_one(factors) == (raw == 1)
    assert spec.lambda_tilde_power_product(factors) == RationalScalar(raw)


@settings(max_examples=100, deadline=None)
@given(order=st.integers(min_value=1, max_value=12), data=st.data())
def test_cyclotomic_lambda_power_product_matches_zeta_powers(order, data):
    e12 = data.draw(st.integers(min_value=-30, max_value=30))
    model = CyclotomicModel(order, [[0, e12], [-e12, 0]])
    factors = _factors(data.draw, 2)
    raw = model.field.one
    for i, j, e in factors:
        raw = raw * model.field.zeta_power(model.exponents[i - 1][j - 1]) ** e
    spec = AlgebraSpec(2, 0, model)
    assert spec.lambda_tilde_power_product(factors) == raw
    assert spec.monomial_is_one(factors) == raw.is_one()


def test_lambda_tilde_block_structure():
    model = RationalModel([[Fraction(1), Fraction(1, 2)], [Fraction(2), Fraction(1)]])
    spec = AlgebraSpec(2, 1, model)
    lam = model.lambda_entry(2, 1)
    # generators: x1, y1, y2; lambda~ mixes the x block with inverses.
    assert spec.lambda_tilde(1, 1).is_one()
    assert spec.lambda_tilde(1, 2).is_one()  # x1 vs y1: lambda_{1,1}^{-1}
    assert spec.lambda_tilde(1, 3) == model.lambda_entry(1, 2).inv()
    assert spec.lambda_tilde(3, 2) == lam
    assert spec.lambda_tilde(2, 3) * spec.lambda_tilde(3, 2) == spec.one()


def test_lambda_tilde_antisymmetry():
    spec = AlgebraSpec(2, 2, RationalModel([[Fraction(1), Fraction(3)], [Fraction(1, 3), Fraction(1)]]))
    m = spec.num_generators
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            assert spec.lambda_tilde(i, j) * spec.lambda_tilde(j, i) == spec.one()


@st.composite
def _cyclotomic_models(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    order = draw(st.integers(min_value=1, max_value=12))
    exponents = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            e = draw(st.integers(min_value=-30, max_value=30))
            exponents[i][j], exponents[j][i] = e, -e
    return CyclotomicModel(order, exponents)


def _tilde_entry(spec, k, i):
    """lambda~_{k,i} from lambda_entry, with the block layout written out.

    [[Lambda_r, Lambda_{r,n}^-1], [Lambda_{n,r}^-1, Lambda]], x generators first.
    """
    r, entry = spec.r, spec.model.lambda_entry
    if k <= r and i <= r:
        return entry(k, i)
    if k <= r < i:
        return entry(k, i - r).inv()
    if i <= r < k:
        return entry(k - r, i).inv()
    return entry(k - r, i - r)


@settings(max_examples=200, deadline=None)
@given(model=st.one_of(_lattice_models(), _cyclotomic_models()), data=st.data())
def test_lambda_tilde_power_product_matches_lambda_entry_reference(model, data):
    spec = AlgebraSpec(model.n, data.draw(st.integers(min_value=0, max_value=model.n)), model)
    factors = _factors(data.draw, spec.num_generators)
    want = spec.one()
    for k, i, e in factors:
        want = want * _tilde_entry(spec, k, i) ** e
    assert spec.lambda_tilde_power_product(factors) == want
    assert spec.monomial_is_one(factors) == want.is_one()


@pytest.mark.parametrize("k,i", [(0, 1), (1, 0), (4, 1), (1, 4), (-1, 2), (2, -3)])
def test_extended_index_out_of_range(k, i):
    spec = AlgebraSpec(2, 1, CyclotomicModel(3, [[0, 1], [-1, 0]]))
    with pytest.raises(IndexOutOfRange):
        spec.character([(1, 1, 1), (k, i, 2)])
    with pytest.raises(IndexOutOfRange):
        spec.lambda_tilde_power_product(iter([(k, i, 0)]))
    with pytest.raises(IndexOutOfRange):
        spec.lambda_tilde(k, i)


def test_spec_regime_predicates():
    weyl = AlgebraSpec(1, 1, RationalModel([[Fraction(1)]]))
    assert is_all_one(weyl)
    free = AlgebraSpec(2, 1, RationalModel([[Fraction(1), Fraction(1, 2)], [Fraction(2), Fraction(1)]]))
    assert free.is_free()
    assert free.root_of_unity_order(2, 1) is None
    mm2 = AlgebraSpec(2, 1, CyclotomicModel(2, [[0, -1], [1, 0]]))
    assert mm2.root_of_unity_order(2, 1) == 2
    assert not is_all_one(free) and not is_all_one(mm2)
    signs = AlgebraSpec(2, 0, RationalModel([[Fraction(1), Fraction(-1)], [Fraction(-1), Fraction(1)]]))
    assert not is_all_one(signs)
    assert (signs.root_of_unity_order(1, 2), signs.root_of_unity_order(1, 1)) == (2, 1)
    zeta12 = AlgebraSpec(2, 2, CyclotomicModel(12, [[0, 3], [-3, 0]]))
    assert [zeta12.root_of_unity_order(i, j) for i, j in ((1, 2), (2, 1), (1, 1))] == [4, 4, 1]
    assert is_all_one(AlgebraSpec(2, 2, CyclotomicModel(12, [[0, 12], [-12, 0]])))


def test_config_round_trip():
    model = CyclotomicModel(6, [[0, 2], [-2, 0]])
    assert model.to_config() == {
        "type": "cyclotomic",
        "order": 6,
        "exponents": [[0, 2], [-2, 0]],
    }


# ---------------------------------------------------------------------------
# The integer-vector cyclotomic layer against an independent sympy reference.
# ---------------------------------------------------------------------------

# Degree-1 fields (1, 2) and fields with m > 2 phi(m) (4, 6, 12, 30) included.
_ORDERS = [1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 30]
_X = sympy.symbols("x")
_SMALL = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def _to_sympy(a):
    return sum(sympy.Rational(c.numerator, c.denominator) * _X**k
               for k, c in enumerate(a.coeffs))


def _reference(expr, order):
    """Coordinates of expr mod Phi_m, constant first, padded to phi(m)."""
    rem = sympy.rem(sympy.expand(expr), sympy.cyclotomic_poly(order, _X), _X)
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(sympy.Poly(rem, _X).all_coeffs())]
    return tuple(coeffs + [Fraction(0)] * (euler_phi(order) - len(coeffs)))


def _assert_canonical(a):
    assert a.den > 0
    assert gcd(a.den, *a.nums) == 1
    assert len(a.nums) == euler_phi(a.field.order)


@st.composite
def _field_and_elements(draw, count=2):
    field = CyclotomicField(draw(st.sampled_from(_ORDERS)))
    size = field.degree
    elems = [field.element(draw(st.lists(_SMALL, max_size=size))) for _ in range(count)]
    return field, elems


@settings(max_examples=120, deadline=None)
@given(case=_field_and_elements())
def test_cyclotomic_ops_match_sympy(case):
    field, (a, b) = case
    pa, pb = _to_sympy(a), _to_sympy(b)
    m = field.order
    for got, want in [(a + b, pa + pb), (a - b, pa - pb), (a * b, pa * pb), (-a, -pa)]:
        _assert_canonical(got)
        assert got.coeffs == _reference(want, m)
    if not b.is_zero():
        inv = b.inv()
        pinv = sympy.invert(pb, sympy.cyclotomic_poly(m, _X), _X)
        _assert_canonical(inv)
        assert inv.coeffs == _reference(pinv, m)
        assert (a / b).coeffs == _reference(pa * pinv, m)


@settings(max_examples=60, deadline=None)
@given(case=_field_and_elements(count=1), e=st.integers(min_value=-3, max_value=5))
def test_cyclotomic_power_matches_sympy(case, e):
    field, (a,) = case
    if a.is_zero() and e < 0:
        return
    base = _to_sympy(a)
    if e < 0:
        base = sympy.invert(base, sympy.cyclotomic_poly(field.order, _X), _X)
    got = a**e
    _assert_canonical(got)
    assert got.coeffs == _reference(base ** abs(e), field.order)


@settings(max_examples=80, deadline=None)
@given(case=_field_and_elements(count=1), t=st.integers(min_value=-70, max_value=70))
def test_zeta_power_shift_matches_sympy(case, t):
    field, (a,) = case
    m = field.order
    z = field.zeta_power(t)
    _assert_canonical(z)
    assert z.coeffs == _reference(_X ** (t % m), m)
    assert (z * field.zeta_power(t + 1)).coeffs == _reference(_X ** ((2 * t + 1) % m), m)
    assert (z**3).coeffs == _reference(_X ** (3 * t % m), m)
    for got in (z * a, a * z, a * field.element(z.coeffs)):
        _assert_canonical(got)
        assert got.coeffs == _reference(_X ** (t % m) * _to_sympy(a), m)


@settings(max_examples=80, deadline=None)
@given(order=st.sampled_from(_ORDERS), raw=st.lists(_SMALL, max_size=70))
def test_unreduced_input_equals_arithmetic(order, raw):
    # element() reduces input of any degree; the same value built by
    # arithmetic on powers of zeta is == and hashes equal.
    field = CyclotomicField(order)
    a = field.element(raw)
    _assert_canonical(a)
    assert a.coeffs == _reference(sum(_to_sympy(field.from_rational(c)) * _X**k
                                      for k, c in enumerate(raw)), order)
    built = field.zero
    for k, c in enumerate(raw):
        built = built + field.zeta_power(k) * c
    assert built == a and hash(built) == hash(a)
    shifted = field.element([0] * (3 * order) + raw) * field.zeta_power(-3 * order)
    assert shifted == a and hash(shifted) == hash(a)


def test_cyclotomic_str_format():
    # Report text is pinned here: the golden outputs print almost no zeta terms.
    field = CyclotomicField(12)
    assert str(field.element([Fraction(1, 2), -1, 0, 3])) == "(1/2 + -1*z + 3*z^3)"
    assert str(field.element([0, 0, Fraction(-2, 3)])) == "(-2/3*z^2)"
    assert str(field.element([0] * 7 + [Fraction(3, 4)])) == "(-3/4*z)"
    assert str(field.zeta_power(5)) == "(-1*z + z^3)"
    assert str(field.zeta_power(1)) == "(z)"
    assert str(field.zero) == "0"


@pytest.mark.parametrize("order", _ORDERS)
def test_unit_inverse_path(order, monkeypatch):
    # Rational multiples of +-zeta^t invert without the extended Euclid route.
    field = CyclotomicField(order)
    monkeypatch.setattr(scalar_module, "_pseudo_divmod", None)
    for t in range(order):
        for c in (Fraction(1), Fraction(-1), Fraction(3, 7), Fraction(-5, 2), Fraction(4)):
            for u in (field.zeta_power(t) * c, field.element(field.zeta_power(t).coeffs) * c):
                inv = u.inv()
                _assert_canonical(inv)
                assert (u * inv).is_one()
                assert inv == field.zeta_power(-t) * (1 / c)


@settings(max_examples=100, deadline=None)
@given(model=_lattice_models(), data=st.data())
def test_braided_coefficient_memo_hit_equals_fresh_computation(model, data):
    spec = AlgebraSpec(model.n, data.draw(st.integers(min_value=0, max_value=model.n)), model)
    factors = _factors(data.draw, spec.num_generators)
    first = spec.lambda_tilde_power_product(iter(factors))
    # The value is kept in the model's per-character cache; a new model starts empty.
    assert spec.character(factors) in model._products
    fresh = AlgebraSpec(spec.n, spec.r, RationalModel(model.values)).lambda_tilde_power_product(
        factors
    )
    assert spec.lambda_tilde_power_product(factors) == first == fresh
    raw = Fraction(1)
    for k, i, e in factors:
        raw *= _tilde_value(spec, k, i) ** e
    assert fresh == RationalScalar(raw)


# ---------------------------------------------------------------------------
# The residue map Q(zeta_m) -> GF(p).
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("order", [*range(1, 65), 9973, 10_000])
def test_residue_map_sends_zeta_to_a_root_of_phi_of_order_m(order):
    field = CyclotomicField(order)
    p, images = field.residue_map
    assert p > 2**30 and (p - 1) % order == 0 and sympy.isprime(p)
    g = field.residue(field.zeta_power(1))
    assert images == tuple(pow(g, k, p) for k in range(field.degree))
    value = 0
    for c in reversed(cyclotomic_polynomial(order)):
        value = (value * g + c) % p
    assert value == 0
    power, t = g, 1
    while power != 1:
        power, t = power * g % p, t + 1
    assert t == order


def _field_elements(field):
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    return st.lists(coeff, min_size=1, max_size=field.degree + 3).map(field.element)


@settings(max_examples=150, deadline=None)
@given(order=st.sampled_from([1, 2, 3, 4, 5, 8, 12, 15]), data=st.data())
def test_residue_map_is_a_ring_homomorphism(order, data):
    field = CyclotomicField(order)
    p = field.residue_map[0]
    a, b = data.draw(_field_elements(field)), data.draw(_field_elements(field))
    res = field.residue
    assert res(field.one) == 1 and res(field.zero) == 0
    assert res(a + b) == (res(a) + res(b)) % p
    assert res(a * b) == res(a) * res(b) % p
    assert res(-a) == -res(a) % p
    assert res(field.from_rational(Fraction(1, p))) is None


@st.composite
def _scaled_elements(draw):
    """An element of Q(zeta_m), m in {1, 4, 12}, often with den != 1 or built as zeta^t."""
    field = CyclotomicField(draw(st.sampled_from([1, 4, 12])))
    den = draw(st.integers(min_value=1, max_value=60))
    nums = draw(st.lists(st.integers(-50, 50), min_size=field.degree, max_size=field.degree))
    x = field.element([Fraction(c, den) for c in nums])
    kind = draw(st.sampled_from(["element", "zeta", "scaled zeta"]))
    if kind != "element":
        z = field.zeta_power(draw(st.integers(min_value=-13, max_value=13)))
        x = z if kind == "zeta" else z * field.from_rational(Fraction(nums[0] or 1, den))
    return field, x


@settings(max_examples=300, deadline=None)
@given(
    case=_scaled_elements(),
    n=st.one_of(st.sampled_from([0, 1, -1]), st.integers(min_value=-(10**40), max_value=10**40)),
)
def test_int_multiply_matches_rational_multiply(case, n):
    field, x = case
    want = x * field.from_rational(n)
    for got in (x * n, n * x):
        _assert_canonical(got)
        assert (got.nums, got.den, hash(got), str(got)) == (
            want.nums, want.den, hash(want), str(want)
        )


def test_int_multiply_covers_denominators_and_zero():
    field = CyclotomicField(12)
    x = field.element([Fraction(1, 6), Fraction(-5, 4)])
    assert x.den == 12
    assert (x * 0).nums == field.zero.nums and (x * 0).den == 1
    assert x * 6 == field.element([1, Fraction(-15, 2)]) and (x * 6).den == 2
    assert (-12) * x == field.element([-2, 15]) and ((-12) * x).den == 1
