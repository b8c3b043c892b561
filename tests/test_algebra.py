"""Normal-form multiplication against an independent one-step rewriter."""

from __future__ import annotations

import operator
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hochhom import algebra
from hochhom.algebra import (
    PbwElement,
    commutator_with_generator,
    generator_name,
    monomial_str,
    normal_mul_monomials,
    normal_mul_uncached,
    weyl_reorder_coefficient,
)
from hochhom.cli import load_config, verify_complex
from hochhom.cohomology import Cochain, cohomology_report
from hochhom.errors import ModelMismatch
from hochhom.koszul import ChainElement
from hochhom.scalar import AlgebraSpec, CyclotomicModel, RationalModel


def weyl_spec():
    return AlgebraSpec(1, 1, RationalModel([[Fraction(1)]]))


def mixed_rational_spec():
    return AlgebraSpec(
        2, 1, RationalModel([[Fraction(1), Fraction(1, 2)], [Fraction(2), Fraction(1)]])
    )


def semiclassical_spec():
    return AlgebraSpec(
        2, 2, RationalModel([[Fraction(1), Fraction(3)], [Fraction(1, 3), Fraction(1)]])
    )


def cyclotomic_spec():
    return AlgebraSpec(2, 1, CyclotomicModel(3, [[0, 1], [-1, 0]]))


ALL_SPECS = [weyl_spec, mixed_rational_spec, semiclassical_spec, cyclotomic_spec]


# ---------------------------------------------------------------------------
# Oracle: a naive single-step rewriting engine on generator words.  A word is
# a tuple of generator indices; adjacent out-of-order pairs are swapped one
# at a time using the defining relations, so it shares no code (and no
# closed-form reordering coefficients) with the implementation under test.
# ---------------------------------------------------------------------------


def _letter_lambda(spec, a, b):
    """lambda such that v_a v_b = lambda * v_b v_a for distinct non-paired letters."""
    r = spec.r

    def raw(i, j):
        return spec.model.lambda_entry(i, j)

    if a <= r and b <= r:
        return raw(a, b)
    if a > r and b > r:
        return raw(a - r, b - r)
    if a <= r:  # x_a y_{b-r}, a != b-r
        return raw(a, b - r).inv()
    return raw(b, a - r)  # y_{a-r} x_b = lambda_{b,a-r} x_b y_{a-r}


def naive_normal_form(spec, word):
    """Normal form of a product of generators, one adjacent swap at a time."""
    states = {tuple(word): spec.one()}
    result = {}
    while states:
        word, coeff = states.popitem()
        pos = next(
            (p for p in range(len(word) - 1) if word[p] > word[p + 1]), None
        )
        if pos is None:
            result[word] = result[word] + coeff if word in result else coeff
            continue
        a, b = word[pos], word[pos + 1]
        swapped = word[:pos] + (b, a) + word[pos + 2 :]
        if a - spec.r == b and b <= spec.r:
            # y_b x_b = x_b y_b - 1: branch into the swapped word and the
            # word with the pair deleted.
            for w, c in ((swapped, coeff), (word[:pos] + word[pos + 2 :], coeff * spec.scalar(-1))):
                states[w] = states[w] + c if w in states else c
        else:
            c = coeff * _letter_lambda(spec, a, b)
            states[swapped] = states[swapped] + c if swapped in states else c
    return {w: c for w, c in result.items() if not c.is_zero()}


def _word_to_monomial(spec, word):
    mono = [0] * spec.num_generators
    for t in word:
        mono[t - 1] += 1
    return tuple(mono)


def _monomial_to_word(mono):
    word = []
    for i, e in enumerate(mono):
        word.extend([i + 1] * e)
    return tuple(word)


def evaluated(spec, entry):
    """A product table entry as {monomial: scalar}; no monomial may appear twice."""
    out = {mono: spec.model.value(char) * k for mono, char, k in entry}
    assert len(out) == len(entry)
    return out


def naive_monomial_product(spec, left, right):
    """The naive rewriter's normal form of left * right, keyed by monomial."""
    words = naive_normal_form(spec, _monomial_to_word(left) + _monomial_to_word(right))
    return {_word_to_monomial(spec, word): c for word, c in words.items()}


def _product_via_implementation(spec, left_word, right_word):
    out = PbwElement.one(spec)
    for t in left_word + right_word:
        out = out * PbwElement.generator(spec, t)
    return out


@pytest.mark.parametrize("make_spec", ALL_SPECS)
def test_normal_mul_matches_naive_rewriter(make_spec):
    spec = make_spec()
    rng = random.Random(7)
    m = spec.num_generators
    for _ in range(60):
        length = rng.randint(0, 6)
        word = tuple(rng.randint(1, m) for _ in range(length))
        expected = naive_normal_form(spec, word)
        got = PbwElement.one(spec)
        for t in word:
            got = got * PbwElement.generator(spec, t)
        assert {
            _monomial_to_word(mono): c for mono, c in got.terms.items()
        } == expected, f"word {word}"


@pytest.mark.parametrize("make_spec", ALL_SPECS)
def test_monomial_product_matches_naive_rewriter(make_spec):
    spec = make_spec()
    rng = random.Random(13)
    m = spec.num_generators
    for _ in range(40):
        left = tuple(rng.randint(0, 2) for _ in range(m))
        right = tuple(rng.randint(0, 2) for _ in range(m))
        got = evaluated(spec, normal_mul_monomials(spec, left, right))
        assert got == naive_monomial_product(spec, left, right)


@pytest.mark.parametrize("config", ["semiclassical(2,4,1)", "mixed-minimal(3)"])
def test_product_table_holds_each_pair_once_and_unchanged(config, monkeypatch):
    # Every PBW product of the complex check and the cohomology report goes
    # through the spec's table; a caller writing into a shared entry would
    # corrupt every later product of the same pair.
    spec = load_config(config)
    computed = Counter()

    def counting(spec_, left, right):
        computed[left, right] += 1
        return normal_mul_uncached(spec_, left, right)

    monkeypatch.setattr(algebra, "normal_mul_uncached", counting)
    checked, failures = verify_complex(spec, 3)
    assert checked and not failures
    cohomology_report(spec, range(spec.num_generators + 1), 3)
    table = spec.product_table
    assert table and set(computed) == set(table)
    assert set(computed.values()) == {1}
    for (left, right), entry in table.items():
        assert entry == normal_mul_uncached(spec, left, right)
        assert evaluated(spec, entry) == naive_monomial_product(spec, left, right)


def test_product_table_entries_are_read_only():
    spec = semiclassical_spec()
    left, right = (0, 1, 1, 0), (1, 0, 0, 1)
    entry = normal_mul_monomials(spec, left, right)
    assert normal_mul_monomials(spec, left, right) is entry
    assert type(entry) is tuple and all(type(t) is tuple and type(t[1]) is tuple for t in entry)
    with pytest.raises(TypeError):
        entry[0] = (left, entry[0][1], 1)
    with pytest.raises(TypeError):
        entry[0][1][0] = 1
    copy = list(entry)
    copy[0] = (left, entry[0][1], 1)
    assert normal_mul_monomials(spec, left, right) == normal_mul_uncached(spec, left, right)
    assert evaluated(spec, entry) == naive_monomial_product(spec, left, right)


def test_weyl_defining_relation():
    spec = weyl_spec()
    x = PbwElement.generator(spec, 1)
    y = PbwElement.generator(spec, 2)
    assert x * y == y * x + PbwElement.one(spec)
    assert x * y - y * x == PbwElement.one(spec)


def test_weyl_reorder_coefficient_values():
    # y^2 x^2 = x^2 y^2 - 4 x y + 2
    assert weyl_reorder_coefficient(2, 2, 0) == 1
    assert weyl_reorder_coefficient(2, 2, 1) == -4
    assert weyl_reorder_coefficient(2, 2, 2) == 2


def test_q_commuting_relation():
    spec = mixed_rational_spec()
    x = PbwElement.generator(spec, 1)  # x1
    z = PbwElement.generator(spec, 3)  # y2; x1 y2 = lambda_{1,2}^{-1} y2 x1 = 2 y2 x1
    assert x * z == (z * x).scale(2)


@pytest.mark.parametrize("make_spec", ALL_SPECS)
def test_associativity_on_random_elements(make_spec):
    spec = make_spec()
    rng = random.Random(3)
    m = spec.num_generators

    def random_element():
        out = PbwElement.zero(spec)
        for _ in range(3):
            mono = tuple(rng.randint(0, 2) for _ in range(m))
            out = out + PbwElement.monomial(spec, mono, spec.scalar(rng.randint(-3, 3)))
        return out

    for _ in range(10):
        a, b, c = random_element(), random_element(), random_element()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_commutator_with_generator():
    spec = weyl_spec()
    one = spec.character([])

    def commutator(index, mono):
        triples = commutator_with_generator(spec, index, mono, one, one, 1)
        return PbwElement.from_triples(spec, triples)

    assert commutator(1, (0, 1)) == PbwElement.one(spec)
    assert commutator(2, (0, 1)).is_zero()


@pytest.mark.parametrize("make_spec", ALL_SPECS)
def test_braided_commutator_matches_element_arithmetic(make_spec):
    spec = make_spec()
    rng = random.Random(5)
    m = spec.num_generators
    one = spec.character([])
    for _ in range(10):
        mono = tuple(rng.randint(0, 2) for _ in range(m))
        elem = PbwElement.monomial(spec, mono)
        # Characters of lambda~_{1,m}^e (e = 0 is the character of 1) and lambda~_{m,1}.
        left, right = spec.character([(1, m, rng.randint(0, 3))]), spec.character([(m, 1, 1)])
        sign = rng.choice([1, -1])
        scale = [spec.model.value(c) * sign for c in (left, right)]
        for i in range(1, m + 1):
            v = PbwElement.generator(spec, i)
            want = (v * elem).scale(scale[0]) - (elem * v).scale(scale[1])
            got = commutator_with_generator(spec, i, mono, left, right, sign)
            assert list(PbwElement.from_triples(spec, got).terms.items()) == list(want.terms.items())
            plain = commutator_with_generator(spec, i, mono, one, one, 1)
            assert list(PbwElement.from_triples(spec, plain).terms.items()) == list(
                (v * elem - elem * v).terms.items()
            )


# Four keys of each combination type over weyl(1), the first the largest
# under sorting, so a sorted result shows.
COMBINATION_KEYS = [
    (PbwElement, [(2, 0), (0, 1), (1, 1), (0, 2)]),
    (
        ChainElement,
        [((2, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 1), (0, 0)), ((0, 2), (1, 1))],
    ),
    (Cochain, [((2,), (2, 0)), ((1,), (0, 1)), ((1, 2), (1, 1)), ((), (0, 2))]),
]


@pytest.mark.parametrize("cls,keys", COMBINATION_KEYS, ids=["pbw", "chain", "cochain"])
def test_from_terms_sums_repeats_in_first_appearance_order(cls, keys):
    spec = weyl_spec()
    a, b, c, d = keys
    pairs = [(a, 1), (b, 2), (c, 3), (a, 4), (b, -2), (d, 1)]
    got = cls.from_terms(spec, [(k, spec.scalar(v)) for k, v in pairs])
    assert type(got) is cls
    # b sums to zero and is dropped; a, c and d keep the order they first appeared in.
    assert list(got.terms.items()) == [(a, spec.scalar(5)), (c, spec.scalar(3)), (d, spec.one())]
    assert cls.from_terms(spec, [(a, spec.one()), (a, spec.scalar(-1))]).is_zero()


@pytest.mark.parametrize("cls,keys", COMBINATION_KEYS, ids=["pbw", "chain", "cochain"])
def test_combinations_over_different_algebras_do_not_mix(cls, keys):
    spec, other = weyl_spec(), AlgebraSpec(1, 1, CyclotomicModel(4, [[0]]))
    assert spec != other
    # Different keys, so that no two scalars of different fields meet.
    here = cls.from_terms(spec, [(keys[0], spec.one())])
    there = cls.from_terms(other, [(keys[1], other.one())])
    for op in (operator.add, operator.sub, operator.eq):
        with pytest.raises(ModelMismatch):
            op(here, there)
    # The two types never compare equal, even with the same terms.
    terms = {(1, 0): spec.one()}
    assert ChainElement(spec, terms) != PbwElement(spec, terms)
    assert PbwElement(spec, terms) != ChainElement(spec, terms)


def test_monomial_text_format():
    spec = mixed_rational_spec()
    assert generator_name(spec, 1) == "x1"
    assert generator_name(spec, 2) == "y1"
    assert generator_name(spec, 3) == "y2"
    assert monomial_str(spec, (2, 1, 0)) == "x1^2*y1"
    assert monomial_str(spec, (0, 0, 1)) == "y2"
    assert monomial_str(spec, (0, 0, 0)) == "1"


@settings(max_examples=50, deadline=None)
@given(
    b=st.integers(min_value=0, max_value=4),
    c=st.integers(min_value=0, max_value=4),
)
def test_weyl_power_reordering(b, c):
    """y^b x^c re-expanded through the naive rewriter matches the closed form."""
    spec = weyl_spec()
    word = (2,) * b + (1,) * c
    expected = naive_normal_form(spec, word)
    closed = {}
    for t in range(min(b, c) + 1):
        coeff = spec.scalar(weyl_reorder_coefficient(b, c, t))
        closed[(1,) * (c - t) + (2,) * (b - t)] = coeff
    assert expected == {w: c_ for w, c_ in closed.items() if not c_.is_zero()}
