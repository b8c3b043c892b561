"""Acceptance gate: one test per criterion, exact arithmetic, zero tolerance.

Every assertion is an exact equality of scalars, dimensions, or chain
elements; there are no numerical tolerances anywhere.  Stated runtime
budgets are asserted where the criterion carries one.
"""

from __future__ import annotations

import time
from fractions import Fraction
from functools import partial
from itertools import chain, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hochhom.braiding import braiding_f_prime
from hochhom.cohomology import (
    all_wedges,
    center_truncated,
    cohomology_report,
    complement,
    duality_identity_check,
    hh1_window,
    row_product,
)
from hochhom import koszul
from hochhom.homology import expected_hh_oracle, hh_report, quotient_strand_acyclicity
from hochhom.koszul import (
    ChainElement,
    apply_diff,
    chain_generator_str,
    diff_full,
    diff_small,
    diff_symmetric,
    diff_weyl,
    is_in_C,
    keys_up_to,
    rho_of,
    weyl_f_map,
    weyl_g_map,
    _compositions,
)
from hochhom.scalar import AlgebraSpec, CyclotomicModel, RationalModel


def diff_full_closed(spec, g):
    """The full differential by the closed formulas: diff_symmetric plus the lowering terms.

    A second path, which must agree with ``diff_full`` on every generator.  It
    reads ``diff_symmetric`` from ``koszul`` when called, so a patched one is seen.
    """
    lowering = koszul._chain(spec, koszul._lowering, g)
    return ChainElement.from_terms(
        spec, chain(koszul.diff_symmetric(spec, g).terms.items(), lowering.terms.items())
    )


# ---------------------------------------------------------------------------
# Theta and the Omega coefficients of the duality comparison, read only by the tests.
# ---------------------------------------------------------------------------


def theta_coefficient(spec, I):
    """Theta_*(I): product over s of prod_{k < i_s, k not in I} (-lambda~_{i_s,k}).

    Built from a factor list, independently of the characters that
    ``cohomology.Delta_apply`` adds for Theta(I + {j}) / Theta(I).
    """
    in_I = set(I)
    sign = 1
    factors = []
    for i in I:
        for k in range(1, i):
            if k not in in_I:
                sign = -sign
                factors.append((i, k, 1))
    return spec.lambda_tilde_power_product(factors) * sign


def omega_coefficients(spec, I, k: int):
    """(omega_1, omega_2) for inserting the k-th complement element into I."""
    J = complement(spec, I)
    jk = J[k - 1]
    new_I = tuple(sorted(I + (jk,)))
    base = theta_coefficient(spec, I).inv() * theta_coefficient(spec, new_I)
    w1 = base * spec.lambda_tilde_power_product((J[s - 1], jk, 1) for s in range(1, k))
    w2 = base * spec.lambda_tilde_power_product(
        (jk, J[s - 1], 1) for s in range(k + 1, len(J) + 1)
    )
    return w1, w2


def omega_prime_coefficients(spec, I, k: int):
    """(omega'_1, omega'_2): the direct expressions from the evaluation side."""
    J = complement(spec, I)
    jk = J[k - 1]
    below = sum(1 for i in I if i < jk)
    sign = (-1) ** k * (-1) ** below
    w1 = spec.lambda_tilde_power_product((jk, i, 1) for i in I if i > jk) * sign
    w2 = spec.lambda_tilde_power_product((i, jk, 1) for i in I if i < jk) * sign
    return w1, w2


def column_product(spec, col: int):
    """Product of one full column of the extended parameter matrix.

    This is the factor relating omega_2 to omega'_2 exactly:
    omega'_2 = (-1)^{*+1} (prod_t lambda~_{t, j_k}) omega_2.  Rows and columns
    of the extended matrix have mutually inverse products, so the two coincide
    precisely when every row product is 1 (the duality case).
    """
    return spec.lambda_tilde_power_product(
        (t, col, 1) for t in range(1, spec.num_generators + 1)
    )


def _rational(values):
    return RationalModel([[Fraction(v) for v in row] for row in values])


def weyl(n):
    return AlgebraSpec(n, n, _rational([["1"] * n for _ in range(n)]))


def semiclassical_minus_one():
    return AlgebraSpec(2, 2, CyclotomicModel(2, [[0, 1], [-1, 0]]))


def semiclassical_i():
    return AlgebraSpec(2, 2, CyclotomicModel(4, [[0, 1], [-1, 0]]))


def semiclassical_two():
    return AlgebraSpec(2, 2, _rational([["1", "2"], ["1/2", "1"]]))


def free_2_1():
    return AlgebraSpec(2, 1, _rational([["1", "1/2"], ["2", "1"]]))


def quantum_plane():
    return AlgebraSpec(2, 0, _rational([["1", "1/2"], ["2", "1"]]))


def mixed_minimal(order):
    return AlgebraSpec(2, 1, CyclotomicModel(order, [[0, -1], [1, 0]]))


SEMICLASSICAL_N2 = [semiclassical_minus_one, semiclassical_i, semiclassical_two]

ALL_PRESETS = [
    ("weyl-1", weyl(1)),
    ("weyl-2", weyl(2)),
    ("semiclassical-minus-one", semiclassical_minus_one()),
    ("semiclassical-i", semiclassical_i()),
    ("semiclassical-two", semiclassical_two()),
    ("free-2-1", free_2_1()),
    ("quantum-plane", quantum_plane()),
    ("mixed-minimal-2", mixed_minimal(2)),
    ("mixed-minimal-3", mixed_minimal(3)),
]


def paired_membership(spec, rho):
    """C-membership with each Weyl column paired with its partner column."""
    m, r = spec.num_generators, spec.r

    def column_is_one(i):
        return spec.monomial_is_one((k, i, rho[k - 1]) for k in range(1, m + 1) if rho[k - 1])

    return all(
        column_is_one(i) or (rho[i - 1] == 0 and rho[i - 1 + r] == 0) for i in range(1, r + 1)
    ) and all(column_is_one(i) or rho[i - 1] == 0 for i in range(2 * r + 1, m + 1))


def assert_membership_characterizations_agree(spec, max_total=6):
    for total in range(max_total + 1):
        for rho in _compositions(total, spec.num_generators):
            assert is_in_C(spec, rho) == paired_membership(spec, rho), rho


@pytest.mark.parametrize("name,spec", ALL_PRESETS, ids=[n for n, _ in ALL_PRESETS])
def test_membership_characterizations_agree_on_presets(name, spec):
    assert_membership_characterizations_agree(spec)


@st.composite
def random_specs(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    r = draw(st.integers(min_value=0, max_value=n))
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if draw(st.booleans()):
        values = [[Fraction(1)] * n for _ in range(n)]
        for i, j in upper:
            v = draw(st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 3)]))
            values[i][j], values[j][i] = v, 1 / v
        return AlgebraSpec(n, r, RationalModel(values))
    order = draw(st.integers(min_value=1, max_value=12))
    exponents = [[0] * n for _ in range(n)]
    for i, j in upper:
        e = draw(st.integers(min_value=0, max_value=order - 1))
        exponents[i][j], exponents[j][i] = e, -e
    return AlgebraSpec(n, r, CyclotomicModel(order, exponents))


@settings(max_examples=30, deadline=None)
@given(spec=random_specs())
def test_membership_characterizations_agree_on_random_parameters(spec):
    assert_membership_characterizations_agree(spec)


def test_criterion_01_weyl_baseline_single_class():
    start = time.monotonic()
    report = hh_report(weyl(1), -2, 6, representatives=False)
    assert report.nonzero_entries() == [(-2, 2, 1)]
    assert time.monotonic() - start < 5.0


@pytest.mark.parametrize("make_spec", SEMICLASSICAL_N2)
def test_criterion_02_semiclassical_concentration(make_spec):
    start = time.monotonic()
    report = hh_report(make_spec(), -4, 4, representatives=False)
    assert report.nonzero_entries() == [(-4, 4, 1)]
    assert time.monotonic() - start < 120.0


def test_criterion_03_free_case_matches_oracle():
    spec = free_2_1()
    report = hh_report(spec, -2, 4, representatives=False)
    for w in range(-2, 5):
        expected = expected_hh_oracle(spec, w)
        assert expected is not None
        for k in range(spec.num_generators + 1):
            assert report.dimension(w, k) == expected.get(k, 0), (w, k)
    # spot-check the stated pattern directly
    assert report.dimension(-2, 2) == 1
    assert all(report.dimension(w, 1) == 1 for w in range(-1, 5))
    assert all(report.dimension(w, 0) == 1 for w in range(1, 5))
    assert all(report.dimension(w, 3) == 0 for w in range(-2, 5))


def test_criterion_04_quantum_plane_matches_oracle():
    spec = quantum_plane()
    report = hh_report(spec, 0, 4, representatives=False)
    for w in range(0, 5):
        expected = expected_hh_oracle(spec, w)
        assert expected is not None
        for k in range(spec.num_generators + 1):
            assert report.dimension(w, k) == expected.get(k, 0), (w, k)
        assert report.dimension(w, 2) == 0


@pytest.mark.parametrize("order", [2, 3])
def test_criterion_05_mixed_minimal_root_matches_oracle(order):
    spec = mixed_minimal(order)
    report = hh_report(spec, -2, 6, representatives=False)
    for w in range(-2, 7):
        expected = expected_hh_oracle(spec, w)
        assert expected is not None
        for k in range(spec.num_generators + 1):
            assert report.dimension(w, k) == expected.get(k, 0), (w, k)
    if order == 2:
        assert all(report.dimension(w, 2) == (1 if w % 2 == 0 else 0) for w in range(-2, 7))
        assert all(report.dimension(w, 3) == (1 if w % 2 == 0 else 0) for w in range(-2, 7))
        assert all(report.dimension(w, 0) == (1 if w % 2 == 1 and w >= 1 else 0) for w in range(-2, 7))
        assert all(report.dimension(w, 1) == (1 if w % 2 == 1 and w >= -1 else 0) for w in range(-2, 7))


@pytest.mark.parametrize("name,spec", ALL_PRESETS, ids=[n for n, _ in ALL_PRESETS])
def test_criterion_06_differentials_square_to_zero(name, spec):
    semiclassical = spec.r == spec.n
    for g in keys_up_to(spec, 8):
        assert apply_diff(spec, diff_full, diff_full(spec, g)).is_zero(), (
            chain_generator_str(spec, g)
        )
        assert apply_diff(spec, diff_symmetric, diff_symmetric(spec, g)).is_zero()
        if is_in_C(spec, rho_of(g)):
            assert apply_diff(spec, diff_small, diff_small(spec, g)).is_zero()
        if semiclassical:
            assert apply_diff(spec, diff_weyl, diff_weyl(spec, g)).is_zero()


@pytest.mark.parametrize("name,spec", ALL_PRESETS, ids=[n for n, _ in ALL_PRESETS])
def test_criterion_06_closed_form_agrees_with_generic(name, spec):
    for g in keys_up_to(spec, 6):
        assert diff_full_closed(spec, g) == diff_full(spec, g), chain_generator_str(spec, g)


@pytest.mark.parametrize("spec", [mixed_minimal(2), free_2_1()], ids=["mixed-minimal-2", "free-2-1"])
def test_criterion_07_quotient_strand_acyclicity(spec):
    m = spec.num_generators
    checked = 0
    for total in range(1, 7):
        for rho in _compositions(total, m):
            if is_in_C(spec, rho):
                continue
            assert quotient_strand_acyclicity(spec, rho).passed, rho
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("make_spec", SEMICLASSICAL_N2)
def test_criterion_08_weyl_comparison_chain_maps(make_spec):
    spec = make_spec()
    f_map = partial(apply_diff, spec, weyl_f_map)
    g_map = partial(apply_diff, spec, weyl_g_map)
    for g in keys_up_to(spec, 6):
        if not is_in_C(spec, rho_of(g)):
            continue
        one = ChainElement.single(spec, g)
        assert f_map(diff_small(spec, g)) == apply_diff(spec, diff_weyl, f_map(one))
        assert g_map(diff_weyl(spec, g)) == apply_diff(spec, diff_small, g_map(one))
        assert g_map(f_map(one)) == one


@pytest.mark.parametrize("name,spec", ALL_PRESETS, ids=[n for n, _ in ALL_PRESETS])
def test_criterion_09_braided_pairing_vanishes(name, spec):
    m = spec.num_generators
    for length in range(2, 5):
        for word in product(range(1, m + 1), repeat=length):
            image = braiding_f_prime(spec, word)
            assert all(c.is_zero() for c in image.values()), word


@pytest.mark.parametrize(
    "make_spec",
    [lambda: weyl(1), lambda: weyl(2)] + SEMICLASSICAL_N2,
    ids=["weyl-1", "weyl-2", "semiclassical-minus-one", "semiclassical-i", "semiclassical-two"],
)
def test_criterion_10_duality_identity_and_reversed_dims(make_spec):
    spec = make_spec()
    m = spec.num_generators
    for degree in range(m):
        assert duality_identity_check(spec, degree, 4).passed, degree
    cohh = cohomology_report(spec, list(range(m + 1)), 4)
    cohh_dims = {e.degree: e.dimension for e in cohh.entries}
    hh = hh_report(spec, -m, 4, representatives=False)
    hh_totals = {
        k: sum(hh.strands[w].dimensions.get(k, 0) for w in hh.strands)
        for k in range(m + 1)
    }
    assert [cohh_dims[k] for k in range(m + 1)] == [
        hh_totals[m - k] for k in range(m + 1)
    ]


def test_criterion_11_non_duality_witness():
    spec = free_2_1()  # the mixed minimal algebra with lambda = 2
    assert [str(b) for b in center_truncated(spec, 5)] == ["1"]
    window = hh1_window(spec, 5)
    assert window.dimension == 1
    report = hh_report(spec, -3, 6, representatives=False)
    totals = {
        k: sum(report.strands[w].dimensions.get(k, 0) for w in report.strands)
        for k in range(4)
    }
    assert not any(totals[d] == 1 and totals[d - 1] == 1 for d in range(1, 4))

    root = mixed_minimal(2)
    assert sorted(str(b) for b in center_truncated(root, 5)) == [
        "(1)",
        "(1)*y2^2",
        "(1)*y2^4",
    ]
    window = hh1_window(root, 5)
    assert window.dimension == 3
    assert sorted(str(rep.value((3,))) for rep in window.representatives) == [
        "(1)*y2",
        "(1)*y2^3",
        "(1)*y2^5",
    ]


@pytest.mark.parametrize("name,spec", ALL_PRESETS, ids=[n for n, _ in ALL_PRESETS])
def test_criterion_12_omega_coefficient_relations(name, spec):
    """omega'_1 = (-1)^{*+1} omega_1, omega'_2 = (-1)^{*+1} (prod_t lambda~_{t,j_k}) omega_2.

    The second relation carries the product down column j_k of the extended
    matrix; the row-indexed variant is its inverse and coincides with it
    exactly on the semi-classical presets, where every row product is 1.
    """
    m = spec.num_generators
    for star in range(m):
        sign = spec.scalar((-1) ** (star + 1))
        for I in all_wedges(spec, star):
            J = complement(spec, I)
            for k in range(1, len(J) + 1):
                w1, w2 = omega_coefficients(spec, I, k)
                w1p, w2p = omega_prime_coefficients(spec, I, k)
                assert w1p == w1 * sign, (I, k)
                assert w2p == w2 * sign * column_product(spec, J[k - 1]), (I, k)
                if spec.r == spec.n:
                    assert row_product(spec, J[k - 1]) == column_product(spec, J[k - 1])
