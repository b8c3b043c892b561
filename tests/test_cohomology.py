"""Cochain complexes, the dualized differential, and the duality comparison."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hochhom.algebra import PbwElement
from hochhom.cohomology import (
    Cochain,
    D_apply,
    Delta_apply,
    DualChain,
    all_wedges,
    center_truncated,
    cohomology_report,
    column_product,
    complement,
    delta_by_conjugation,
    duality_identity_check,
    hh1_window,
    omega_coefficients,
    omega_prime_coefficients,
    phi3,
    phi3_inv,
    row_product,
    theta_coefficient,
)
from hochhom.errors import UnsupportedDegree
from hochhom.homology import hh_report
from hochhom.koszul import _compositions
from hochhom.scalar import AlgebraSpec, CyclotomicModel, RationalModel


def weyl_spec():
    return AlgebraSpec(1, 1, RationalModel([[Fraction(1)]]))


def mixed_rational_spec():
    return AlgebraSpec(
        2, 1, RationalModel([[Fraction(1), Fraction(1, 2)], [Fraction(2), Fraction(1)]])
    )


def mixed_root_spec(order=2):
    return AlgebraSpec(2, 1, CyclotomicModel(order, [[0, -1], [1, 0]]))


def semiclassical_spec():
    return AlgebraSpec(
        2, 2, RationalModel([[Fraction(1), Fraction(2)], [Fraction(1, 2), Fraction(1)]])
    )


ALL_SPECS = [weyl_spec, mixed_rational_spec, mixed_root_spec, semiclassical_spec]


def basis_dual_chains(spec, degree, max_poly_degree):
    m = spec.num_generators
    for I in all_wedges(spec, degree):
        for p in range(max_poly_degree + 1):
            for mono in _compositions(p, m):
                yield DualChain(spec, degree, {(mono, I): spec.one()})


# ---------------------------------------------------------------------------
# Theta and the dual differential.
# ---------------------------------------------------------------------------


def test_theta_examples():
    assert theta_coefficient(weyl_spec(), (2,)) == weyl_spec().scalar(-1)
    spec = mixed_root_spec(2)
    assert theta_coefficient(spec, (3,)).is_one()
    assert theta_coefficient(spec, ()).is_one()


def test_complement():
    spec = mixed_rational_spec()
    assert complement(spec, (1, 3)) == (2,)
    assert complement(spec, ()) == (1, 2, 3)


def test_delta_basic_example():
    spec = weyl_spec()
    c = DualChain(spec, 0, {((0, 1), ()): spec.one()})
    image = Delta_apply(spec, c)
    assert image == DualChain(spec, 1, {((0, 0), (1,)): spec.scalar(-1)})


@pytest.mark.parametrize("make_spec", ALL_SPECS)
def test_delta_matches_conjugation_route(make_spec):
    """Dual route check: the explicit Delta formula against Phi2 . d . Phi2^{-1}."""
    spec = make_spec()
    m = spec.num_generators
    for degree in range(m + 1):
        for c in basis_dual_chains(spec, degree, 3):
            assert Delta_apply(spec, c) == delta_by_conjugation(spec, c)


@pytest.mark.parametrize("make_spec", ALL_SPECS)
def test_delta_squares_to_zero(make_spec):
    spec = make_spec()
    for c in basis_dual_chains(spec, 0, 2):
        assert Delta_apply(spec, Delta_apply(spec, c)).is_zero()


# ---------------------------------------------------------------------------
# The cochain differential D.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("make_spec", ALL_SPECS)
def test_D_squares_to_zero(make_spec):
    spec = make_spec()
    m = spec.num_generators
    for mono in _compositions(2, m):
        phi = Cochain(spec, 0, {(): PbwElement.monomial(spec, mono)})
        assert D_apply(spec, D_apply(spec, phi)).is_zero()


def test_D_degree_zero_is_commutator():
    spec = mixed_rational_spec()
    z = PbwElement.monomial(spec, (0, 0, 1))
    image = D_apply(spec, Cochain(spec, 0, {(): z}))
    # [x1, z] = (1 - lambda_{1,2}) x1 z with lambda_{1,2} = 1/2
    assert image.value((1,)) == PbwElement.monomial(spec, (1, 0, 1), spec.scalar(Fraction(1, 2)))


def D_apply_all_wedges(spec, phi):
    """Reference D: every (degree+1)-wedge and every removal, zero values included."""
    star = phi.degree
    out = {}
    for I in all_wedges(spec, star + 1):
        total = PbwElement.zero(spec)
        for k, ik in enumerate(I, start=1):
            sub = tuple(t for t in I if t != ik)
            val = phi.value(sub)
            if val.is_zero():
                continue
            v = PbwElement.generator(spec, ik)
            left = spec.lambda_tilde_power_product((I[s - 1], ik, 1) for s in range(1, k))
            right = spec.lambda_tilde_power_product(
                (ik, I[s - 1], 1) for s in range(k + 1, star + 2)
            )
            sign = spec.scalar((-1) ** (k - 1))
            total = total + ((v * val).scale(left) - (val * v).scale(right)).scale(sign)
        if not total.is_zero():
            out[I] = total
    return Cochain(spec, star + 1, out)


# One rational spec and one over Q(zeta_4) (lambda_{1,2} = zeta_4), both with n + r = 4.
D_SPECS = {
    "rational": semiclassical_spec(),
    "zeta4": AlgebraSpec(2, 2, CyclotomicModel(4, [[0, 1], [-1, 0]])),
}


@st.composite
def random_cochains(draw, spec, degree):
    """A degree-``degree`` cochain with several nonzero values of several terms each."""
    m = spec.num_generators
    wedges = all_wedges(spec, degree)
    chosen = draw(
        st.lists(st.sampled_from(wedges), min_size=min(3, len(wedges)), max_size=4, unique=True)
    )
    zeta = spec.lambda_tilde(1, 2)
    values = {}
    for I in chosen:
        terms = draw(
            st.dictionaries(
                st.tuples(*[st.integers(0, 2)] * m),
                st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                min_size=2,
                max_size=4,
            )
        )
        value = PbwElement(
            spec, {mono: spec.scalar(a) + zeta * spec.scalar(b) for mono, (a, b) in terms.items()}
        )
        assume(len(value.terms) >= 2)
        values[I] = value
    return Cochain(spec, degree, values)


@pytest.mark.parametrize("name", sorted(D_SPECS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_sparse_D_matches_the_all_wedges_loop(name, data):
    spec = D_SPECS[name]
    for degree in range(spec.num_generators):
        phi = data.draw(random_cochains(spec, degree))
        got, want = D_apply(spec, phi), D_apply_all_wedges(spec, phi)
        assert got == want
        # Same wedge order and the same term order within each value, so the
        # matrices built from D have the same rows in the same order.
        assert list(got.values) == list(want.values)
        for I, value in want.values.items():
            assert list(got.values[I].terms.items()) == list(value.terms.items())


@pytest.mark.parametrize("make_spec", ALL_SPECS)
def test_D_raises_value_degree_by_at_most_one(make_spec):
    spec = make_spec()
    m = spec.num_generators
    for mono in _compositions(3, m):
        phi = Cochain(spec, 1, {(1,): PbwElement.monomial(spec, mono)})
        image = D_apply(spec, phi)
        for elem in image.values.values():
            assert elem.max_degree() <= 4


# ---------------------------------------------------------------------------
# Evaluation map and omega coefficients.
# ---------------------------------------------------------------------------


def test_phi3_round_trip():
    spec = mixed_rational_spec()
    rng = random.Random(2)
    for _ in range(10):
        terms = {}
        for _ in range(3):
            mono = tuple(rng.randint(0, 2) for _ in range(3))
            I = tuple(sorted(rng.sample([1, 2, 3], 2)))
            terms[(mono, I)] = spec.scalar(rng.randint(1, 5))
        c = DualChain(spec, 2, terms)
        assert phi3_inv(spec, phi3(spec, c)) == c


def test_phi3_degree_zero():
    spec = mixed_root_spec(2)
    c = DualChain(spec, 0, {((0, 0, 1), ()): spec.one()})
    phi = phi3(spec, c)
    assert phi.value(()) == PbwElement.monomial(spec, (0, 0, 1))


@pytest.mark.parametrize("make_spec", ALL_SPECS)
def test_omega_relations_exact(make_spec):
    """omega'_1 = (-1)^{*+1} omega_1 and omega'_2 = (-1)^{*+1} (col prod) omega_2."""
    spec = make_spec()
    m = spec.num_generators
    for star in range(m):
        sign = spec.scalar((-1) ** (star + 1))
        for I in all_wedges(spec, star):
            J = complement(spec, I)
            for k in range(1, len(J) + 1):
                w1, w2 = omega_coefficients(spec, I, k)
                w1p, w2p = omega_prime_coefficients(spec, I, k)
                assert w1p == w1 * sign
                assert w2p == w2 * sign * column_product(spec, J[k - 1])


def test_row_and_column_products_are_inverse():
    spec = mixed_rational_spec()
    for t in range(1, 4):
        assert (row_product(spec, t) * column_product(spec, t)).is_one()


# ---------------------------------------------------------------------------
# Duality.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("make_spec", [weyl_spec, semiclassical_spec])
def test_duality_identity_passes_semiclassical(make_spec):
    spec = make_spec()
    for degree in range(spec.num_generators):
        assert duality_identity_check(spec, degree, 3).passed


def test_duality_identity_fails_mixed_minimal():
    spec = mixed_rational_spec()
    result = duality_identity_check(spec, 0, 2)
    assert not result.passed
    assert result.inserted == 1
    assert row_product(spec, 1) == spec.scalar(2)
    assert result.discrepancy == spec.scalar(2)


# ---------------------------------------------------------------------------
# Windowed center and first cohomology.
# ---------------------------------------------------------------------------


def test_center_weyl_is_scalars():
    basis = center_truncated(weyl_spec(), 5)
    assert [str(b) for b in basis] == ["1"]


def test_center_mixed_root_powers():
    basis = center_truncated(mixed_root_spec(2), 4)
    assert sorted(str(b) for b in basis) == ["(1)", "(1)*y2^2", "(1)*y2^4"]


def test_center_mixed_non_root_trivial():
    basis = center_truncated(mixed_rational_spec(), 3)
    assert [str(b) for b in basis] == ["1"]


def test_hh1_mixed_root_window():
    result = hh1_window(mixed_root_spec(2), 5)
    assert result.dimension == 3
    values = sorted(str(rep.value((3,))) for rep in result.representatives)
    assert values == ["(1)*y2", "(1)*y2^3", "(1)*y2^5"]


def test_hh1_mixed_non_root():
    result = hh1_window(mixed_rational_spec(), 5)
    assert result.dimension == 1
    assert str(result.representatives[0].value((3,))) == "y2"


def test_hh1_weyl_vanishes():
    assert hh1_window(weyl_spec(), 4).dimension == 0


# ---------------------------------------------------------------------------
# Aggregated report.
# ---------------------------------------------------------------------------


def test_report_semiclassical_duality_route():
    spec = weyl_spec()
    report = cohomology_report(spec, [0, 1, 2], 4)
    dims = {e.degree: e.dimension for e in report.entries}
    assert dims == {0: 1, 1: 0, 2: 0}
    hh = hh_report(spec, -2, 4, representatives=False)
    totals = {
        k: sum(hh.strands[w].dimensions.get(k, 0) for w in hh.strands) for k in range(3)
    }
    assert [dims[k] for k in range(3)] == [totals[2 - k] for k in range(3)]


def test_report_mixed_minimal_windowed():
    report = cohomology_report(mixed_rational_spec(), [0, 1], 5)
    dims = {e.degree: e.dimension for e in report.entries}
    assert dims == {0: 1, 1: 1}
    methods = {e.degree: e.method for e in report.entries}
    assert methods == {0: "center-kernel", 1: "cocycle-window"}


def test_report_dual_side_is_labeled():
    report = cohomology_report(mixed_rational_spec(), [2], 4)
    entry = report.entries[0]
    assert entry.method == "dual-side"
    assert "not computed" in entry.note


def test_report_rejects_out_of_range_degree():
    with pytest.raises(UnsupportedDegree):
        cohomology_report(weyl_spec(), [3], 4)
