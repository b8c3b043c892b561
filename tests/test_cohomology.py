"""Cochain complexes, the dualized differential, and the duality comparison."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hochhom import cohomology, linalg
from hochhom.algebra import PbwElement
from hochhom.cli import load_config
from hochhom.cohomology import (
    Cochain,
    D_apply,
    Delta_apply,
    all_wedges,
    center_truncated,
    cohomology_report,
    complement,
    duality_identity_check,
    hh1_window,
    row_product,
)
from hochhom.errors import IndexOutOfRange, UnsupportedDegree
from hochhom.homology import hh_report
from hochhom.koszul import (
    ChainElement,
    _compositions,
    apply_diff,
    diff_full,
    monomials_up_to,
)
from hochhom.scalar import AlgebraSpec, CyclotomicModel, RationalModel
from test_linalg import scalar_matrix
from test_acceptance import (
    column_product,
    omega_coefficients,
    omega_prime_coefficients,
    theta_coefficient,
)


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


def basis_cochains(spec, degree, max_poly_degree):
    """The basis cochains (I, mono) with |I| = degree and |mono| <= max_poly_degree."""
    for I in all_wedges(spec, degree):
        for mono in monomials_up_to(spec, max_poly_degree):
            yield I, mono


def single(spec, basis):
    """The cochain of one basis cochain with coefficient 1."""
    return Cochain(spec, {basis: spec.one()})


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
    image = Delta_apply(spec, ((), (0, 1)))
    assert image == Cochain(spec, {((1,), (0, 0)): spec.scalar(-1)})


@pytest.mark.parametrize(
    "basis",
    [
        ((2, 1), (0, 0, 0)),  # unsorted
        ((1, 1), (0, 0, 0)),  # repeated
        ((0,), (0, 0, 0)),  # index 0
        ((4,), (0, 0, 0)),  # index n + r + 1
        ((1,), (0, -1, 0)),  # negative exponent
        ((1,), (0, 0)),  # too few exponents
    ],
)
def test_bad_basis_cochain_raises_at_the_entry_of_D_and_Delta(basis):
    spec = mixed_rational_spec()
    for apply in (D_apply, Delta_apply):
        with pytest.raises(IndexOutOfRange):
            apply(spec, basis)


def phi2(spec, chain):
    """Dualize a chain: a (x) v_J becomes the cochain v_I -> Theta(I) a, for I = complement(J)."""
    terms = []
    for (mono, wedge), coeff in chain.terms.items():
        I = complement(spec, tuple(t + 1 for t, b in enumerate(wedge) if b))
        terms.append(((I, mono), coeff * theta_coefficient(spec, I)))
    return Cochain.from_terms(spec, terms)


def phi2_inv(spec, c):
    terms = {}
    for (I, mono), coeff in c.terms.items():
        J = complement(spec, I)
        bits = tuple(int(t in J) for t in range(1, spec.num_generators + 1))
        terms[mono, bits] = coeff * theta_coefficient(spec, I).inv()
    return ChainElement(spec, terms)


def delta_by_conjugation(spec, c):
    """Phi_2 . d . Phi_2^{-1}: the definitional route for Delta."""
    return phi2(spec, apply_diff(spec, diff_full, phi2_inv(spec, c)))


@pytest.mark.parametrize("make_spec", ALL_SPECS)
def test_delta_matches_conjugation_route(make_spec):
    """Dual route check: the explicit Delta formula against Phi2 . d . Phi2^{-1}."""
    spec = make_spec()
    m = spec.num_generators
    for degree in range(m + 1):
        for basis in basis_cochains(spec, degree, 3):
            assert Delta_apply(spec, basis) == delta_by_conjugation(spec, single(spec, basis))


@pytest.mark.parametrize("make_spec", ALL_SPECS)
def test_delta_squares_to_zero(make_spec):
    spec = make_spec()
    for basis in basis_cochains(spec, 0, 2):
        assert apply_diff(spec, Delta_apply, Delta_apply(spec, basis)).is_zero()


# ---------------------------------------------------------------------------
# The cochain differential D.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("make_spec", ALL_SPECS)
def test_D_squares_to_zero(make_spec):
    spec = make_spec()
    for mono in _compositions(2, spec.num_generators):
        assert apply_diff(spec, D_apply, D_apply(spec, ((), mono))).is_zero()


def test_D_degree_zero_is_commutator():
    spec = mixed_rational_spec()
    image = D_apply(spec, ((), (0, 0, 1)))
    # [x1, z] = (1 - lambda_{1,2}) x1 z with lambda_{1,2} = 1/2
    assert image.value((1,)) == PbwElement.monomial(spec, (1, 0, 1), spec.scalar(Fraction(1, 2)))


def D_apply_all_wedges(spec, phi, star):
    """Reference D of a degree-``star`` cochain: every (star+1)-wedge and every removal."""
    out = []
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
        out += [((I, mono), c) for mono, c in total.terms.items()]
    return Cochain.from_terms(spec, out)


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
    values = []
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
        values += [((I, mono), c) for mono, c in value.terms.items()]
    return Cochain.from_terms(spec, values)


@pytest.mark.parametrize("name", sorted(D_SPECS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_sparse_D_matches_the_all_wedges_loop(name, data):
    spec = D_SPECS[name]
    for degree in range(spec.num_generators):
        phi = data.draw(random_cochains(spec, degree))
        assert apply_diff(spec, D_apply, phi) == D_apply_all_wedges(spec, phi, degree)


@pytest.mark.parametrize(
    "spec", [make() for make in ALL_SPECS] + [D_SPECS[name] for name in sorted(D_SPECS)],
    ids=[make.__name__ for make in ALL_SPECS] + sorted(D_SPECS),
)
def test_D_on_basis_cochains_keeps_the_all_wedges_term_order(spec):
    # The window matrices take their rows from D of basis cochains, in this order.
    for degree in range(spec.num_generators):
        for basis in basis_cochains(spec, degree, 3):
            got = D_apply(spec, basis).terms.items()
            want = D_apply_all_wedges(spec, single(spec, basis), degree).terms.items()
            assert list(got) == list(want), basis


@pytest.mark.parametrize("make_spec", ALL_SPECS)
def test_D_raises_value_degree_by_at_most_one(make_spec):
    spec = make_spec()
    for mono in _compositions(3, spec.num_generators):
        assert all(sum(out) <= 4 for _, out in D_apply(spec, ((1,), mono)).terms)


# ---------------------------------------------------------------------------
# Omega coefficients.
# ---------------------------------------------------------------------------


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


@st.composite
def square_specs(draw):
    """r = n specs with n <= 2: signed rationals, or roots of unity of order <= 12."""
    n = draw(st.integers(min_value=1, max_value=2))
    if draw(st.booleans()):
        values = [[Fraction(1)] * n for _ in range(n)]
        if n == 2:
            v = Fraction(draw(st.integers(-6, 6).filter(bool)), draw(st.integers(1, 6)))
            values[0][1], values[1][0] = v, 1 / v
        return AlgebraSpec(n, n, RationalModel(values))
    order = draw(st.integers(min_value=1, max_value=12))
    exponents = [[0] * n for _ in range(n)]
    if n == 2:
        e = draw(st.integers(min_value=0, max_value=order - 1))
        exponents[0][1], exponents[1][0] = e, -e
    return AlgebraSpec(n, n, CyclotomicModel(order, exponents))


@settings(max_examples=25, deadline=None)
@given(spec=square_specs())
@example(spec=AlgebraSpec(2, 2, CyclotomicModel(4, [[0, 1], [-1, 0]])))
@example(spec=semiclassical_spec())
def test_duality_holds_whenever_r_equals_n(spec):
    """The ``duality`` label of ``cohh``: when r = n every row product is 1, so D = +-Delta."""
    for t in range(1, spec.num_generators + 1):
        assert row_product(spec, t).is_one()
    for degree in range(spec.num_generators):
        assert duality_identity_check(spec, degree, 2).passed, degree


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


@pytest.mark.parametrize(
    "config,bound", [("weyl(2)", 2), ("semiclassical(2,4,1)", 3), ("mixed-minimal(3)", 5)]
)
def test_report_computes_one_kernel_and_picks_no_representative(monkeypatch, config, bound):
    # The report reads dimensions only: its one kernel is that of the part of
    # D(0-cochains) leaving the window, which the window inclusion needs.
    spec = load_config(config)
    kernels, picks = [], []

    def counted(calls, fn):
        def wrapper(first, *args, **kwargs):
            calls.append(first)
            return fn(first, *args, **kwargs)

        return wrapper

    for module in (linalg, cohomology):
        monkeypatch.setattr(module, "rank_kernel", counted(kernels, module.rank_kernel))
    monkeypatch.setattr(linalg, "_pick_cosets", counted(picks, linalg._pick_cosets))
    report = cohomology_report(spec, range(spec.num_generators + 1), bound)
    high = scalar_matrix(
        list(monomials_up_to(spec, bound + 1)),
        lambda mono: [
            (key, c)
            for key, c in cohomology.D_apply(spec, ((), mono)).terms.items()
            if sum(key[1]) > bound
        ],
    )
    assert kernels == [high] and picks == []
    assert [e.dimension for e in report.entries[:2]] == [
        len(center_truncated(spec, bound)),
        hh1_window(spec, bound).dimension,
    ]
