"""Koszul-type complexes: differentials, comparison maps, braiding."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import ALL_PRESETS, diff_full_closed, random_specs
from test_linalg import scalar_matrix
from test_algebra import (
    _letter_lambda,
    _monomial_to_word,
    _word_to_monomial,
    evaluated,
    naive_monomial_product,
    naive_normal_form,
)

from hochhom import cli, cohomology, koszul
from hochhom.algebra import Combination, normal_mul_monomials, normal_mul_uncached
from hochhom.braiding import braiding_f_prime
from hochhom.cohomology import (
    Cochain,
    D_apply,
    Delta_apply,
    _zero_coboundaries,
    all_wedges,
    check_basis,
    cohomology_report,
    duality_identity_check,
)
from hochhom.cli import load_config, run
from hochhom.errors import (
    IndexOutOfRange,
    NotInSmallComplex,
    NotSemiClassical,
    WordTooLong,
)
from hochhom.koszul import (
    ChainElement,
    check_generator,
    _base_point,
    _compositions,
    _strand_keys,
    apply_diff,
    bad_columns,
    block_key,
    chain_generator_str,
    diff_full,
    diff_small,
    diff_symmetric,
    diff_weyl,
    enumerate_strand,
    is_in_C,
    keys_up_to,
    monomials_up_to,
    rho_of,
    weyl_f_map,
    weyl_g_map,
)
from hochhom.linalg import matrix_of
from hochhom.scalar import AlgebraSpec, CyclotomicModel, CyclotomicScalar, RationalModel


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


def quantum_plane_spec():
    return AlgebraSpec(
        2, 0, RationalModel([[Fraction(1), Fraction(1, 2)], [Fraction(2), Fraction(1)]])
    )


ALL_SPECS = [weyl_spec, mixed_rational_spec, mixed_root_spec, semiclassical_spec, quantum_plane_spec]


def weight(key):
    """Polynomial degree minus homological degree of a (mono, wedge) key."""
    mono, wedge = key
    return sum(mono) - sum(wedge)


# ---------------------------------------------------------------------------
# Membership in the small complex.
# ---------------------------------------------------------------------------


def test_membership_examples():
    spec = mixed_root_spec(2)
    assert is_in_C(spec, (1, 1, 2))
    assert not is_in_C(spec, (1, 1, 1))
    assert is_in_C(spec, (0, 0, 0))


def test_membership_weyl_pairs():
    spec = semiclassical_spec()
    # x_i-degree must match y_i-degree unless the column product is 1
    assert is_in_C(spec, (1, 0, 1, 0))
    assert is_in_C(spec, (2, 1, 2, 1))
    assert not is_in_C(spec, (1, 1, 0, 0))


def assert_block_rule_agrees(spec, max_total=6):
    """The once-per-block C decision agrees with is_in_C for every |rho| <= max_total."""
    for total in range(max_total + 1):
        for rho in _compositions(total, spec.num_generators):
            by_block = not any(rho[c] for c in bad_columns(spec, block_key(spec, rho)))
            assert by_block == is_in_C(spec, rho), rho


@pytest.mark.parametrize("name,spec", ALL_PRESETS, ids=[n for n, _ in ALL_PRESETS])
def test_block_rule_matches_membership_on_presets(name, spec):
    assert_block_rule_agrees(spec)


@settings(max_examples=30, deadline=None)
@given(spec=random_specs())
def test_block_rule_matches_membership_on_random_parameters(spec):
    assert_block_rule_agrees(spec)


# ---------------------------------------------------------------------------
# d . d = 0 and agreement between the generic and closed-form routes.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("make_spec", ALL_SPECS)
def test_full_differential_squares_to_zero(make_spec):
    spec = make_spec()
    for g in keys_up_to(spec, 3):
        assert apply_diff(spec, diff_full, diff_full(spec, g)).is_zero(), (
            chain_generator_str(spec, g)
        )


@pytest.mark.parametrize("make_spec", ALL_SPECS)
def test_closed_form_agrees_with_generic(make_spec):
    spec = make_spec()
    for g in keys_up_to(spec, 3):
        assert diff_full_closed(spec, g) == diff_full(spec, g), chain_generator_str(spec, g)


def _rational3(r, values):
    return AlgebraSpec(3, r, RationalModel([[Fraction(v) for v in row] for row in values]))


N3_SPECS = [
    ("r0-rational", _rational3(0, [["1", "-2", "1/3"], ["-1/2", "1", "5"], ["3", "1/5", "1"]])),
    ("r1-zeta6", AlgebraSpec(3, 1, CyclotomicModel(6, [[0, 1, 2], [-1, 0, 3], [-2, -3, 0]]))),
    ("r2-rational", _rational3(2, [["1", "1/2", "-3"], ["2", "1", "-1"], ["-1/3", "-1", "1"]])),
    ("r3-zeta4", AlgebraSpec(3, 3, CyclotomicModel(4, [[0, 1, 3], [-1, 0, 2], [-3, -2, 0]]))),
]


@pytest.mark.parametrize("name,spec", N3_SPECS, ids=[name for name, _ in N3_SPECS])
def test_closed_form_agrees_with_generic_on_n3(name, spec):
    for g in keys_up_to(spec, 2):
        assert diff_full_closed(spec, g) == diff_full(spec, g), chain_generator_str(spec, g)


@pytest.mark.parametrize("make_spec", ALL_SPECS)
def test_small_differential_squares_and_stays_in_C(make_spec):
    spec = make_spec()
    for g in keys_up_to(spec, 3):
        if not is_in_C(spec, rho_of(g)):
            continue
        image = diff_small(spec, g)
        for h in image.terms:
            assert is_in_C(spec, rho_of(h))
            assert weight(h) == weight(g)
            # The purely-quantum part of rho (beta_j + delta_j for j > r) is kept.
            assert rho_of(h)[2 * spec.r:] == rho_of(g)[2 * spec.r:]
        assert apply_diff(spec, diff_small, image).is_zero()


@pytest.mark.parametrize("make_spec", ALL_SPECS)
def test_symmetric_differential_squares_and_preserves_rho(make_spec):
    spec = make_spec()
    for g in keys_up_to(spec, 3):
        image = diff_symmetric(spec, g)
        for h in image.terms:
            assert rho_of(h) == rho_of(g)
        assert apply_diff(spec, diff_symmetric, image).is_zero()


def test_weyl_differential_squares_to_zero():
    for make_spec in (weyl_spec, semiclassical_spec):
        spec = make_spec()
        for g in keys_up_to(spec, 3):
            assert apply_diff(spec, diff_weyl, diff_weyl(spec, g)).is_zero()


def test_small_diff_rejects_outside_C():
    spec = mixed_root_spec(2)
    g = ((1, 0, 1), (0, 0, 0))
    assert not is_in_C(spec, rho_of(g))
    with pytest.raises(NotInSmallComplex):
        diff_small(spec, g)


def test_weyl_diff_needs_semiclassical():
    spec = mixed_rational_spec()
    with pytest.raises(NotSemiClassical):
        diff_weyl(spec, ((0, 0, 0), (0, 0, 0)))


# ---------------------------------------------------------------------------
# Worked examples.
# ---------------------------------------------------------------------------


def test_weyl_differential_basic_values():
    spec = weyl_spec()
    y_wedge_x = ((0, 1), (1, 0))
    image = diff_weyl(spec, y_wedge_x)
    assert image == ChainElement.single(spec, ((0, 0), (0, 0)), spec.scalar(-1))
    x_wedge_y = ((1, 0), (0, 1))
    assert diff_weyl(spec, x_wedge_y) == ChainElement.single(spec, ((0, 0), (0, 0)), spec.one())


def test_top_wedge_with_no_paired_degrees_dies():
    """The lowering-only image of z^2 (x) x^y^z vanishes identically."""
    spec = mixed_root_spec(2)
    g = ((0, 0, 2), (1, 1, 1))
    assert not is_in_C(spec, rho_of(g))
    assert list(koszul._lowering(spec, *g)) == []


def test_full_differential_top_wedge_example():
    spec = weyl_spec()
    # only the Weyl-pair lowering survives: d(y (x) x^y) = -1 (x) y
    g = ((0, 1), (1, 1))
    assert diff_full(spec, g) == ChainElement.single(spec, ((0, 0), (0, 1)), spec.scalar(-1))


# ---------------------------------------------------------------------------
# Strand enumeration.
# ---------------------------------------------------------------------------


def _recursive_compositions(total, parts):
    """The recursive definition: the first part ascending, then the rest."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _recursive_compositions(total - first, parts - 1):
            yield (first,) + rest


@pytest.mark.parametrize("parts", range(6))
def test_compositions_match_recursive_definition(parts):
    # monomials_up_to and the strand order rely on this exact order.
    for total in range(-1, 9):
        assert list(_compositions(total, parts)) == list(_recursive_compositions(total, parts))


def _recursive_bit_vectors(total, parts):
    """The recursive definition: 0/1 tuples with `total` ones, the first entry ascending."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in (0, 1):
        if first <= total:
            for rest in _recursive_bit_vectors(total - first, parts - 1):
                yield (first,) + rest


@pytest.mark.parametrize("n,r", [(1, 0), (1, 1), (2, 1), (3, 2)])
def test_generators_up_to_match_recursive_wedge_order(n, r):
    # verify's failure messages and the verify-complex goldens follow this order.
    spec = AlgebraSpec(n, r, CyclotomicModel(1, [[0] * n for _ in range(n)]))
    m = spec.num_generators
    expected = [
        (mono, wedge)
        for p in range(3)
        for mono in _recursive_compositions(p, m)
        for size in range(m + 1)
        for wedge in _recursive_bit_vectors(size, m)
    ]
    assert list(keys_up_to(spec, 2)) == expected


def strand_matrices(strand):
    """The whole-strand maps from degree-k to degree-(k-1) coordinates, assembled from the blocks."""
    columns = {}
    for block in strand.blocks:
        for k, matrix in block.matrices.items():
            for (i, j), v in matrix.entries.items():
                row = block.basis[k - 1][i]
                columns.setdefault(block.basis[k][j], []).append((row, v))
    gens = strand.generators
    return {
        k: scalar_matrix(gens[k], lambda g: columns.get(g, ()), gens[k - 1])
        for k in range(1, len(gens))
    }


def test_strand_weight_and_composition():
    spec = weyl_spec()
    strand = enumerate_strand(spec, -2)
    for k, gens in strand.generators.items():
        for g in gens:
            assert weight(g) == -2
            assert is_in_C(spec, rho_of(g))
    matrices = strand_matrices(strand)
    for k, matrix in matrices.items():
        lower = matrices.get(k - 1)
        if lower is not None:
            assert lower.compose(matrix).is_zero()


def _candidate_strand(spec, w):
    """The reference: every (mono, wedge) of weight w, kept iff is_in_C(rho).

    Returns the generators per degree in (mono, wedge) order and each block's
    generators per degree, with the blocks keyed by block key and ordered by
    their first generator, taking degrees in increasing order.
    """
    m = spec.num_generators
    generators = {}
    blocks = {}
    for k in range(m + 1):
        found = sorted(
            (mono, wedge)
            for wedge in _recursive_bit_vectors(k, m)
            for mono in _compositions(w + k, m)
            if is_in_C(spec, tuple(a + b for a, b in zip(mono, wedge)))
        )
        generators[k] = found
        for g in generators[k]:
            blocks.setdefault(block_key(spec, rho_of(g)), {d: [] for d in range(m + 1)})[k].append(g)
    return generators, blocks


def _small_matrices(spec, generators):
    return {
        k: scalar_matrix(
            generators[k], lambda g: diff_small(spec, g).terms.items(), generators[k - 1]
        )
        for k in range(1, spec.num_generators + 1)
    }


def assert_strand_matches_candidates(spec, w):
    strand = enumerate_strand(spec, w)
    generators, blocks = _candidate_strand(spec, w)
    assert strand.generators == generators, w
    assert [block.key for block in strand.blocks] == list(blocks), w
    for block in strand.blocks:
        assert block.basis == blocks[block.key], (w, block.key)
        assert block.matrices == _small_matrices(spec, block.basis), (w, block.key)
    return strand, generators


@pytest.mark.parametrize("name,spec", ALL_PRESETS, ids=[n for n, _ in ALL_PRESETS])
def test_enumeration_matches_candidate_filter_on_presets(name, spec):
    for w in range(-spec.num_generators, 9):
        assert_strand_matches_candidates(spec, w)


@st.composite
def signed_rational_specs(draw):
    """Signed rationals over the shared primes 2 and 3, so many columns are torsion."""
    n = draw(st.integers(min_value=1, max_value=3))
    r = draw(st.integers(min_value=0, max_value=n))
    entry = st.tuples(
        st.sampled_from([1, -1]), st.integers(min_value=-2, max_value=2),
        st.integers(min_value=-2, max_value=2),
    ).map(lambda t: t[0] * Fraction(2) ** t[1] * Fraction(3) ** t[2])
    values = [[Fraction(1)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = draw(entry)
            values[i][j], values[j][i] = v, 1 / v
    return AlgebraSpec(n, r, RationalModel(values))


@st.composite
def cyclotomic_specs(draw, max_order=8):
    n = draw(st.integers(min_value=1, max_value=3))
    r = draw(st.integers(min_value=0, max_value=n))
    order = draw(st.integers(min_value=1, max_value=max_order))
    exponents = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            e = draw(st.integers(min_value=0, max_value=order - 1))
            exponents[i][j], exponents[j][i] = e, -e
    return AlgebraSpec(n, r, CyclotomicModel(order, exponents))


@settings(max_examples=25, deadline=None)
@given(spec=st.one_of(signed_rational_specs(), cyclotomic_specs()), data=st.data())
def test_enumeration_matches_candidate_filter_on_random_parameters(spec, data):
    w = data.draw(st.integers(min_value=-spec.num_generators, max_value=2))
    assert_strand_matches_candidates(spec, w)


@settings(max_examples=25, deadline=None)
@given(spec=st.one_of(signed_rational_specs(), cyclotomic_specs()))
def test_closed_form_agrees_with_generic_on_random_parameters(spec):
    # diff_full multiplies in the PBW basis and never reads the lowering
    # table, so this checks every row of the table over random Lambda.
    for g in keys_up_to(spec, 2):
        assert diff_full_closed(spec, g) == diff_full(spec, g), chain_generator_str(spec, g)


# ---------------------------------------------------------------------------
# PBW products as (monomial, character, int) triples, and the cochain
# differential built on them, against the naive one-step rewriter.
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(spec=st.one_of(signed_rational_specs(), cyclotomic_specs()), data=st.data())
def test_product_triples_match_the_naive_rewriter_on_random_parameters(spec, data):
    monomials = st.sampled_from(list(monomials_up_to(spec, 3)))
    pairs = data.draw(st.lists(st.tuples(monomials, monomials), min_size=1, max_size=8))
    for left, right in pairs:
        entry = normal_mul_monomials(spec, left, right)
        assert evaluated(spec, entry) == naive_monomial_product(spec, left, right), (left, right)


def naive_D(spec, I, mono, coeff):
    """D of the cochain v_I -> coeff * mono as {J: {monomial: scalar}}, each
    braided commutator written out with the naive rewriter and lambda~ entries."""
    out = {}
    word = _monomial_to_word(mono)
    for j in range(1, spec.num_generators + 1):
        if j in I:
            continue
        J = tuple(sorted(I + (j,)))
        k = J.index(j)
        left, right = spec.one(), spec.one()
        for s in J[:k]:
            left = left * _letter_lambda(spec, s, j)
        for s in J[k + 1 :]:
            right = right * _letter_lambda(spec, j, s)
        value = {}
        for factor, product_word in ((left, (j,) + word), (-right, word + (j,))):
            for w, c in naive_normal_form(spec, product_word).items():
                value[w] = value.get(w, spec.scalar(0)) + c * factor
        scale = coeff * (-1) ** k
        value = {_word_to_monomial(spec, w): c * scale for w, c in value.items() if not c.is_zero()}
        if value:
            out[J] = value
    return out


@settings(max_examples=40, deadline=None)
@given(spec=st.one_of(signed_rational_specs(), cyclotomic_specs()), data=st.data())
def test_D_matches_naive_commutators_on_random_parameters(spec, data):
    m = spec.num_generators
    for _ in range(4):
        I = data.draw(st.sampled_from(all_wedges(spec, data.draw(st.integers(0, min(2, m - 1))))))
        mono = data.draw(st.sampled_from(list(monomials_up_to(spec, 2))))
        coeff = spec.scalar(data.draw(st.sampled_from([1, -1, 2, Fraction(-1, 3)])))
        got = {}
        image = apply_diff(spec, D_apply, Cochain(spec, {(I, mono): coeff}))
        for (J, out), c in image.terms.items():
            got.setdefault(J, {})[out] = c
        assert got == naive_D(spec, I, mono, coeff), (I, mono)


def test_generic_differentials_sum_characters_and_build_one_scalar_per_term(monkeypatch):
    # Braided coefficients are sums of lambda~ table entries, never factor
    # lists, and each output term of diff_full and of D and Delta on a basis
    # cochain is one character's value times an int: no two scalars are
    # multiplied, in the duality check either.
    spec = load_config("semiclassical(2,4,1)")
    calls = Counter()
    character, power_product, mul = (
        AlgebraSpec.character, AlgebraSpec.lambda_tilde_power_product, CyclotomicScalar.__mul__
    )

    def counted(name, fn):
        def wrapper(*args):
            if name != "mul" or isinstance(args[1], CyclotomicScalar):
                calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(AlgebraSpec, "character", counted("character", character))
    monkeypatch.setattr(AlgebraSpec, "lambda_tilde_power_product", counted("power", power_product))
    monkeypatch.setattr(CyclotomicScalar, "__mul__", counted("mul", mul))
    generators = list(keys_up_to(spec, 3))
    terms = sum(len(diff_full(spec, g).terms) for g in generators)
    monomials = list(monomials_up_to(spec, 3))
    for size in range(3):
        for I in all_wedges(spec, size):
            for mono in monomials:
                for apply in (D_apply, Delta_apply):
                    terms += len(apply(spec, (I, mono)).terms)
    assert all(duality_identity_check(spec, size, 2).passed for size in range(spec.num_generators))
    # The mixed minimal algebra fails the check, which then reports a row product.
    assert duality_identity_check(load_config("mixed-minimal(3)"), 0, 2).discrepancy is not None
    assert terms and calls["mul"] == 0
    for g in generators:
        diff_symmetric(spec, g)
    for left in monomials:
        for right in monomials[::5]:
            normal_mul_uncached(spec, left, right)
    _zero_coboundaries(spec, 4)
    assert calls["character"] == calls["power"] == 0
    # Every matrix sums its triples' ints per character and reads each
    # character's value from the model's cache: verify --suite complex, which
    # eliminates nothing, and the cohh windows up to their elimination build
    # no more scalars than the model values characters.
    built, counting = [], [True]
    init = CyclotomicScalar.__init__

    def counted_init(self, *args, **kwargs):
        if counting[0]:
            built.append(1)
        init(self, *args, **kwargs)

    def paused(fn):
        def wrapper(*args, **kwargs):
            counting[0] = False
            try:
                return fn(*args, **kwargs)
            finally:
                counting[0] = True

        return wrapper

    spec, windows = load_config("semiclassical(2,4,1)"), load_config("mixed-minimal(3)")
    monkeypatch.setattr(CyclotomicScalar, "__init__", counted_init)
    checked, failures = cli.verify_complex(spec, 2)
    assert checked and not failures
    assert len(built) <= len(spec.model._products)
    built.clear()
    for name in ("complex_homology", "rank_kernel"):
        monkeypatch.setattr(cohomology, name, paused(getattr(cohomology, name)))
    report = cohomology_report(windows, range(windows.num_generators + 1), 3)
    assert len(report.entries) == windows.num_generators + 1
    assert windows.model._products and len(built) <= len(windows.model._products)


@pytest.mark.parametrize(
    "mono,wedge", [((0, -1), (1, 0)), ((1, 0), (2, 0)), ((1, 0, 0), (1, 0))],
    ids=["negative-exponent", "wedge-entry-2", "lengths-differ"],
)
def test_chain_generator_rejects_a_bad_key(mono, wedge):
    with pytest.raises(IndexOutOfRange):
        check_generator((mono, wedge))


KEY_ENTRIES = {
    "diff_full": diff_full, "diff_small": diff_small, "diff_symmetric": diff_symmetric,
    "diff_weyl": diff_weyl, "weyl_f_map": weyl_f_map, "weyl_g_map": weyl_g_map,
    "single": ChainElement.single,
}
# Over semiclassical_spec (n + r = 4); the wedge-entry-2 key has rho = (2, 1, 0, 0),
# outside C.  The short and long keys are well formed but have 3 and 5 exponents.
BAD_KEYS = {
    "negative-exponent": ((0, -1, 0, 0), (1, 0, 0, 0)),
    "wedge-entry-2": ((0, 1, 0, 0), (2, 0, 0, 0)),
    "lengths-differ": ((1, 0, 0, 0, 0), (1, 0, 0, 0)),
    "too-short": ((0, 0, 1), (0, 0, 1)),
    "too-long": ((1, 0, 0, 0, 0), (0, 0, 1, 0, 0)),
}
KEY_CASES = [(entry, bad) for entry in KEY_ENTRIES for bad in BAD_KEYS] + [
    (f"diff_{name}", "kernel-yields-negative-exponent")
    for name in ("full", "small", "symmetric", "weyl")
]


@pytest.mark.parametrize("entry,bad", KEY_CASES, ids=[f"{e}-{b}" for e, b in KEY_CASES])
def test_a_bad_chain_key_is_refused(monkeypatch, entry, bad):
    # A key is checked where it arrives from a caller, and each diff_* checks
    # every key its kernel yields: here one more triple on a negative exponent.
    spec, key = semiclassical_spec(), BAD_KEYS.get(bad)
    if key is None:
        name = "_" + entry.removeprefix("diff_")
        kernel = getattr(koszul, name)

        def leaky(spec, mono, wedge):
            yield from kernel(spec, mono, wedge)
            yield (mono[:-1] + (-1,), wedge), (0,) * spec.model.rank, 1

        monkeypatch.setattr(koszul, name, leaky)
        key = ((1, 0, 0, 0), (0, 0, 1, 0))  # x1 (x) y1, in C
    with pytest.raises(IndexOutOfRange):
        KEY_ENTRIES[entry](spec, key)


def test_matrix_of_checks_the_keys_a_kernel_yields(monkeypatch):
    # A chain kernel and the cochain kernel each yield one more triple, on a
    # key with a negative exponent, and the matrix built from them refuses it.
    spec = load_config("weyl(1)")
    lowering, insertion = koszul._lowering, cohomology._insertion

    def leaky_lowering(spec, mono, wedge):
        yield from lowering(spec, mono, wedge)
        yield (mono[:-1] + (-1,), wedge), (0,) * spec.model.rank, 1

    def leaky_insertion(spec, basis, dual):
        yield from insertion(spec, basis, dual)
        yield (basis[0], basis[1][:-1] + (-1,)), (0,) * spec.model.rank, 1

    monkeypatch.setattr(koszul, "_lowering", leaky_lowering)
    with pytest.raises(IndexOutOfRange):
        cli.verify_complex(spec, 1)
    monkeypatch.setattr(cohomology, "_insertion", leaky_insertion)
    with pytest.raises(IndexOutOfRange):
        cohomology.center_truncated(spec, 1)


def scalar_image(spec, triples):
    """The reference sum of (key, character, int) triples: one scalar per term, summed."""
    value = spec.model.value
    return Combination.from_terms(spec, ((key, value(char) * k) for key, char, k in triples))


def assert_triple_matrices_match_scalar_images(spec, bound):
    """For the four chain differentials, D and Delta, on the basis up to ``bound``:
    the wrapper's images are the per-term scalar sums of the kernel's triples, and
    ``matrix_of`` on the triples is the matrix of those images, with the same row
    keys in the same order and the same cells in the same storage order."""
    generators = list(keys_up_to(spec, bound))
    in_C = [g for g in generators if is_in_C(spec, rho_of(g))]
    cases = [(diff_full, "_full", generators), (diff_symmetric, "_symmetric", generators),
             (diff_small, "_small", in_C)] + ([(diff_weyl, "_weyl", generators)] * (spec.r == spec.n))
    cochains = [
        (I, mono)
        for size in range(spec.num_generators + 1)
        for I in all_wedges(spec, size)
        for mono in monomials_up_to(spec, bound)
    ]
    checks = {}
    for wrapper, name, basis in cases:
        kernel = getattr(koszul, name)
        checks[name] = (basis, lambda key, kernel=kernel: kernel(spec, *key), check_generator)
        for key in basis:
            want = scalar_image(spec, kernel(spec, *key)).terms.items()
            got = wrapper(spec, key).terms.items()
            assert list(got) == list(want), (name, key)
    for wrapper, dual in ((D_apply, False), (Delta_apply, True)):
        kernel = partial(cohomology._insertion, spec, dual=dual)
        checks[wrapper.__name__] = (cochains, kernel, partial(check_basis, spec))
        for basis in cochains:
            want = scalar_image(spec, kernel(basis)).terms.items()
            assert list(wrapper(spec, basis).terms.items()) == list(want), basis
    for name, (basis, kernel, check) in checks.items():
        got, rows = matrix_of(spec.model, basis, kernel, check)
        images = [list(scalar_image(spec, kernel(b)).terms.items()) for b in basis]
        want = scalar_matrix(range(len(basis)), images.__getitem__)
        assert rows == list(dict.fromkeys(key for image in images for key, _ in image)), name
        assert (got.rows, got.cols, list(got.ints.items()), got.dens) == (
            want.rows, want.cols, list(want.ints.items()), want.dens
        ), name


@pytest.mark.parametrize("name,spec", ALL_PRESETS, ids=[n for n, _ in ALL_PRESETS])
def test_triple_matrices_match_scalar_images_on_presets(name, spec):
    assert_triple_matrices_match_scalar_images(spec, 2)


@settings(max_examples=20, deadline=None)
@given(spec=st.one_of(signed_rational_specs(), cyclotomic_specs()))
def test_triple_matrices_match_scalar_images_on_random_parameters(spec):
    assert_triple_matrices_match_scalar_images(spec, 2)


def reference_strand_keys(spec, w):
    """The composition walk that the class walk of ``_strand_keys`` replaced, as its reference.

    Every key of every size of the parity of w up to w + n + (n+r), each
    checked by ``bad_columns`` at its base point.
    """
    n, r, m = spec.n, spec.r, spec.num_generators
    for size in range(w % 2, w + n + m + 1, 2):
        for parts in _compositions(size, n):
            quantum = parts[r:]
            for deltas in product(*[(d, -d) if d else (0,) for d in parts[:r]]):
                key = deltas + quantum
                bad = koszul.bad_columns(spec, key)
                base = _base_point(spec, key)
                if any(base[c] for c in bad):
                    continue
                pairs = [i for i in range(r) if i not in bad]
                z, support = sum(1 for i in pairs if not deltas[i]), m - base.count(0)
                if any(
                    k <= support + 2 * min(t, z) + min(max(t - z, 0), len(pairs) - z)
                    for k, t in ((k, (w + 2 * k - size) // 2) for k in range(m + 1))
                    if t == 0 or (t > 0 and pairs)
                ):
                    yield key, base, pairs


def walked_keys(walk, spec, w):
    """The (key, base, pairs) triples of a walk, as a set; no triple may come twice."""
    found = [(key, base, tuple(pairs)) for key, base, pairs in walk(spec, w)]
    assert len(found) == len(set(found)), w
    return set(found)


def assert_key_walk_matches_reference(spec, w_max):
    # The walk with delta = 0 is the full walk's keys with delta = 0, so it
    # holds every key whose block_homology is nonzero.
    homology_walk = partial(_strand_keys, delta_zero=True)
    for w in range(-spec.num_generators, w_max + 1):
        full = walked_keys(_strand_keys, spec, w)
        assert full == walked_keys(reference_strand_keys, spec, w), w
        restricted = walked_keys(homology_walk, spec, w)
        assert restricted == {t for t in full if not any(t[0][: spec.r])}, w
        carrying = {t for t in full if koszul.block_homology(spec, w, *t)}
        assert {t for t in restricted if koszul.block_homology(spec, w, *t)} == carrying, w


@pytest.mark.parametrize("name,spec", ALL_PRESETS, ids=[n for n, _ in ALL_PRESETS])
def test_key_walk_matches_reference_on_presets(name, spec):
    assert_key_walk_matches_reference(spec, 13)


# Up to w = 2 order + 2, so that a coordinate with residue 0 reaches +-order
# and +-2 order.  With n = 3 a column's character sums two coordinates, so
# the sign of a delta coordinate changes which columns are good.
@pytest.mark.parametrize(
    "config,order",
    [(config.format(t=t), t)
     for t in (2, 3, 12)
     for config in ("mixed-minimal({t})", "semiclassical(2,{t},5)", "semiclassical(3,{t},1)")],
)
def test_key_walk_matches_reference_past_the_order(config, order):
    assert_key_walk_matches_reference(load_config(config), 2 * order + 2)


@settings(max_examples=40, deadline=None)
@given(spec=st.one_of(signed_rational_specs(), cyclotomic_specs(max_order=30)), data=st.data())
def test_key_walk_matches_reference_on_random_parameters(spec, data):
    # Period 0 (an exact lattice) walks its one class key by key.
    w_max = min(2 * spec.model.period + 2, 10) if spec.model.period else 6
    assert_key_walk_matches_reference(spec, data.draw(st.integers(-spec.num_generators, w_max)))


@pytest.mark.parametrize(
    "config,w", [("mixed-minimal(10000)", 40), ("semiclassical(3,10000,1)", 12)]
)
def test_key_walk_builds_fewer_candidates_than_the_reference(monkeypatch, config, w):
    # At a large order each class holds at most one key of size <= cap, so
    # walking every class would cost as much as walking every key.
    spec = load_config(config)
    counts = Counter()

    def counted(name, helper):
        def wrapper(*args):
            counts[name] += 1
            return helper(*args)
        return wrapper

    def counted_classes(*args, key_classes=koszul._key_classes):
        for found in key_classes(*args):
            counts["class"] += 1
            yield found

    # The reference builds one key per bad_columns call; the class walk
    # solves one class of the first n - 1 residues per _solve call.
    for name in ("bad_columns", "_solve", "_base_point"):
        monkeypatch.setattr(koszul, name, counted(name, getattr(koszul, name)))
    monkeypatch.setattr(koszul, "_key_classes", counted_classes)
    reference = walked_keys(reference_strand_keys, spec, w)
    reference_keys = counts.pop("bad_columns")
    walked = walked_keys(_strand_keys, spec, w)
    assert walked == reference
    assert counts["_solve"] + counts["class"] + counts["_base_point"] <= reference_keys
    assert "bad_columns" not in counts


def test_key_walk_builds_only_the_keys_it_keeps(monkeypatch):
    # Under the size cap w + 2n no key fails the reach test on weyl(3):
    # one base point per key yielded.
    spec = load_config("weyl(3)")
    calls = Counter()

    def counted(*args, base_point=koszul._base_point):
        calls["_base_point"] += 1
        return base_point(*args)

    monkeypatch.setattr(koszul, "_base_point", counted)
    kept = sum(1 for w in range(-6, 0) for _ in _strand_keys(spec, w))
    assert kept == 301
    assert calls["_base_point"] == kept


@pytest.mark.parametrize("config", ["weyl(3)", "semiclassical(3,12,1)"])
def test_hh_builds_one_base_point_per_strand_on_weyl(monkeypatch, capsys, config):
    # Every coordinate of these keys is a delta: hh walks the zero key alone,
    # where the full walk builds 301 keys over the same weyl(3) strands.  On
    # a root-of-unity lattice the last residue is pinned too: one class.
    calls = Counter()

    def counted(*args, base_point=koszul._base_point):
        calls["_base_point"] += 1
        return base_point(*args)

    def counted_classes(*args, key_classes=koszul._key_classes):
        for found in key_classes(*args):
            calls["class"] += 1
            yield found

    monkeypatch.setattr(koszul, "_base_point", counted)
    monkeypatch.setattr(koszul, "_key_classes", counted_classes)
    assert run(["hh", "--config", config, "--wmin", "-6", "--wmax", "-1"]) == 0
    assert calls["_base_point"] <= 6 and calls["class"] <= 6
    capsys.readouterr()


def test_oracle_decides_bad_columns_only_on_keys_with_delta_zero(monkeypatch, capsys):
    # free(3,1) is an exact lattice, decided key by key.
    keys = []

    def recorded(spec, key, bad_columns=koszul.bad_columns):
        keys.append(key)
        return bad_columns(spec, key)

    monkeypatch.setattr(koszul, "bad_columns", recorded)
    assert run(["oracle", "--config", "free(3,1)", "--wmin", "-4", "--wmax", "6"]) == 0
    assert keys and all(key[0] == 0 for key in keys)
    capsys.readouterr()


def assert_every_block_has_a_generator(spec, w):
    for block in enumerate_strand(spec, w).blocks:
        assert any(block.basis.values()), (w, block.key)


@pytest.mark.parametrize("name,spec", ALL_PRESETS, ids=[n for n, _ in ALL_PRESETS])
def test_every_block_has_a_generator_on_presets(name, spec):
    for w in range(-spec.num_generators, 9):
        assert_every_block_has_a_generator(spec, w)


@settings(max_examples=40, deadline=None)
@given(spec=st.one_of(signed_rational_specs(), cyclotomic_specs()), data=st.data())
def test_every_block_has_a_generator_on_random_parameters(spec, data):
    assert_every_block_has_a_generator(spec, data.draw(st.integers(-spec.num_generators, 6)))


@pytest.mark.parametrize(
    "config,w_min,w_max",
    [("weyl(2)", -4, 2), ("mixed-minimal(3)", -3, 5), ("semiclassical(2,4,1)", -4, 2),
     ("free(2,1)", -3, 4), ("free(3,0)", -3, 3)],
)
def test_blocks_partition_the_whole_strand(config, w_min, w_max):
    spec = load_config(config)
    for w in range(w_min, w_max + 1):
        strand, generators = assert_strand_matches_candidates(spec, w)
        for block in strand.blocks:
            for k, gens in block.basis.items():
                assert all(block_key(spec, rho_of(g)) == block.key for g in gens)
        assert strand_matrices(strand) == _small_matrices(spec, generators), w


def test_strand_top_degree_generator():
    spec = weyl_spec()
    strand = enumerate_strand(spec, -2)
    assert [chain_generator_str(spec, g) for g in strand.generators[2]] == ["1 (x) x1^y1"]


# ---------------------------------------------------------------------------
# Comparison maps for the semi-classical case.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("make_spec", [weyl_spec, semiclassical_spec])
def test_comparison_maps_intertwine_and_retract(make_spec):
    spec = make_spec()

    def f_map(elem):
        out = ChainElement.zero(spec)
        for g, c in elem.terms.items():
            image = weyl_f_map(spec, g)
            out = out + image.scale(c)
        return out

    def g_map(elem):
        out = ChainElement.zero(spec)
        for g, c in elem.terms.items():
            out = out + weyl_g_map(spec, g).scale(c)
        return out

    for g in keys_up_to(spec, 3):
        if not is_in_C(spec, rho_of(g)):
            continue
        one = ChainElement.single(spec, g)
        # f: small -> Weyl intertwines; g: Weyl -> small intertwines on K_C
        assert f_map(diff_small(spec, g)) == apply_diff(spec, diff_weyl, f_map(one))
        assert g_map(diff_weyl(spec, g)) == apply_diff(spec, diff_small, g_map(one))
        assert g_map(f_map(one)) == one


def test_g_map_kills_complement_of_C():
    spec = semiclassical_spec()
    g = ((1, 1, 0, 0), (0, 0, 0, 0))
    assert not is_in_C(spec, rho_of(g))
    assert weyl_g_map(spec, g).is_zero()


def test_comparison_maps_reject_outside_C():
    spec = semiclassical_spec()
    g = ((1, 1, 0, 0), (0, 0, 0, 0))
    with pytest.raises(NotInSmallComplex):
        weyl_f_map(spec, g)


# ---------------------------------------------------------------------------
# Braiding.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("make_spec", [weyl_spec, mixed_rational_spec, mixed_root_spec])
def test_braiding_pairing_vanishes_on_short_words(make_spec):
    spec = make_spec()
    m = spec.num_generators
    for length in (2, 3):
        for word in product(range(1, m + 1), repeat=length):
            image = braiding_f_prime(spec, word)
            assert all(c.is_zero() for c in image.values()), word


def test_braiding_word_bounds():
    spec = weyl_spec()
    with pytest.raises(WordTooLong):
        braiding_f_prime(spec, (1,) * 9)
    with pytest.raises(IndexOutOfRange):
        braiding_f_prime(spec, (1, 5))
