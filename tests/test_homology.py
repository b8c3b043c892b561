"""Strand homology, closed-answer oracles, and the quotient reduction witness."""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hochhom import cli, homology, koszul, linalg
from hochhom.cli import load_config, run, verify_blocks
from hochhom.errors import RhoInC
from hochhom.homology import (
    detect_regime,
    expected_hh_oracle,
    hh_report,
    quotient_strand_acyclicity,
    strand_homology,
)
from hochhom.koszul import (
    ChainElement,
    _compositions,
    enumerate_strand,
    is_in_C,
)
from hochhom.linalg import (
    SparseMatrix,
    complex_homology,
    rank_kernel,
    subquotient_dim,
)
from hochhom.scalar import AlgebraSpec, CyclotomicModel, CyclotomicScalar, RationalModel
from test_koszul import cyclotomic_specs, signed_rational_specs, strand_matrices

GOLDEN = Path(__file__).with_name("golden")


def weyl_spec():
    return AlgebraSpec(1, 1, RationalModel([[Fraction(1)]]))


def mixed_rational_spec():
    return AlgebraSpec(
        2, 1, RationalModel([[Fraction(1), Fraction(1, 2)], [Fraction(2), Fraction(1)]])
    )


def mixed_root_spec(order):
    return AlgebraSpec(2, 1, CyclotomicModel(order, [[0, -1], [1, 0]]))


def quantum_plane_spec():
    return AlgebraSpec(
        2, 0, RationalModel([[Fraction(1), Fraction(1, 2)], [Fraction(2), Fraction(1)]])
    )


def test_weyl_homology_single_class():
    report = hh_report(weyl_spec(), -2, 3)
    assert report.nonzero_entries() == [(-2, 2, 1)]
    rep = report.strands[-2].representatives[2]
    assert len(rep) == 1
    assert str(rep[0]) == "1*1 (x) x1^y1"


def test_strand_homology_zero_weight_weyl():
    strand = strand_homology(weyl_spec(), 0)
    assert all(d == 0 for d in strand.dimensions.values())


def test_regime_detection():
    assert detect_regime(weyl_spec()) == "semiclassical"
    assert detect_regime(mixed_rational_spec()) == "free"
    assert detect_regime(mixed_root_spec(3)) == "mixed-minimal-root"


def test_free_case_matches_oracle():
    spec = mixed_rational_spec()
    report = hh_report(spec, -2, 3, representatives=False)
    for w in range(-2, 4):
        expected = expected_hh_oracle(spec, w)
        assert expected is not None
        for k in range(4):
            assert report.dimension(w, k) == expected.get(k, 0), (w, k)


def test_quantum_plane_matches_oracle():
    spec = quantum_plane_spec()
    report = hh_report(spec, 0, 3, representatives=False)
    for w in range(0, 4):
        expected = expected_hh_oracle(spec, w)
        for k in range(3):
            assert report.dimension(w, k) == expected.get(k, 0), (w, k)


@pytest.mark.parametrize("order", [2, 3])
def test_mixed_root_matches_oracle(order):
    spec = mixed_root_spec(order)
    report = hh_report(spec, -2, 4, representatives=False)
    for w in range(-2, 5):
        expected = expected_hh_oracle(spec, w)
        for k in range(4):
            assert report.dimension(w, k) == expected.get(k, 0), (w, k)


def test_oracle_none_for_unsupported():
    # root-of-unity semiclassical entries but n > 2 blocks the minimal form
    spec = AlgebraSpec(
        2,
        1,
        RationalModel([[Fraction(1), Fraction(-1)], [Fraction(-1), Fraction(1)]]),
    )
    if detect_regime(spec) == "unsupported":
        assert expected_hh_oracle(spec, 0) is None


def test_report_clamps_weight_floor():
    report = hh_report(weyl_spec(), -10, -2)
    assert report.w_min == -2


def test_quotient_acyclicity_small_strands():
    spec = mixed_root_spec(2)
    checked = 0
    for total in range(1, 5):
        for rho in _compositions(total, 3):
            if is_in_C(spec, rho):
                continue
            result = quotient_strand_acyclicity(spec, rho)
            assert result.passed, rho
            checked += 1
    assert checked > 0


def test_quotient_acyclicity_rejects_C_strand():
    spec = mixed_root_spec(2)
    assert is_in_C(spec, (0, 0, 2))
    with pytest.raises(RhoInC):
        quotient_strand_acyclicity(spec, (0, 0, 2))


def _reference_dimensions(spec, strand):
    """dim H_k as span(kernel of d_k) / span(columns of d_{k+1})."""
    m = spec.num_generators
    matrices = strand_matrices(strand)
    dims = {}
    for k in range(m + 1):
        d_k = matrices.get(k, SparseMatrix(0, len(strand.generators[k])))
        _, cycles = rank_kernel(d_k, one=spec.one())
        boundaries = []
        if k + 1 <= m:
            columns = {}
            for (i, j), v in matrices[k + 1].entries.items():
                columns.setdefault(j, {})[i] = v
            boundaries = list(columns.values())
        dims[k] = subquotient_dim(cycles, boundaries)[0]
    return dims


@pytest.mark.parametrize(
    "config,w_min,w_max",
    [("weyl(2)", -4, 4), ("mixed-minimal(3)", -3, 8), ("semiclassical(2,4,1)", -4, 4)],
)
def test_rank_dimensions_match_kernel_reference(config, w_min, w_max):
    spec = load_config(config)
    for w in range(w_min, w_max + 1):
        strand = enumerate_strand(spec, w)
        got = strand_homology(spec, w, representatives=False).dimensions
        assert got == _reference_dimensions(spec, strand), w


def _euler(dims):
    return sum((-1) ** k * d for k, d in dims.items())


@pytest.mark.parametrize(
    "config,w_min,w_max",
    [("weyl(2)", -4, 4), ("mixed-minimal(3)", -3, 8), ("semiclassical(2,4,1)", -4, 4)],
)
def test_euler_characteristic_per_block_and_per_strand(config, w_min, w_max):
    spec = load_config(config)
    m = spec.num_generators
    for w in range(w_min, w_max + 1):
        strand = enumerate_strand(spec, w)
        total = dict.fromkeys(range(m + 1), 0)
        for block in strand.blocks:
            dims, _ = complex_homology(block.matrices, spec.one())
            chain = {k: len(basis) for k, basis in block.basis.items()}
            assert _euler(dims) == _euler(chain), (w, block.key)
            for k, d in dims.items():
                total[k] += d
        got = homology.homology_of_strand(spec, strand, representatives=False)
        assert got.dimensions == total, w
        assert _euler(got.dimensions) == _euler(strand.chain_dimensions), w


# On free(3,0) the classes of one (w, k) come from up to three blocks, so the
# merge order is exercised.
@pytest.mark.parametrize(
    "config,w_min,w_max",
    [("mixed-minimal(3)", -3, 8), ("semiclassical(2,4,1)", -4, 4), ("free(3,0)", -1, 3)],
)
def test_block_representatives_match_whole_strand_elimination(config, w_min, w_max):
    spec = load_config(config)
    m = spec.num_generators
    for w in range(w_min, w_max + 1):
        strand = enumerate_strand(spec, w)
        dims, reps = complex_homology(strand_matrices(strand), spec.one(), representatives=range(m + 1))
        got = homology.homology_of_strand(spec, strand)
        assert got.dimensions == dims, w
        for k in range(m + 1):
            whole = [
                ChainElement(spec, {strand.generators[k][j]: c for j, c in vec.items()})
                for vec in reps[k]
            ]
            assert got.representatives[k] == whole, (w, k)


def test_quotient_acyclicity_reports_failing_degree_and_witness(monkeypatch):
    # With a zero differential the degree-0 generator x^rho (x) 1 is a cycle
    # that bounds nothing.
    spec = mixed_root_spec(2)
    rho = (1, 0, 1)
    assert not is_in_C(spec, rho)
    monkeypatch.setattr(homology, "_symmetric", lambda spec, mono, wedge: iter(()))
    result = quotient_strand_acyclicity(spec, rho)
    assert not result.passed
    assert result.failing_degree == 0
    assert result.witness == ChainElement.single(spec, (rho, (0, 0, 0)))


def test_strand_builds_no_scalar_per_matrix_entry(monkeypatch):
    # Block entries are integer rows: a scalar is built at most once per
    # lambda-character met, never once per entry.
    spec = load_config("weyl(3)")
    characters, built = set(), []
    lowering, init = koszul._lowering, CyclotomicScalar.__init__

    def recorded(spec, mono, wedge):
        for image, char, c in lowering(spec, mono, wedge):
            characters.add(char)
            yield image, char, c

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(koszul, "_lowering", recorded)
    monkeypatch.setattr(CyclotomicScalar, "__init__", counted)
    strand = enumerate_strand(spec, -1)
    homology.homology_of_strand(spec, strand, representatives=False)
    assert sum(strand.chain_dimensions.values()) == 2364
    assert characters and len(built) <= len(characters)


# ---------------------------------------------------------------------------
# The block lemma: the count against elimination.
# ---------------------------------------------------------------------------


def assert_blocks_match_their_count(spec, w_max):
    """Every block of every strand w in [-(n+r), w_max] compared by ``verify_blocks``
    with the block lemma and the binomial chain dimensions; each strand's count
    (dimensions and representatives) with the elimination of the whole strand."""
    _, failures = verify_blocks(spec, w_max)
    assert not failures
    for w in range(-spec.num_generators, w_max + 1):
        counted = strand_homology(spec, w)
        eliminated = homology.homology_of_strand(spec, enumerate_strand(spec, w))
        assert counted == eliminated, w


@settings(max_examples=50, deadline=None)
@given(
    spec=st.one_of(signed_rational_specs(), cyclotomic_specs()).filter(
        lambda spec: spec.num_generators <= 5
    )
)
def test_block_count_matches_elimination_on_random_parameters(spec):
    assert_blocks_match_their_count(spec, 4)


# The signed config is the only one here with blocks of several classes
# (at w = 0 and w = 4), so it pins their order.
@pytest.mark.parametrize(
    "config,w_max",
    [("weyl(3)", 0), ("mixed-minimal(12)", 26), ("semiclassical(2,12,5)", 12),
     ("free(3,1)", 4), ("free(3,0)", 4), ("mixed-minimal(2)", 10),
     pytest.param(str(GOLDEN / "hh-signed-rational-3-1.json"), 4, id="signed-rational-3-1")],
)
def test_block_count_matches_elimination_on_presets(config, w_max):
    assert_blocks_match_their_count(load_config(config), w_max)


def test_dimensions_build_no_block(monkeypatch, capsys):
    # hh, oracle and cohh read dimensions, and hh its representatives, off the
    # block lemma's closed form: no block matrix is built, and hh and oracle
    # eliminate nothing.
    def refuse(*args, **kwargs):
        raise AssertionError("a block was built or eliminated")

    for module in (koszul, cli):
        monkeypatch.setattr(module, "strand_block", refuse)
    assert run(["cohh", "--config", "semiclassical(2,4,1)", "--trunc", "3"]) == 0
    for module in (linalg, homology, cli):
        monkeypatch.setattr(module, "homology_picks", refuse)
    assert run(["hh", "--config", "weyl(3)", "--wmin", "-6", "--wmax", "6"]) == 0
    assert run(["oracle", "--config", "free(3,1)", "--wmin", "-4", "--wmax", "6"]) == 0
    capsys.readouterr()
    argv = ["hh", "--config", "weyl(3)", "--wmin", "-6", "--wmax", "2", "--representatives",
            "--format", "json"]
    assert run(argv) == 0
    entries = json.loads(capsys.readouterr().out)["entries"]
    assert entries == [
        {"w": -6, "k": 6, "dim": 1, "representatives": ["1*1 (x) x1^x2^x3^y1^y2^y3"]}
    ]


def _shifted(classes):
    """The closed form one degree up."""
    return {k + 1: found for k, found in classes.items()}


def _one_wedge_changed(classes):
    """The closed form with the wedge of its first class that a rotation moves rotated."""
    for found in classes.values():
        for j, (mono, wedge) in enumerate(found):
            if len(set(wedge)) > 1:
                found[j] = (mono, wedge[1:] + wedge[:1])
                return classes
    return classes


@pytest.mark.parametrize(
    "mutate,message",
    [(_shifted, "count"), (_one_wedge_changed, "closed form")],
    ids=["shifted", "wedge-changed"],
)
def test_verify_blocks_reports_a_wrong_closed_form(monkeypatch, mutate, message):
    # Elimination checks both the dimensions and the classes of each block.
    spec = load_config("mixed-minimal(3)")
    assert verify_blocks(spec, 6)[1] == []
    closed_form = koszul.block_homology
    monkeypatch.setattr(cli, "block_homology", lambda *args: mutate(closed_form(*args)))
    _, failures = verify_blocks(spec, 6)
    assert failures and all(message in f for f in failures)
