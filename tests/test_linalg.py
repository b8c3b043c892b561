"""Exact sparse linear algebra against a dense sympy oracle."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hochhom import linalg
from hochhom.cli import load_config
from hochhom.errors import ComplexBroken, NotASubspace
from hochhom.homology import homology_of_strand
from hochhom.koszul import enumerate_strand
from hochhom.linalg import (
    SparseMatrix,
    _eliminate,
    _pick_cosets,
    _rank_mod_p,
    _reduce_against,
    _rows,
    complex_homology,
    homology_picks,
    rank_kernel,
    span_rank,
    subquotient_dim,
)
from hochhom.scalar import QQ, CyclotomicField

P = QQ.residue_map[0]


def scalar_matrix(basis, image, rows=None):
    """The reference builder: column j sums the (row key, scalar) pairs of image(basis[j]).

    Row keys are numbered as they first appear unless ``rows`` lists them, and
    entries are stored column by column in image order.
    """
    row_of = {key: i for i, key in enumerate(rows or ())}
    entries = {}
    for j, b in enumerate(basis):
        for key, coeff in image(b):
            if rows is None:
                row_of.setdefault(key, len(row_of))
            at = (row_of[key], j)
            entries[at] = entries[at] + coeff if at in entries else coeff
    return SparseMatrix(len(row_of), len(basis), entries)


def _sparse_from_lists(rows):
    entries = {}
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v:
                entries[(i, j)] = QQ.from_rational(Fraction(v))
    return SparseMatrix(len(rows), len(rows[0]) if rows else 0, entries)


def _apply(matrix, vec):
    """The product of a matrix with a vector mapping column index to scalar, zeros dropped."""
    out = {}
    for (i, j), v in matrix.entries.items():
        if j in vec:
            c = v * vec[j]
            out[i] = out[i] + c if i in out else c
    return {i: c for i, c in out.items() if not c.is_zero()}


def _random_rows(rng, nrows, ncols, density=0.5):
    return [
        [rng.choice([-2, -1, 1, 2, 3]) if rng.random() < density else 0 for _ in range(ncols)]
        for _ in range(nrows)
    ]


def test_rank_kernel_small_example():
    m = _sparse_from_lists([[1, 2], [2, 4]])
    rank, kernel = rank_kernel(m)
    assert rank == 1
    assert len(kernel) == 1
    vec = kernel[0]
    # kernel vector must satisfy the equations exactly
    assert vec.get(0, QQ.zero) * 1 + vec.get(1, QQ.zero) * 2 == 0


@pytest.mark.parametrize("seed", range(8))
def test_rank_matches_sympy(seed):
    rng = random.Random(seed)
    rows = _random_rows(rng, rng.randint(1, 7), rng.randint(1, 7))
    ours, kernel = rank_kernel(_sparse_from_lists(rows))
    theirs = sympy.Matrix(rows).rank()
    assert ours == theirs
    assert len(kernel) == len(rows[0]) - theirs


@pytest.mark.parametrize("seed", range(8))
def test_kernel_vectors_annihilated(seed):
    rng = random.Random(100 + seed)
    rows = _random_rows(rng, rng.randint(1, 6), rng.randint(1, 6))
    matrix = _sparse_from_lists(rows)
    _, kernel = rank_kernel(matrix)
    for vec in kernel:
        assert not _apply(matrix, vec)


def test_span_rank_matches_sympy():
    rng = random.Random(5)
    for _ in range(6):
        rows = _random_rows(rng, rng.randint(1, 6), 5)
        vectors = [
            {j: QQ.from_rational(Fraction(v)) for j, v in enumerate(row) if v} for row in rows
        ]
        assert span_rank(vectors) == sympy.Matrix(rows).rank()


def test_subquotient_dim_exact():
    # cycles = span{e0, e1, e2}, boundaries = span{e0 + e1} -> dim 2
    one = QQ.from_rational(1)
    cycles = [{0: one}, {1: one}, {2: one}]
    boundaries = [{0: one, 1: one}]
    dim, reps = subquotient_dim(cycles, boundaries)
    assert dim == 2
    assert len(reps) == 2


def test_subquotient_rejects_non_subspace():
    one = QQ.from_rational(1)
    cycles = [{0: one}]
    boundaries = [{1: one}]
    with pytest.raises(NotASubspace):
        subquotient_dim(cycles, boundaries)


def test_subquotient_matches_sympy_quotient():
    rng = random.Random(11)
    for _ in range(6):
        ncols = 6
        cycle_rows = _random_rows(rng, 4, ncols)
        # boundaries: random combinations of the cycles, so containment holds
        combo = _random_rows(rng, 3, 4)
        boundary_rows = [
            [
                sum(c * cycle_rows[k][j] for k, c in enumerate(row))
                for j in range(ncols)
            ]
            for row in combo
        ]
        cycles = [
            {j: QQ.from_rational(Fraction(v)) for j, v in enumerate(r) if v} for r in cycle_rows
        ]
        boundaries = [
            {j: QQ.from_rational(Fraction(v)) for j, v in enumerate(r) if v}
            for r in boundary_rows
        ]
        boundaries = [b for b in boundaries if b]
        dim, reps = subquotient_dim(cycles, boundaries)
        expected = sympy.Matrix(cycle_rows).rank() - sympy.Matrix(
            boundary_rows if boundary_rows else [[0] * ncols]
        ).rank()
        assert dim == expected
        assert len(reps) == dim


def test_compose_and_transpose():
    a = _sparse_from_lists([[1, 0], [2, 1]])
    b = _sparse_from_lists([[1, 1], [0, 3]])
    ab = a.compose(b)
    assert ab.entries[(0, 0)] == 1
    assert ab.entries[(1, 1)] == 5
    t = a.transpose()
    assert t.entries[(0, 1)] == 2


def _reference_compose(a, b):
    """a * b by one scalar multiply and add per pair of entries, zeros dropped."""
    out = {}
    by_row = _rows(b)
    for (i, k), v in a.entries.items():
        for j, w in by_row.get(k, {}).items():
            c = v * w
            out[(i, j)] = out[(i, j)] + c if (i, j) in out else c
    return [(at, v) for at, v in out.items() if not v.is_zero()]


# One matrix cell: a density draw, phi <= 4 numerators and a denominator.
_CELL = st.tuples(
    st.integers(min_value=0, max_value=9),
    st.lists(st.integers(min_value=-6, max_value=6), min_size=4, max_size=4),
    st.integers(min_value=1, max_value=9),
)


@st.composite
def _cancelling_products(draw):
    """Matrices a = [x | c x] and b = [y ; e - y / c] over Q(zeta_m), m in {1, 4, 12}.

    Every entry of a b = c x e sums contributions that cancel, and it is zero
    wherever x e is; entries carry random denominators.
    """
    field = CyclotomicField(draw(st.sampled_from([1, 4, 12])))
    sizes = st.lists(st.integers(min_value=1, max_value=4), min_size=3, max_size=3)
    rows, inner, cols = draw(sizes)

    def matrix(nrows, ncols, density):
        cells = draw(st.lists(_CELL, min_size=nrows * ncols, max_size=nrows * ncols))
        values = [
            field.element([Fraction(c, den) for c in nums[: field.degree]]) if dense < density
            else field.zero
            for dense, nums, den in cells
        ]
        return [values[i * ncols : (i + 1) * ncols] for i in range(nrows)]

    x, y, e = matrix(rows, inner, 7), matrix(inner, cols, 7), matrix(inner, cols, 2)
    c = matrix(1, 1, 10)[0][0]
    if c.is_zero():
        c = field.one
    left = [row + [c * v for v in row] for row in x]
    inverse = c.inv()
    right = y + [[f - v * inverse for f, v in zip(fs, vs)] for fs, vs in zip(e, y)]

    def sparse(rows):
        entries = {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row)}
        return SparseMatrix(len(rows), len(rows[0]), entries)

    return sparse(left), sparse(right)


@settings(max_examples=200, deadline=None)
@given(case=_cancelling_products())
def test_compose_matches_scalar_product(case):
    a, b = case
    for left, right in ((a, b), (b.transpose(), a.transpose())):
        got = left.compose(right)
        assert (got.rows, got.cols) == (left.rows, right.cols)
        assert [(at, v.nums, v.den) for at, v in got.entries.items()] == [
            (at, v.nums, v.den) for at, v in _reference_compose(left, right)
        ]


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=4, max_size=4),
        min_size=1,
        max_size=6,
    )
)
def test_rank_property_random(data):
    ours, kernel = rank_kernel(_sparse_from_lists(data))
    assert ours == sympy.Matrix(data).rank()
    assert ours + len(kernel) == 4


def _greedy_subquotient(cycles, boundaries):
    """Representative selection by a full re-elimination per candidate cycle."""
    reduced_b = _eliminate(boundaries)
    basis = [r for _, r in reduced_b]
    reps = []
    for v in cycles:
        trial = _eliminate(basis + [v])
        if len(trial) > len(basis):
            reps.append(_reduce_against(v, reduced_b))
            basis = [r for _, r in trial]
    return reps


@pytest.mark.parametrize("seed", range(12))
def test_subquotient_representatives_match_greedy_reference(seed):
    rng = random.Random(300 + seed)
    ncols = rng.randint(2, 7)
    cycle_rows = _random_rows(rng, rng.randint(1, 6), ncols)
    combo = _random_rows(rng, rng.randint(0, 4), len(cycle_rows))
    boundary_rows = [
        [sum(c * cycle_rows[k][j] for k, c in enumerate(row)) for j in range(ncols)]
        for row in combo
    ]

    def vectors(rows):
        out = [{j: QQ.from_rational(Fraction(v)) for j, v in enumerate(r) if v} for r in rows]
        return [v for v in out if v]

    cycles, boundaries = vectors(cycle_rows), vectors(boundary_rows)
    dim, reps = subquotient_dim(cycles, boundaries)
    assert reps == _greedy_subquotient(cycles, boundaries)
    assert dim == len(reps) == span_rank(cycles) - span_rank(boundaries)


def test_complex_with_nonzero_square_is_broken():
    d1 = _sparse_from_lists([[1, 0]])
    d2 = _sparse_from_lists([[1], [1]])
    with pytest.raises(ComplexBroken):
        complex_homology({1: d1, 2: d2}, QQ.from_rational(1))


def _exact_only_complexes():
    """(d_1, d_2) over Q and Q(zeta_4) whose product vanishes only exactly.

    Over Q, 1/2 * 1/3 - 1/3 * 1/2 cancels only over a common denominator;
    over Q(zeta_4), zeta * zeta + 1 * 1 cancels only modulo Phi_4.
    """
    half, third = QQ.from_rational(Fraction(1, 2)), QQ.from_rational(Fraction(1, 3))
    field = CyclotomicField(4)
    zeta = field.zeta_power(1)
    return [([half, third], [third, -half]), ([zeta, field.one], [zeta, field.one])]


@pytest.mark.parametrize("row,column", _exact_only_complexes(), ids=["Q", "Q(zeta_4)"])
def test_d_squared_is_checked_exactly(row, column):
    one = row[0].field.one

    def complex_of(row, column):
        d1 = SparseMatrix(1, 2, {(0, j): v for j, v in enumerate(row)})
        d2 = SparseMatrix(2, 1, {(i, 0): v for i, v in enumerate(column)})
        return {1: d1, 2: d2}

    dims, _ = homology_picks(complex_of(row, column), one)
    assert dims == {0: 0, 1: 0, 2: 0}
    for t in range(2):
        shifted_row = [v + one if j == t else v for j, v in enumerate(row)]
        shifted_column = [v + one if i == t else v for i, v in enumerate(column)]
        for broken in (complex_of(shifted_row, column), complex_of(row, shifted_column)):
            with pytest.raises(ComplexBroken):
                homology_picks(broken, one)


def test_non_exact_complex_reports_degree_and_witness():
    # C_2 = Q --(e0)--> C_1 = Q^3 --(third coordinate)--> C_0 = Q: H_1 is
    # spanned by the class of e1.
    d1 = _sparse_from_lists([[0, 0, 1]])
    d2 = _sparse_from_lists([[1], [0], [0]])
    one = QQ.from_rational(1)
    dims, reps = complex_homology({1: d1, 2: d2}, one)
    assert dims == {0: 0, 1: 1, 2: 0}
    assert reps == {}
    failing = min(k for k, dim in dims.items() if dim)
    _, reps = complex_homology({1: d1, 2: d2}, one, representatives=[failing])
    (witness,) = reps[failing]
    assert not _apply(d1, witness)
    boundaries = [{0: one}]
    assert span_rank(boundaries + [witness]) == span_rank(boundaries) + 1


# ---------------------------------------------------------------------------
# Certified modular ranks.
# ---------------------------------------------------------------------------


def _count_calls(monkeypatch, name):
    """Record the matrix or vectors of every call to linalg.<name>."""
    calls = []
    fn = getattr(linalg, name)

    def counted(first, *args, **kwargs):
        calls.append(first)
        return fn(first, *args, **kwargs)

    monkeypatch.setattr(linalg, name, counted)
    return calls


def _residue_rank(matrix):
    """Reference: the rank over GF(p) of field.residue of every entry, None if one is undefined."""
    field = next(iter(matrix.entries.values())).field
    p = field.residue_map[0]
    rows = [[0] * matrix.cols for _ in range(matrix.rows)]
    for (i, j), v in matrix.entries.items():
        rows[i][j] = field.residue(v)
        if rows[i][j] is None:
            return None
    rank = 0
    for j in range(matrix.cols):
        pivot = next((i for i in range(rank, matrix.rows) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][j], -1, p)
        for i in range(rank + 1, matrix.rows):
            factor = rows[i][j] * inv
            rows[i] = [(a - factor * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@st.composite
def _residue_matrices(draw):
    """Matrices over Q with denominators, Q(zeta_4) and Q(zeta_12), entries near p."""
    field = draw(st.sampled_from([QQ, CyclotomicField(4), CyclotomicField(12)]))
    p = field.residue_map[0]
    zeta = field.zeta_power(1)
    pool = [field.from_rational(c) for c in (1, -1, 2, p, p + 1, Fraction(1, 3), Fraction(-5, 6))]
    pool += [field.from_rational(Fraction(1, p)), zeta, zeta + 1, zeta * Fraction(2, 3)]
    pool += [zeta - field.residue(zeta), field.zeta_power(5) * 7]
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    cells = draw(st.lists(st.sampled_from([None] * 4 + pool), min_size=rows * cols, max_size=rows * cols))
    entries = {(t // cols, t % cols): v for t, v in enumerate(cells) if v is not None}
    return SparseMatrix(rows, cols, entries)


@settings(max_examples=300, deadline=None)
@given(matrix=_residue_matrices())
def test_rank_mod_p_on_integer_rows_matches_entry_residues(matrix):
    if matrix.is_zero():
        assert _rank_mod_p(matrix) == 0
    else:
        assert _rank_mod_p(matrix) == _residue_rank(matrix)


def test_rank_drop_mod_p_falls_back_to_exact_rank(monkeypatch):
    # det = p: rank 2 over Q, rank 1 mod p, and no neighbour certifies it.
    d1 = _sparse_from_lists([[1, 1], [1, 1 + P]])
    assert _rank_mod_p(d1) == 1
    fallbacks = _count_calls(monkeypatch, "span_rank")
    dims, _ = complex_homology({1: d1}, QQ.one)
    assert dims == {0: 0, 1: 0}
    assert len(fallbacks) == 1


def test_denominator_divisible_by_p_falls_back_to_exact_rank(monkeypatch):
    d1 = _sparse_from_lists([[Fraction(1, P), 1], [0, 1]])
    assert _rank_mod_p(d1) is None
    fallbacks = _count_calls(monkeypatch, "span_rank")
    dims, _ = complex_homology({1: d1}, QQ.one)
    assert dims == {0: 0, 1: 0}
    assert len(fallbacks) == 1


def test_exact_degree_certifies_both_of_its_maps(monkeypatch):
    # Q^2 --d2--> Q^2 --d1--> Q^2, each map of rank 1, so only degree 1 is
    # exact: it alone certifies d2 (rank < min(rows, cols), degree 2 not
    # exact) and d1 (rank < min(rows, cols), degree 0 not exact).
    d1 = _sparse_from_lists([[1, -1], [1, -1]])
    d2 = _sparse_from_lists([[1, 1], [1, 1]])
    fallbacks = _count_calls(monkeypatch, "span_rank")
    dims, _ = complex_homology({1: d1, 2: d2}, QQ.one)
    assert dims == {0: 1, 1: 0, 2: 1}
    assert fallbacks == []
    kernels = _count_calls(monkeypatch, "rank_kernel")
    _, reps = complex_homology({1: d1, 2: d2}, QQ.one, representatives=range(3))
    assert kernels == [SparseMatrix(0, 2), d2]
    assert reps[1] == [] and len(reps[0]) == len(reps[2]) == 1


def _exact_homology_picks(differentials, one, representatives):
    """Reference: exact rank, kernel and coset sweep in every degree."""
    low = min(differentials) - 1
    d = {low: SparseMatrix(0, differentials[low + 1].rows), **differentials}
    ranks, kernels = {}, {}
    for k, matrix in d.items():
        ranks[k], kernels[k] = rank_kernel(matrix, one=one)
    dims = {k: d[k].cols - ranks[k] - ranks.get(k + 1, 0) for k in sorted(d)}
    picks = {}
    for k in d:
        if k in representatives:
            columns = sorted(_rows(d[k + 1].transpose()).items()) if k + 1 in d else []
            picks[k] = [
                (next(iter(kernels[k][index])), rep)
                for index, rep in _pick_cosets(kernels[k], [col for _, col in columns])
            ]
    return dims, picks


def _random_complex(draw, field):
    """A complex with d d = 0: the columns of each map combine the kernel vectors of the last.

    Entries are drawn from a pool holding p, 1 + p, 1/p and zeta - g for the
    field's residue prime p and image g of zeta, so ranks often drop mod p
    and denominators are often divisible by p.
    """
    p = field.residue_map[0]
    zeta = field.zeta_power(1)
    pool = [field.from_rational(c) for c in (0, 1, -1, 2, p, p + 1, Fraction(1, p))]
    pool += [zeta, zeta + 1, zeta * p, zeta - field.residue(zeta)]
    entry = st.sampled_from(pool)
    sizes = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=2, max_size=5))

    def column(kernel):
        out = {}
        for vec in kernel:
            c = draw(entry)
            for i, v in vec.items():
                out[i] = out.get(i, field.zero) + c * v
        return out

    d = {}
    kernel = [{i: field.one} for i in range(sizes[0])]
    for k in range(1, len(sizes)):
        columns = [column(kernel) for _ in range(sizes[k])]
        entries = {(i, j): v for j, col in enumerate(columns) for i, v in col.items()}
        d[k] = SparseMatrix(sizes[k - 1], sizes[k], entries)
        _, kernel = rank_kernel(d[k], one=field.one)
    return d


@settings(max_examples=150, deadline=None)
@given(data=st.data(), order=st.sampled_from([1, 4]))
def test_certified_homology_matches_exact_reference(data, order):
    field = QQ if order == 1 else CyclotomicField(order)
    d = _random_complex(data.draw, field)
    degrees = range(min(d) - 1, max(d) + 1)
    assert homology_picks(d, field.one, degrees) == _exact_homology_picks(d, field.one, degrees)
    assert homology_picks(d, field.one)[0] == _exact_homology_picks(d, field.one, ())[0]


def test_kernels_only_where_homology_survives(monkeypatch):
    spec = load_config("mixed-minimal(12)")
    strand = enumerate_strand(spec, 2)
    expected = [
        block.matrices[k] if k in block.matrices else SparseMatrix(0, len(block.basis[k]))
        for block in strand.blocks
        for k, dim in complex_homology(block.matrices, spec.one())[0].items()
        if dim
    ]
    kernels = _count_calls(monkeypatch, "rank_kernel")
    homology_of_strand(spec, strand)
    assert kernels == expected
    assert 0 < len(kernels) < sum(len(block.basis) for block in strand.blocks)


# ---------------------------------------------------------------------------
# Elimination per connected component.
# ---------------------------------------------------------------------------


@st.composite
def _block_diagonal(draw):
    """(rows, blocks): a block-diagonal matrix's rows and, per block, its (row, column) indices.

    The blocks' rows and columns are interleaved by random permutations, and
    entries are rational (with denominators) or in Q(zeta_4) or Q(zeta_12).
    """
    field = draw(st.sampled_from([QQ, CyclotomicField(4), CyclotomicField(12)]))
    zeta = field.zeta_power(1)
    pool = [field.from_rational(c) for c in (1, -1, 2, Fraction(1, 3), Fraction(-5, 6))]
    pool += [zeta, zeta + 1, zeta * Fraction(2, 3)]
    shapes = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=4))
    row_at = draw(st.permutations(range(sum(r for r, _ in shapes))))
    col_at = draw(st.permutations(range(sum(c for _, c in shapes))))
    rows = [{} for _ in row_at]
    blocks, r0, c0 = [], 0, 0
    for nrows, ncols in shapes:
        block_rows, block_cols = row_at[r0 : r0 + nrows], col_at[c0 : c0 + ncols]
        cells = draw(st.lists(st.sampled_from([None] * 3 + pool), min_size=nrows * ncols,
                              max_size=nrows * ncols))
        for t, v in enumerate(cells):
            if v is not None:
                rows[block_rows[t // ncols]][block_cols[t % ncols]] = v
        blocks.append((block_rows, sorted(block_cols)))
        r0, c0 = r0 + nrows, c0 + ncols
    return field, rows, blocks


def _restrict(rows, block_rows, block_cols):
    """The block as its own matrix, rows in global order and columns renumbered in order."""
    local = {j: t for t, j in enumerate(block_cols)}
    chosen = [rows[i] for i in sorted(block_rows)]
    entries = {(t, local[j]): v for t, r in enumerate(chosen) for j, v in r.items()}
    return SparseMatrix(len(chosen), len(block_cols), entries), chosen


@settings(max_examples=200, deadline=None)
@given(case=_block_diagonal())
def test_elimination_per_component_matches_the_blocks_alone(case):
    field, rows, blocks = case
    # One run of the Markowitz loop over every row is the whole-matrix elimination.
    nonzero = [(i, dict(r)) for i, r in enumerate(rows) if r]
    whole, _ = linalg._markowitz([i for i, _ in nonzero], [r for _, r in nonzero])
    assert [(pj, list(r.items())) for pj, r in _eliminate(rows)] == [
        (pj, list(r.items())) for pj, r in whole
    ]
    ncols = sum(len(cols) for _, cols in blocks)
    matrix = SparseMatrix(
        len(rows), ncols, {(i, j): v for i, r in enumerate(rows) for j, v in r.items()}
    )
    rank, kernel = rank_kernel(matrix, one=field.one)
    by_free_column = {next(iter(vec)): vec for vec in kernel}
    assert list(by_free_column) == sorted(by_free_column)
    total = 0
    cycles, boundaries, expected_picks = [], [], []
    for block_rows, block_cols in blocks:
        block, chosen = _restrict(rows, block_rows, block_cols)
        block_rank, block_kernel = rank_kernel(block, one=field.one)
        total += block_rank
        # Kernel values and key order, column by column.
        for vec in block_kernel:
            glob = [(block_cols[j], v) for j, v in vec.items()]
            assert list(by_free_column.pop(glob[0][0]).items()) == glob
        # Cosets of the block's kernel modulo its first kernel vector.
        block_boundaries = block_kernel[:1]
        base = len(cycles)
        picks = _pick_cosets(block_kernel, block_boundaries)
        expected_picks += [
            (base + index, [(block_cols[j], v) for j, v in rep.items()]) for index, rep in picks
        ]
        cycles += [{block_cols[j]: v for j, v in vec.items()} for vec in block_kernel]
        boundaries += [{block_cols[j]: v for j, v in vec.items()} for vec in block_boundaries]
    assert rank == total and not by_free_column
    got = _pick_cosets(cycles, boundaries)
    assert [(index, list(rep.items())) for index, rep in got] == expected_picks
