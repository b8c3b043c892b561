"""Exact sparse linear algebra over the coefficient field.

All matrices and vectors hold exact scalars of one field Q(zeta_m), the
rationals being Q(zeta_1).  A matrix stores integer rows: each row is a set
of integer coordinate vectors over one denominator.  ``matrix_of`` builds
every matrix from (key, lambda~-character, int) triples, summing the ints
per character and reading each character's cached value, so building,
products and modular ranks run on integers, and scalars are built only
where elimination needs them.  Rank, kernel and subquotient computations are ordinary Gaussian
elimination with a fill-minimizing pivot heuristic.  Exactness makes the
pivot order a pure performance choice, except that it fixes which coset
representatives are reported.

Elimination runs per connected component (rows linked by shared columns),
as the pivot search rescans every pending entry.  A step and its fill counts
involve one group only, so each group alone takes the pivots it takes in
one whole elimination, which picks the least (count, row index) among the
groups' next ones: that order is a stable sort by each pivot's running
maximum key in its group.  So echelon rows, kernels (with their key order)
and representatives are unchanged.

Homology ranks are certified modular ranks.  ``homology_picks`` checks
d_{k-1} d_k = 0 exactly, as a product of integer rows
(``SparseMatrix.compose``), then ranks every d_k over GF(p) for the field's
prime p (``CyclotomicField.residue_map``).  A rank can only drop mod p, and
d d = 0 gives rank d_k + rank d_{k+1} <= dim C_k, so a degree where the
modular ranks sum to dim C_k certifies both, as rank_p = min(rows, cols)
certifies one map.  The other ranks fall back to exact elimination, one
per matrix, and kernels and representatives are computed only where they
are asked for and homology survives.
"""
from __future__ import annotations

from math import gcd, lcm
from operator import mul
from typing import Callable, Collection, Hashable, Iterable, Optional, Sequence

from .errors import ComplexBroken, NotASubspace
from .scalar import QQ, CyclotomicField, Scalar, ScalarModel

Vector = dict[int, Scalar]


class SparseMatrix:
    """A rows x cols matrix storing only nonzero entries, as integer rows.

    Each nonzero row i has one denominator dens[i], the lcm of the reduced
    denominators of its entries, and ints[(i, j)] is entry (i, j) times
    dens[i]: an int when phi(m) = 1 and a tuple of phi(m) ints otherwise.
    The form is canonical, so equal matrices compare equal.  Entries keep the
    order they were given in, which fixes the pivot order of later
    eliminations; ``entries`` is their scalar view, built on each read.
    """

    __slots__ = ("rows", "cols", "field", "ints", "dens")

    def __init__(self, rows: int, cols: int, entries: Optional[dict[tuple[int, int], Scalar]] = None):
        entries = entries or {}
        field = next(iter(entries.values())).field if entries else QQ
        cells = {at: (v.nums[0] if field.degree == 1 else v.nums, v.den) for at, v in entries.items()}
        self._store(rows, cols, field, cells)

    @classmethod
    def from_cells(cls, rows: int, cols: int, field: CyclotomicField, cells: dict) -> "SparseMatrix":
        """The matrix of entries c / den for cells[(i, j)] = (c, den), with c an int
        when phi(m) = 1 and a sequence of phi(m) ints otherwise; builds no scalar."""
        matrix = cls.__new__(cls)
        matrix._store(rows, cols, field, cells)
        return matrix

    def _store(self, rows: int, cols: int, field: CyclotomicField, cells: dict) -> None:
        rational = field.degree == 1
        ints, dens, own = {}, {}, {}
        scaled = False
        for at, (c, den) in cells.items():
            assert 0 <= at[0] < rows and 0 <= at[1] < cols
            if not (c if rational else any(c)):
                continue
            g = 1 if den == 1 else gcd(c, den) if rational else gcd(den, *c)
            if g != 1:
                c, den = (c // g if rational else [x // g for x in c]), den // g
            if den != 1:
                own[at] = den
            ints[at] = c if rational else tuple(c)
            d = dens.setdefault(at[0], den)
            if d != den:
                scaled = True
                if d % den:
                    dens[at[0]] = lcm(d, den)
        # Clear each row to its denominator, when its entries' denominators differ.
        if scaled:
            for at, c in ints.items():
                scale = dens[at[0]] // own.get(at, 1)
                if scale != 1:
                    ints[at] = c * scale if rational else tuple(x * scale for x in c)
        self.rows, self.cols, self.field, self.ints, self.dens = rows, cols, field, ints, dens

    @property
    def entries(self) -> dict[tuple[int, int], Scalar]:
        """The nonzero entries as scalars, in storage order."""
        make, dens, rational = self.field._make, self.dens, self.field.degree == 1
        return {at: make([c] if rational else c, dens[at[0]]) for at, c in self.ints.items()}

    def __eq__(self, other):
        return isinstance(other, SparseMatrix) and (self.rows, self.cols, self.ints, self.dens) == (
            other.rows, other.cols, other.ints, other.dens
        ) and (not self.ints or self.field == other.field)

    def is_zero(self) -> bool:
        return not self.ints

    def transpose(self) -> "SparseMatrix":
        """The transpose, in the same entry order, built from the integer rows."""
        dens = self.dens
        cells = {(j, i): (c, dens[i]) for (i, j), c in self.ints.items()}
        return SparseMatrix.from_cells(self.cols, self.rows, self.field, cells)

    def compose(self, other: "SparseMatrix") -> "SparseMatrix":
        """The product self * other (apply other first), exactly, over integer rows.

        The rows of other are scaled to the lcm L of their denominators, so an
        entry of the product is a sum of integer coordinate vectors, each
        product reduced mod Phi_m, over the denominator of its row times L.
        Entries come in the order of the scalar product's first contributions,
        which fixes the pivot order of later eliminations.
        """
        assert self.cols == other.rows
        if not (self.ints and other.ints):
            return SparseMatrix(self.rows, other.cols)
        field = self.field
        # Over Q a coordinate vector is one integer, multiplied and added as such.
        rational = field.degree == 1
        common = lcm(*other.dens.values())
        by_row: dict[int, list] = {}
        for (k, j), b in other.ints.items():
            scale = common // other.dens[k]
            b = b * scale if rational else [(t, c * scale) for t, c in enumerate(b) if c]
            by_row.setdefault(k, []).append((j, b))
        sums: dict[tuple[int, int], list] = {}
        for (i, k), a in self.ints.items():
            if rational:
                for j, b in by_row.get(k, ()):
                    sums[(i, j)] = sums.get((i, j), 0) + a * b
                continue
            for j, b in by_row.get(k, ()):
                c = field._mul_nums(a, b)
                s = sums.get((i, j))
                if s is None:
                    sums[(i, j)] = c
                else:
                    for t, x in enumerate(c):
                        s[t] += x
        cells = {(i, j): (s, self.dens[i] * common) for (i, j), s in sums.items()}
        return SparseMatrix.from_cells(self.rows, other.cols, field, cells)


def _rows(matrix: SparseMatrix) -> dict[int, Vector]:
    """Nonzero rows by index, in order of first appearance among the entries."""
    rows: dict[int, Vector] = {}
    for (i, j), v in matrix.entries.items():
        rows.setdefault(i, {})[j] = v
    return rows


def cells_of(model: ScalarModel, triples: Iterable[tuple[Hashable, tuple[int, ...], int]]) -> dict:
    """The nonzero sums of (key, lambda~-character, int) triples, as key -> (c, den) in key order.

    The ints are summed per character, and the sum of int times the cached
    ``model.value(character)`` is one integer vector c (an int when phi(m) = 1) over den.
    """
    sums: dict = {}
    for key, char, k in triples:
        per = sums.setdefault(key, {})
        per[char] = per.get(char, 0) + k
    value, degree = model.value, model.field.degree
    cells = {}
    for key, per in sums.items():
        c, den = [0] * degree, 1
        for char, k in per.items():
            if k:
                v = value(char)
                if den % v.den:
                    scale = v.den // gcd(den, v.den)
                    c, den = [x * scale for x in c], den * scale
                k *= den // v.den
                c = [x + k * y for x, y in zip(c, v.nums)]
        if any(c):
            cells[key] = c[0] if degree == 1 else c, den
    return cells


def matrix_of(
    model: ScalarModel, basis: Sequence, image: Callable, check: Callable, rows: Optional[Sequence] = None
) -> tuple[SparseMatrix, list]:
    """The matrix whose column j sums the triples image(basis[j]) (``cells_of``), and its row keys.

    ``rows`` lists the row keys in order, and a nonzero cell outside them
    raises ComplexBroken; without it, the keys of nonzero cells are numbered
    as they first appear, each validated once by ``check``.  Cells are stored
    column by column in image order, which fixes the pivot order of later
    eliminations and so the representatives.
    """
    row_of = {key: i for i, key in enumerate(rows or ())}
    cells = {}
    for j, b in enumerate(basis):
        for key, cell in cells_of(model, image(b)).items():
            if key not in row_of:
                if rows is not None:
                    raise ComplexBroken(f"the image of {b} leaves the given rows at {key}")
                check(key)
                row_of[key] = len(row_of)
            cells[(row_of[key], j)] = cell
    return SparseMatrix.from_cells(len(row_of), len(basis), model.field, cells), list(row_of)


def _subtract_multiple(row: Vector, factor: Scalar, pivot_row: Vector) -> Vector:
    out = dict(row)
    for j, v in pivot_row.items():
        c = factor * v
        if j in out:
            s = out[j] - c
            if s.is_zero():
                del out[j]
            else:
                out[j] = s
        else:
            out[j] = -c
    return out


def _components(rows: Sequence[Vector]) -> list[tuple[list[int], list[Vector]]]:
    """The nonzero rows as (indices, rows) groups sharing no column, by union-find on columns."""
    nonzero = [(index, r) for index, r in enumerate(rows) if r]
    parent: dict[int, int] = {}
    for _, r in nonzero:
        first = None
        for j in r:
            root = parent.setdefault(j, j)
            while root != parent[root]:
                parent[root] = root = parent[parent[root]]
            if first is None:
                first = root
            elif root != first:
                parent[root] = first
    groups: dict[int, tuple[list[int], list[Vector]]] = {}
    for index, r in nonzero:
        root = next(iter(r))
        while root != parent[root]:
            root = parent[root]
        indices, group = groups.setdefault(root, ([], []))
        indices.append(index)
        group.append(dict(r))
    return list(groups.values())


def _markowitz(indices: list[int], pending: list[Vector]):
    """(pivot column, row) pairs of one group's reduced echelon form and each pivot's key.

    Each step pivots on the entry of least Markowitz count (len(row) - 1) *
    (rows in its column - 1), the first in row order on a tie; its key is
    (count, row index).
    """
    done: list[tuple[int, Vector]] = []
    keys: list[tuple[int, int]] = []
    while pending:
        col_count: dict[int, int] = {}
        for r in pending:
            for j in r:
                col_count[j] = col_count.get(j, 0) + 1
        best = None
        for ri, r in enumerate(pending):
            for j in r:
                score = (len(r) - 1) * (col_count[j] - 1)
                if best is None or score < best[0]:
                    best = (score, ri, j)
        score, ri, pj = best
        keys.append((score, indices.pop(ri)))
        pivot_row = pending.pop(ri)
        inv = pivot_row[pj].inv()
        pivot_row = {j: v * inv for j, v in pivot_row.items()}
        pending = [_subtract_multiple(r, r[pj], pivot_row) if pj in r else r for r in pending]
        if not all(pending):
            indices = [i for i, r in zip(indices, pending) if r]
            pending = [r for r in pending if r]
        done = [(q, _subtract_multiple(r, r[pj], pivot_row) if pj in r else r) for q, r in done]
        done.append((pj, pivot_row))
    return done, keys


def _eliminate(rows: Sequence[Vector]) -> list[tuple[int, Vector]]:
    """Reduced row echelon form of a list of sparse row vectors.

    Returns (pivot column, row) pairs; each row is normalized to pivot value 1
    and its pivot column is cleared from every other returned row.  Pivots
    come in the order of one ``_markowitz`` run on all the rows.
    """
    groups = _components(rows)
    if len(groups) == 1:
        return _markowitz(*groups[0])[0]
    merged = []
    for group in groups:
        done, keys = _markowitz(*group)
        top = (-1, -1)
        for key, pivot in zip(keys, done):
            top = max(top, key)
            merged.append((top, pivot))
    merged.sort(key=lambda keyed: keyed[0])
    return [pivot for _, pivot in merged]


def rank_kernel(matrix: SparseMatrix, one: Optional[Scalar] = None) -> tuple[int, list[Vector]]:
    """Exact rank and a basis of the right kernel.

    The kernel basis has one vector per free column, in column order: the free
    coordinate is 1 and comes first in the vector, and the pivot coordinates
    are read off the reduced echelon form.  ``one`` supplies the unit scalar
    when the matrix has no entries to borrow it from.
    """
    reduced = _eliminate(list(_rows(matrix).values()))
    if one is None:
        one = next(iter(reduced[0][1].values())).field.one if reduced else QQ.one
    pivot_cols = {pj for pj, _ in reduced}
    kernel: list[Vector] = []
    for j in range(matrix.cols):
        if j in pivot_cols:
            continue
        vec: Vector = {j: one}
        for pj, r in reduced:
            if j in r:
                vec[pj] = -r[j]
        kernel.append(vec)
    return len(reduced), kernel


def span_rank(vectors: Sequence[Vector]) -> int:
    return len(_eliminate(vectors))


def _rank_mod_p(matrix: SparseMatrix) -> Optional[int]:
    """The rank of the residues of the entries, or None when p divides a denominator.

    Rows are reduced as integer vectors: scaling by a unit mod p keeps the rank.
    """
    if not matrix.ints:
        return 0
    field = matrix.field
    p, images = field.residue_map
    if any(den % p == 0 for den in matrix.dens.values()):
        return None
    rational = field.degree == 1
    rows: dict[int, dict[int, int]] = {}
    for (i, j), c in matrix.ints.items():
        c = c % p if rational else sum(map(mul, c, images)) % p
        if c:
            rows.setdefault(i, {})[j] = c
    # Echelon form by leading column; each pivot row is scaled to lead with 1.
    pivots: dict[int, dict[int, int]] = {}
    for row in rows.values():
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = pow(row[lead], -1, p)
                pivots[lead] = {j: c * inv % p for j, c in row.items()}
                break
            factor = row[lead]
            for j, c in pivot.items():
                c = (row.get(j, 0) - factor * c) % p
                if c:
                    row[j] = c
                else:
                    row.pop(j, None)
    return len(pivots)


def _certified_ranks(d: dict[int, SparseMatrix]) -> dict[int, Optional[int]]:
    """rank d_k where the modular ranks certify it, else None; d d = 0 is checked already."""
    modular = {k: _rank_mod_p(matrix) for k, matrix in d.items()}
    certified = {k for k, r in modular.items() if r == min(d[k].rows, d[k].cols)}
    for k, matrix in d.items():
        r, above = modular[k], modular.get(k + 1, 0)
        if r is not None and above is not None and r + above == matrix.cols:
            certified |= {k, k + 1}
    return {k: r if k in certified else None for k, r in modular.items()}


def _reduce_against(vec: Vector, reduced: Sequence[tuple[int, Vector]]) -> Vector:
    """Reduce vec against (pivot, row) pairs, each row free of the earlier pivots."""
    out = dict(vec)
    for pj, r in reduced:
        if pj in out:
            out = _subtract_multiple(out, out[pj], r)
    return out


def subquotient_dim(
    cycles: Sequence[Vector], boundaries: Sequence[Vector]
) -> tuple[int, list[Vector]]:
    """dim span(cycles)/span(boundaries), with representative cycle vectors.

    Raises NotASubspace unless span(boundaries) is contained in span(cycles).
    Representatives are the first cycle vectors independent of the boundaries
    and of the earlier picks, each reduced against the boundary span so they
    are honest coset representatives.
    """
    picks = _pick_cosets(cycles, boundaries)
    return len(picks), [rep for _, rep in picks]


def _pick_cosets(
    cycles: Sequence[Vector], boundaries: Sequence[Vector]
) -> list[tuple[int, Vector]]:
    """The representatives of ``subquotient_dim``, each with the index of its cycle."""
    reduced_b = _eliminate(boundaries)
    rank_c = span_rank(cycles)
    # The boundary RREF followed by one row per pick is one echelon basis:
    # each row is free of the pivots of the rows before it, so sweeping the
    # rows in order reduces a vector against the whole span.
    picks: list[tuple[int, Vector]] = []
    reps: list[tuple[int, Vector]] = []
    for index, v in enumerate(cycles):
        rep = _reduce_against(v, reduced_b)
        residual = _reduce_against(rep, picks)
        if residual:
            reps.append((index, rep))
            pj, pv = next(iter(residual.items()))
            inv = pv.inv()
            picks.append((pj, {j: c * inv for j, c in residual.items()}))
    if len(reduced_b) + len(picks) != rank_c:
        raise NotASubspace("boundaries are not contained in the cycle space")
    return reps


def complex_homology(
    differentials: dict[int, SparseMatrix],
    one: Scalar,
    representatives: Collection[int] = (),
) -> tuple[dict[int, int], dict[int, list[Vector]]]:
    """Homology of the finite chain complex with d_k = differentials[k]: C_k -> C_{k-1}.

    The degrees k are consecutive, and the complex occupies degrees
    min(differentials) - 1 through max(differentials).  Returns dim H_k =
    dim C_k - rank d_k - rank d_{k+1} for every degree, and coset
    representatives of H_k (coordinate vectors over C_k) for the degrees in
    ``representatives``; kernels are computed only there, where H_k != 0 or
    the modular ranks leave rank d_k open.
    Raises ComplexBroken when some d_{k-1} d_k is nonzero.
    """
    dims, picks = homology_picks(differentials, one, representatives)
    return dims, {k: [rep for _, rep in found] for k, found in picks.items()}


def homology_picks(
    differentials: dict[int, SparseMatrix],
    one: Scalar,
    representatives: Collection[int] = (),
) -> tuple[dict[int, int], dict[int, list[tuple[int, Vector]]]]:
    """``complex_homology`` with each representative paired with a column of C_k.

    The column is the free coordinate of the kernel vector the representative
    was picked from; the representatives of a degree come in increasing order
    of it.  A direct sum of complexes is eliminated summand by summand, and
    these columns say where each summand's picks fall in the order of the
    whole complex.
    """
    for k in differentials:
        if k - 1 in differentials and not differentials[k - 1].compose(differentials[k]).is_zero():
            raise ComplexBroken(f"d_{k - 1} d_{k} is not zero")
    low = min(differentials) - 1
    d = {low: SparseMatrix(0, differentials[low + 1].rows), **differentials}
    # A rank left open is eliminated once, with its kernel where picks may need it.
    ranks, kernels = _certified_ranks(d), {}
    for k, rank in ranks.items():
        if rank is None and k in representatives:
            ranks[k], kernels[k] = rank_kernel(d[k], one=one)
        elif rank is None:
            ranks[k] = span_rank(list(_rows(d[k]).values()))
    dims = {k: d[k].cols - ranks[k] - ranks.get(k + 1, 0) for k in sorted(d)}
    picks: dict[int, list[tuple[int, Vector]]] = {k: [] for k in d if k in representatives}
    for k in picks:
        if dims[k]:
            kernel = kernels[k] if k in kernels else rank_kernel(d[k], one=one)[1]
            columns = sorted(_rows(d[k + 1].transpose()).items()) if k + 1 in d else []
            picks[k] = [
                (next(iter(kernel[index])), rep)
                for index, rep in _pick_cosets(kernel, [col for _, col in columns])
            ]
    return dims, picks
