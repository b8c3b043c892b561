"""Cochain complexes and the duality comparison.

Hom(wedge^* V, U) and U (x) (wedge^* V)' are the same vector space, so one
type, ``Cochain``, carries both models of the Hochschild cochain complex, and
the evaluation map Phi_3 between them is the identity on it.  A cochain is a
``Combination`` of basis cochains (I, mono), the map v_I -> mono for a sorted
wedge index I and a PBW monomial, as a chain is one of (mono, wedge) keys.
Both differentials are given on one basis cochain, like ``diff_full`` on one
generator, and ``koszul.apply_diff`` extends either linearly.  They are one
insertion routine (``_insertion``), a kernel that yields ((wedge, monomial),
lambda~-character, int) triples: for each j not in I, the braided commutator
of mono with v_j, a character on each side, placed at the wedge I + {j}.

* (L, D): the braided Chevalley-style differential D (``D_apply``).
* (U (x) dual wedges, Delta): the dualized chain differential, the homology
  differential conjugated through the Theta-scaled dualization Phi_2 of
  wedges, written out in closed form (``Delta_apply``); its cohomology in
  degree * is HH_{n+r-*} by construction.

D and Delta agree up to the sign (-1)^{*+1} exactly when every row product
of the extended parameter matrix is 1 — always true when r = n
(Poincare duality), false for the mixed minimal algebra, and the failure
factor is reported by ``duality_identity_check``.

Degree-0 and degree-1 cohomology (center and outer derivations) are computed
directly from (L, D) under a polynomial degree window; every matrix there is
built from D's triples by ``linalg.matrix_of``, and one routine (``_window``)
computes either degree.  ``cohomology_report`` reads only their dimensions;
``center_truncated`` and ``hh1_window`` also return bases.
"""
from __future__ import annotations

from functools import partial
from itertools import chain, combinations
from typing import Iterable, NamedTuple, Optional

from .algebra import Combination, Monomial, PbwElement, commutator_with_generator, monomial_str
from .errors import IndexOutOfRange, UnsupportedDegree
from .homology import strand_homology
from .koszul import monomials_up_to
from .linalg import SparseMatrix, cells_of, complex_homology, matrix_of, rank_kernel
from .scalar import AlgebraSpec, Scalar

WedgeIndex = tuple[int, ...]
# A basis cochain (I, mono): the map v_I -> mono.
Basis = tuple[WedgeIndex, Monomial]
Triple = tuple[Basis, tuple[int, ...], int]  # basis cochain, lambda~-character, int


def complement(spec: AlgebraSpec, I: WedgeIndex) -> WedgeIndex:
    return tuple(j for j in range(1, spec.num_generators + 1) if j not in I)


def all_wedges(spec: AlgebraSpec, size: int) -> list[WedgeIndex]:
    return [tuple(c) for c in combinations(range(1, spec.num_generators + 1), size)]


class Cochain(Combination):
    """An element of Hom(wedge^* V, U) = U (x) (wedge^* V)': a combination of basis cochains."""

    __slots__ = ()

    def value(self, I: WedgeIndex) -> PbwElement:
        """The algebra value on v_I."""
        return PbwElement(self.spec, {mono: c for (J, mono), c in self.terms.items() if J == I})

    def __str__(self):
        terms = sorted(self.terms.items())  # keys are distinct, so no scalars are compared
        parts = [f"{c}*(v{I} -> {monomial_str(self.spec, m)})" for (I, m), c in terms]
        return " + ".join(parts) or "0"


def check_basis(spec: AlgebraSpec, basis: Basis) -> None:
    """Raise IndexOutOfRange unless I is strictly increasing in 1..n+r and mono has n+r exponents >= 0."""
    I, mono = basis
    m = spec.num_generators
    if len(mono) != m or min(mono, default=0) < 0 or not all(
        a < b for a, b in zip((0,) + I, I + (m + 1,))
    ):
        raise IndexOutOfRange(f"bad basis cochain {basis}")


def _insertion(spec: AlgebraSpec, basis: Basis, dual: bool):
    """The ((wedge, monomial), character, int) triples of D, or Delta when ``dual``, on (I, mono).

    Each j not in I, in increasing order, places the braided commutator
    sign * (left * v_j mono - right * mono v_j) at the wedge I + {j}.  Over a
    set S, let a = sum_{s in S, s < j} lambda~_{s,j} and
    b = sum_{s in S, s > j} lambda~_{j,s} as characters:

    * D: S = I, left = a, right = b, and sign (-1)^(number of i in I below
      j), the position of j in I + {j} counted from 0.
    * Delta: S = J, the complement of I; left = b and right = a, each shifted
      by the character of Theta(I + {j}) / Theta(I), which is
      prod_{k in J, k < j} (-lambda~_{j,k}) / prod_{i in I, i > j} (-lambda~_{i,j}),
      and sign -(-1)^(number of i in I above j): Theta's sign
      (-1)^(number of k in J below j + number of i in I above j) times
      Delta's own (-1)^(number of k in J below j), and -1 as Delta's
      commutator is the reverse one, with mono v_j first.

    The basis cochain is checked at the entry of both (``check_basis``).
    """
    check_basis(spec, basis)
    I, mono = basis
    add, model = spec.add_character, spec.model
    J = complement(spec, I)
    for p, j in enumerate(J):
        below = sum(1 for i in I if i < j)
        shift = [0] * model.rank  # the character of Theta(I + {j}) / Theta(I), for Delta
        if dual:
            for k in J[:p]:
                add(shift, j, k)
            for i in I[below:]:
                add(shift, i, j, -1)
        a, b = shift, shift.copy()
        for s in J if dual else I:
            if s < j:
                add(a, s, j)
            elif s > j:
                add(b, j, s)
        left, right = (b, a) if dual else (a, b)
        sign = -(-1) ** (len(I) - below) if dual else (-1) ** below
        wedge = I[:below] + (j,) + I[below:]
        for prod, char, k in commutator_with_generator(
            spec, j, mono, model.reduce(left), model.reduce(right), sign
        ):
            yield (wedge, prod), char, k


def D_apply(spec: AlgebraSpec, basis: Basis) -> Cochain:
    """The cochain differential on the basis cochain (I, mono): braided commutators with v_j."""
    return Cochain.from_triples(spec, _insertion(spec, basis, dual=False))


def Delta_apply(spec: AlgebraSpec, basis: Basis) -> Cochain:
    """The dualized differential on the basis cochain (I, mono), inserting complement generators."""
    return Cochain.from_triples(spec, _insertion(spec, basis, dual=True))


# ---------------------------------------------------------------------------
# The duality comparison.
# ---------------------------------------------------------------------------


def row_product(spec: AlgebraSpec, row: int) -> Scalar:
    """Product of one full row of the extended parameter matrix."""
    acc = [0] * spec.model.rank
    for t in range(1, spec.num_generators + 1):
        spec.add_character(acc, row, t)
    return spec.model.value(spec.model.reduce(acc))


class DualityCheckResult(NamedTuple):
    passed: bool
    degree: int
    wedge: Optional[WedgeIndex] = None
    inserted: Optional[int] = None
    discrepancy: Optional[Scalar] = None


def duality_identity_check(spec: AlgebraSpec, degree: int, bound: int) -> DualityCheckResult:
    """Compare D(c) with (-1)^{degree+1} Delta(c) on the basis cochains v_I -> monomial.

    Phi_3 is the identity on ``Cochain``, so the two sides are compared
    directly, as one sum of their triples.  On mismatch, reports the first
    inserted complement index where they differ, together with the row
    product of the extended matrix at that index — the exact factor by which
    the two sides differ.
    """
    sign = 1 if degree % 2 else -1  # (-1)^{degree+1}
    for I in all_wedges(spec, degree):
        for mono in monomials_up_to(spec, bound):
            dual = ((key, c, -sign * k) for key, c, k in _insertion(spec, (I, mono), True))
            difference = cells_of(spec.model, chain(_insertion(spec, (I, mono), False), dual))
            if difference:
                # Wedges I + {j} sort as j does, so the first one that differs is the least.
                wedge = min(J for J, _ in difference)
                bad = next(j for j in wedge if j not in I)
                return DualityCheckResult(False, degree, I, bad, row_product(spec, bad))
    return DualityCheckResult(True, degree)


# ---------------------------------------------------------------------------
# Windowed degree-0 and degree-1 cohomology.
# ---------------------------------------------------------------------------


def _zero_coboundaries(spec: AlgebraSpec, bound: int) -> dict[Monomial, list[Triple]]:
    """The triples of D of the 0-cochain mono, for each monomial of degree <= bound."""
    return {mono: list(_insertion(spec, ((), mono), False)) for mono in monomials_up_to(spec, bound)}


def _window_matrix(spec: AlgebraSpec, basis: list, image, rows=None) -> tuple[SparseMatrix, list]:
    """``matrix_of`` on cochain triples, each row key a checked basis cochain."""
    return matrix_of(spec.model, basis, image, partial(check_basis, spec), rows)


def center_truncated(spec: AlgebraSpec, bound: int) -> list[PbwElement]:
    """Basis of the degree-<=bound part of the center ([g, v_i] = 0 for all i).

    The commutator system is closed (no window correction needed): every
    output monomial of every commutator is a row of the linear system.  The
    center is H_0 of the complex monomials -> D(monomials), D of a 0-cochain
    being its commutators with the generators.
    """
    basis, _, reps = _window(spec, 0, bound, representatives=True)
    return [PbwElement(spec, {basis[j]: c for j, c in vec.items()}) for vec in reps]


class Hh1Window(NamedTuple):
    bound: int
    dimension: int
    representatives: list[Cochain]


def _hh1_complex(
    spec: AlgebraSpec, bound: int, images: dict[Monomial, list[Triple]]
) -> tuple[list[Basis], dict[int, SparseMatrix]]:
    """The 1-cochain columns ((i,), mono) and a complex whose H_1 is the window.

    ``images`` holds ``_zero_coboundaries(spec, bound + 1)``.  Cocycles:
    1-cochains with values of degree <= bound killed by D (the cocycle
    equations are evaluated exactly).  Coboundaries: D of degree-0 cochains
    with value degree <= bound + 1, restricted to those whose coboundary
    stays inside the value window.  This is degree 1 of the complex
    (windowed 0-cochains) -> (1-cochains) -> (2-wedge values).
    """
    m = spec.num_generators
    columns = [((i,), mono) for i in range(1, m + 1) for mono in monomials_up_to(spec, bound)]
    cocycle_matrix, _ = _window_matrix(spec, columns, lambda column: _insertion(spec, column, False))

    # D of X over monomials of degree <= bound + 1, split into the values
    # inside the window (low) and outside it (high); the windowed X are the
    # kernel of high.
    x_basis = list(monomials_up_to(spec, bound + 1))
    low, _ = _window_matrix(
        spec, x_basis, lambda mono: [t for t in images[mono] if sum(t[0][1]) <= bound], columns
    )
    high, _ = _window_matrix(
        spec, x_basis, lambda mono: [t for t in images[mono] if sum(t[0][1]) > bound]
    )
    _, windowed = rank_kernel(high, one=spec.one())
    entries = {(i, j): c for j, vec in enumerate(windowed) for i, c in vec.items()}
    inclusion = SparseMatrix(len(x_basis), len(windowed), entries)
    return columns, {1: cocycle_matrix, 2: low.compose(inclusion)}


def hh1_window(spec: AlgebraSpec, bound: int) -> Hh1Window:
    """Windowed first cohomology of (L, D), as H_1 of ``_hh1_complex``."""
    columns, dimension, reps = _window(spec, 1, bound, representatives=True)
    cochains = (((columns[j], c) for j, c in vec.items()) for vec in reps)
    return Hh1Window(bound, dimension, [Cochain.from_terms(spec, terms) for terms in cochains])


def _window(spec: AlgebraSpec, degree: int, bound: int, images=None, representatives=False):
    """(columns, dimension, representative vectors) of windowed H^degree of (L, D), degree 0 or 1.

    Degree 0 is H_0 of the monomials of degree <= bound -> D(monomials), and
    degree 1 is H_1 of ``_hh1_complex``.  ``images`` holds
    ``_zero_coboundaries`` up to bound + degree, built when not given.
    """
    images = images or _zero_coboundaries(spec, bound + degree)
    if degree == 0:
        columns = list(monomials_up_to(spec, bound))
        d = {0: _window_matrix(spec, columns, images.__getitem__)[0]}
    else:
        columns, d = _hh1_complex(spec, bound, images)
    dims, reps = complex_homology(d, spec.one(), [degree] if representatives else ())
    return columns, dims[degree], reps.get(degree, [])


# ---------------------------------------------------------------------------
# Aggregated cohomology report.
# ---------------------------------------------------------------------------


class CohomologyEntry(NamedTuple):
    degree: int
    dimension: int
    method: str
    note: str = ""


class CohomologyReport(NamedTuple):
    spec: AlgebraSpec
    bound: int
    entries: list[CohomologyEntry]


def cohomology_report(
    spec: AlgebraSpec, degrees: Iterable[int], bound: int
) -> CohomologyReport:
    """Windowed cohomology dimensions per requested degree, each computed once.

    Degree 0 is the truncated center and degree 1 the windowed cocycle
    quotient, both over values of polynomial degree <= bound, sharing D of
    each 0-cochain.  Only their dimensions are read, so no representative is
    picked and the one kernel computed is the window inclusion's.  Degrees
    k >= 2 are dim HH_{n+r-k} summed over the weight strands -(n+r)..bound.
    When r = n every row product of the extended matrix is 1, so the duality
    identity holds and this is HH^k (method ``duality``; the identity is
    checked by the tests and by ``verify --suite duality``).  Otherwise the
    entry is labeled ``dual-side``, with a note that the direct cochain-side
    value is not computed.
    """
    m = spec.num_generators
    degrees = list(degrees)
    for k in degrees:
        if not (0 <= k <= m):
            raise UnsupportedDegree(f"degree {k} outside [0, {m}]")
    entries = []
    strand_dims: list[dict[int, int]] = []

    def homology_total(j: int) -> int:
        """dim HH_j over the weights -m..bound; each strand is computed once per report."""
        if not strand_dims:
            strand_dims.extend(
                strand_homology(spec, w, representatives=False).dimensions
                for w in range(-m, bound + 1)
            )
        return sum(dims.get(j, 0) for dims in strand_dims)

    if 0 in degrees or 1 in degrees:
        images = _zero_coboundaries(spec, bound + 1 if 1 in degrees else bound)
    for k in sorted(degrees):
        if k < 2:
            method = ("center-kernel", "cocycle-window")[k]
            entries.append(CohomologyEntry(k, _window(spec, k, bound, images)[1], method))
        elif spec.r == spec.n:
            # Row k of lambda~ is row k of Lambda next to its inverse, so every
            # row product is 1 and HH^k = HH_{2n-k} by duality.
            entries.append(CohomologyEntry(k, homology_total(m - k), "duality"))
        else:
            entries.append(
                CohomologyEntry(
                    k,
                    homology_total(m - k),
                    "dual-side",
                    "dimension of HH_{n+r-k}; the direct cochain-side value is not computed",
                )
            )
    return CohomologyReport(spec, bound, entries)
