"""Cochain complexes and the duality comparison.

Hom(wedge^* V, U) and U (x) (wedge^* V)' are the same vector space, so one
type, ``Cochain`` (a wedge index I mapped to an algebra value), carries both
models of the Hochschild cochain complex, and the evaluation map Phi_3
between them is the identity on it:

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
built from ``D_apply``.  ``cohomology_report`` reads only their dimensions;
``center_truncated`` and ``hh1_window`` also return bases.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .algebra import Monomial, PbwElement, commutator_with_generator
from .errors import IndexOutOfRange, UnsupportedDegree
from .homology import strand_homology
from .koszul import monomials_up_to
from .linalg import SparseMatrix, complex_homology, matrix_of, rank_kernel
from .scalar import AlgebraSpec, Scalar

WedgeIndex = tuple[int, ...]
# One term c * (v_I -> mono) of a cochain, as ((I, mono), c).
Term = tuple[tuple[WedgeIndex, Monomial], Scalar]


def _check_wedge(spec: AlgebraSpec, I: WedgeIndex):
    m = spec.num_generators
    if list(I) != sorted(set(I)) or any(not (1 <= i <= m) for i in I):
        raise IndexOutOfRange(f"bad wedge index {I}")


def complement(spec: AlgebraSpec, I: WedgeIndex) -> WedgeIndex:
    _check_wedge(spec, I)
    return tuple(j for j in range(1, spec.num_generators + 1) if j not in I)


def all_wedges(spec: AlgebraSpec, size: int) -> list[WedgeIndex]:
    from itertools import combinations

    return [tuple(c) for c in combinations(range(1, spec.num_generators + 1), size)]


def theta_coefficient(spec: AlgebraSpec, I: WedgeIndex) -> Scalar:
    """Theta_*(I): product over s of prod_{k < i_s, k not in I} (-lambda~_{i_s,k})."""
    _check_wedge(spec, I)
    in_I = set(I)
    sign = 1
    factors = []
    for i in I:
        for k in range(1, i):
            if k not in in_I:
                sign = -sign
                factors.append((i, k, 1))
    return spec.lambda_tilde_power_product(factors) * sign


# ---------------------------------------------------------------------------
# Cochains and the differential D.
# ---------------------------------------------------------------------------


@dataclass
class Cochain:
    """An element of Hom(wedge^* V, U) = U (x) (wedge^* V)': one algebra value per wedge."""

    spec: AlgebraSpec
    degree: int
    values: dict[WedgeIndex, PbwElement] = field(default_factory=dict)

    def __post_init__(self):
        self.values = {I: v for I, v in self.values.items() if not v.is_zero()}
        for I in self.values:
            _check_wedge(self.spec, I)
            if len(I) != self.degree:
                raise IndexOutOfRange(f"wedge {I} has wrong size for degree {self.degree}")

    @classmethod
    def from_terms(cls, spec: AlgebraSpec, degree: int, terms: Iterable[Term]) -> "Cochain":
        """The sum of the cochains v_I -> c * mono over ((I, mono), c) pairs."""
        values: dict[WedgeIndex, dict[Monomial, Scalar]] = {}
        for (I, mono), c in terms:
            row = values.setdefault(I, {})
            row[mono] = row[mono] + c if mono in row else c
        return cls(spec, degree, {I: PbwElement(spec, row) for I, row in values.items()})

    def value(self, I: WedgeIndex) -> PbwElement:
        return self.values.get(tuple(I), PbwElement.zero(self.spec))

    def is_zero(self) -> bool:
        return not self.values

    def __add__(self, other: "Cochain") -> "Cochain":
        assert other.degree == self.degree
        out = dict(self.values)
        for I, v in other.values.items():
            out[I] = out[I] + v if I in out else v
        return Cochain(self.spec, self.degree, out)

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self + other.scale(self.spec.scalar(-1))

    def scale(self, coeff: Scalar) -> "Cochain":
        return Cochain(self.spec, self.degree, {I: v.scale(coeff) for I, v in self.values.items()})

    def __eq__(self, other):
        return (
            isinstance(other, Cochain)
            and other.degree == self.degree
            and other.values == self.values
        )


def D_apply(spec: AlgebraSpec, phi: Cochain) -> Cochain:
    """The cochain differential: alternating braided commutators with v_{i_k}.

    Only the wedges I = sub + {j} with phi(sub) nonzero can have a nonzero
    value; they are visited in ``all_wedges`` order.  Removing i_k commutes
    with v_{i_k} under the sign (-1)^(k-1) and the characters of
    prod_{s<k} lambda~_{i_s,i_k} (left) and prod_{s>k} lambda~_{i_k,i_s} (right).
    """
    star = phi.degree
    m = spec.num_generators
    if star >= m:
        return Cochain(spec, star + 1, {})
    add, model = spec.add_character, spec.model
    reached = {
        tuple(sorted(sub + (j,))) for sub in phi.values for j in range(1, m + 1) if j not in sub
    }
    out: dict[WedgeIndex, PbwElement] = {}
    for I in sorted(reached):
        total = None  # set below: removing some i_k from a reached I leaves a wedge of phi
        for k, ik in enumerate(I, start=1):
            val = phi.values.get(I[: k - 1] + I[k:])
            if val is None:
                continue
            left, right = [0] * model.rank, [0] * model.rank
            for s in I:  # I is sorted: left sums the s before i_k, right those after
                add(left, s, ik, s < ik)
                add(right, ik, s, s > ik)
            chars = model.reduce(left), model.reduce(right)
            term = commutator_with_generator(spec, ik, val, *chars, 1 if k % 2 else -1)
            total = term if total is None else total + term
        if not total.is_zero():
            out[I] = total
    return Cochain(spec, star + 1, out)


# ---------------------------------------------------------------------------
# The dualized differential Delta, and the dualization of chains.
# ---------------------------------------------------------------------------


def Delta_apply(spec: AlgebraSpec, c: Cochain) -> Cochain:
    """The dualized differential, inserting complement generators with Theta scaling.

    The coefficients depend only on the wedge, so each value is commuted
    with the inserted generator as a whole.
    """
    out: dict[WedgeIndex, PbwElement] = {}
    for I, a in c.values.items():
        J = complement(spec, I)
        theta_inv = theta_coefficient(spec, I).inv()
        for k, jk in enumerate(J, start=1):
            left = spec.character((s, jk, 1) for s in J[: k - 1])
            right = spec.character((jk, s, 1) for s in J[k:])
            # left * a v_jk - right * v_jk a
            value = commutator_with_generator(spec, jk, a, right, left, -1)
            if value.is_zero():
                continue
            new_I = tuple(sorted(I + (jk,)))
            factor = theta_inv * theta_coefficient(spec, new_I) * spec.scalar((-1) ** (k - 1))
            value = value.scale(factor)
            out[new_I] = out[new_I] + value if new_I in out else value
    return Cochain(spec, c.degree + 1, out)


# ---------------------------------------------------------------------------
# The duality comparison.
# ---------------------------------------------------------------------------


def row_product(spec: AlgebraSpec, row: int) -> Scalar:
    """Product of one full row of the extended parameter matrix."""
    return spec.lambda_tilde_power_product(
        (row, t, 1) for t in range(1, spec.num_generators + 1)
    )


@dataclass(frozen=True)
class DualityCheckResult:
    passed: bool
    degree: int
    wedge: Optional[WedgeIndex] = None
    inserted: Optional[int] = None
    discrepancy: Optional[Scalar] = None


def duality_identity_check(spec: AlgebraSpec, degree: int, bound: int) -> DualityCheckResult:
    """Compare D(c) with (-1)^{degree+1} Delta(c) on the basis cochains v_I -> monomial.

    Phi_3 is the identity on ``Cochain``, so the two sides are compared
    directly.  On mismatch, reports the inserted complement index together
    with the row product of the extended matrix at that index — the exact
    factor by which the two sides differ.
    """
    for I in all_wedges(spec, degree):
        for mono in monomials_up_to(spec, bound):
            c = Cochain(spec, degree, {I: PbwElement.monomial(spec, mono)})
            lhs = D_apply(spec, c)
            rhs = Delta_apply(spec, c).scale(spec.scalar((-1) ** (degree + 1)))
            if lhs != rhs:
                J = complement(spec, I)
                bad_k = None
                for k, jk in enumerate(J, start=1):
                    new_I = tuple(sorted(I + (jk,)))
                    if lhs.value(new_I) != rhs.value(new_I):
                        bad_k = jk
                        break
                return DualityCheckResult(
                    False,
                    degree,
                    I,
                    bad_k,
                    row_product(spec, bad_k) if bad_k else None,
                )
    return DualityCheckResult(True, degree)


# ---------------------------------------------------------------------------
# Windowed degree-0 and degree-1 cohomology.
# ---------------------------------------------------------------------------


def _coboundary(spec: AlgebraSpec, I: WedgeIndex, mono: Monomial) -> list[Term]:
    """D of the cochain v_I -> mono, as ((wedge, monomial), coefficient) pairs in D's order."""
    image = D_apply(spec, Cochain(spec, len(I), {I: PbwElement.monomial(spec, mono)}))
    return [((J, out), c) for J, elem in image.values.items() for out, c in elem.terms.items()]


def _zero_coboundaries(spec: AlgebraSpec, bound: int) -> dict[Monomial, list[Term]]:
    """D of the 0-cochain mono, for each monomial of degree <= bound."""
    return {mono: _coboundary(spec, (), mono) for mono in monomials_up_to(spec, bound)}


def center_truncated(spec: AlgebraSpec, bound: int) -> list[PbwElement]:
    """Basis of the degree-<=bound part of the center ([g, v_i] = 0 for all i).

    The commutator system is closed (no window correction needed): every
    output monomial of every commutator is a row of the linear system.  The
    center is H_0 of the complex monomials -> D(monomials), D of a 0-cochain
    being its commutators with the generators.
    """
    basis = list(monomials_up_to(spec, bound))
    commutators = matrix_of(basis, _zero_coboundaries(spec, bound).__getitem__)
    _, reps = complex_homology({0: commutators}, spec.one(), representatives=[0])
    return [PbwElement(spec, {basis[j]: c for j, c in vec.items()}) for vec in reps[0]]


@dataclass(frozen=True)
class Hh1Window:
    bound: int
    dimension: int
    representatives: list[Cochain]


def _hh1_complex(
    spec: AlgebraSpec, bound: int, images: dict[Monomial, list[Term]]
) -> tuple[list[tuple[WedgeIndex, Monomial]], dict[int, SparseMatrix]]:
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
    cocycle_matrix = matrix_of(columns, lambda column: _coboundary(spec, *column))

    # D of X over monomials of degree <= bound + 1, split into the values
    # inside the window (low) and outside it (high); the windowed X are the
    # kernel of high.
    x_basis = list(monomials_up_to(spec, bound + 1))
    low = matrix_of(
        x_basis,
        lambda mono: [(key, c) for key, c in images[mono] if sum(key[1]) <= bound],
        columns,
    )
    high = matrix_of(
        x_basis, lambda mono: [(key, c) for key, c in images[mono] if sum(key[1]) > bound]
    )
    _, windowed = rank_kernel(high, one=spec.one())
    inclusion = matrix_of(windowed, dict.items, range(len(x_basis)))
    return columns, {1: cocycle_matrix, 2: low.compose(inclusion)}


def hh1_window(spec: AlgebraSpec, bound: int) -> Hh1Window:
    """Windowed first cohomology of (L, D), as H_1 of ``_hh1_complex``."""
    columns, d = _hh1_complex(spec, bound, _zero_coboundaries(spec, bound + 1))
    dims, reps = complex_homology(d, spec.one(), representatives=[1])
    rep_cochains = [
        Cochain.from_terms(spec, 1, ((columns[j], c) for j, c in vec.items())) for vec in reps[1]
    ]
    return Hh1Window(bound, dims[1], rep_cochains)


# ---------------------------------------------------------------------------
# Aggregated cohomology report.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CohomologyEntry:
    degree: int
    dimension: int
    method: str
    note: str = ""


@dataclass(frozen=True)
class CohomologyReport:
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
        if k == 0:
            commutators = matrix_of(list(monomials_up_to(spec, bound)), images.__getitem__)
            dims, _ = complex_homology({0: commutators}, spec.one())
            entries.append(CohomologyEntry(0, dims[0], "center-kernel"))
        elif k == 1:
            dims, _ = complex_homology(_hh1_complex(spec, bound, images)[1], spec.one())
            entries.append(CohomologyEntry(1, dims[1], "cocycle-window"))
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
