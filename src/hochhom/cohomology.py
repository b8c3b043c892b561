"""Cochain complexes and the duality comparison.

Two models of the Hochschild cochain complex are built here:

* (L, D): cochains phi assigning an algebra element to every basis wedge,
  with the braided Chevalley-style differential D.
* (U (x) dual wedges, Delta): the dualized chain complex, obtained by
  conjugating the homology differential through the Theta-scaled dualization
  of wedges; its cohomology in degree * is HH_{n+r-*} by construction.

The two are compared through the evaluation map Phi_3.  They agree up to the
sign (-1)^{*+1} exactly when every row product of the extended parameter
matrix is 1 — true in the semi-classical case (Poincare duality), false for
the mixed minimal algebra, and the failure factor is reported.

Degree-0 and degree-1 cohomology (center and outer derivations) are computed
directly from (L, D) under a polynomial degree window.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .algebra import Monomial, PbwElement
from .errors import IndexOutOfRange, UnsupportedDegree
from .homology import strand_homology
from .koszul import ChainElement, ChainGenerator, diff_full, monomials_up_to
from .linalg import complex_homology, matrix_of, rank_kernel
from .scalar import AlgebraSpec, Scalar

WedgeIndex = tuple[int, ...]


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
    """A Hom(wedge^* V, U) element: one algebra value per basis wedge."""

    spec: AlgebraSpec
    degree: int
    values: dict[WedgeIndex, PbwElement] = field(default_factory=dict)

    def __post_init__(self):
        self.values = {I: v for I, v in self.values.items() if not v.is_zero()}
        for I in self.values:
            _check_wedge(self.spec, I)
            if len(I) != self.degree:
                raise IndexOutOfRange(f"wedge {I} has wrong size for degree {self.degree}")

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
    """The cochain differential: alternating braided commutators with v_{i_k}."""
    star = phi.degree
    m = spec.num_generators
    if star >= m:
        return Cochain(spec, star + 1, {})
    out: dict[WedgeIndex, PbwElement] = {}
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


# ---------------------------------------------------------------------------
# Dual chains and the differential Delta.
# ---------------------------------------------------------------------------


@dataclass
class DualChain:
    """An element of U (x) (wedge^* V)': scalar combination of a (x) (v_I)'."""

    spec: AlgebraSpec
    degree: int
    terms: dict[tuple[Monomial, WedgeIndex], Scalar] = field(default_factory=dict)

    def __post_init__(self):
        self.terms = {key: c for key, c in self.terms.items() if not c.is_zero()}
        for _, I in self.terms:
            _check_wedge(self.spec, I)
            if len(I) != self.degree:
                raise IndexOutOfRange(f"wedge {I} has wrong size for degree {self.degree}")

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "DualChain") -> "DualChain":
        assert other.degree == self.degree
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out[key] + c if key in out else c
        return DualChain(self.spec, self.degree, out)

    def __sub__(self, other: "DualChain") -> "DualChain":
        return self + other.scale(self.spec.scalar(-1))

    def scale(self, coeff: Scalar) -> "DualChain":
        return DualChain(self.spec, self.degree, {k: c * coeff for k, c in self.terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, DualChain)
            and other.degree == self.degree
            and other.terms == self.terms
        )


def Delta_apply(spec: AlgebraSpec, c: DualChain) -> DualChain:
    """The dualized differential, inserting complement generators with Theta scaling."""
    star = c.degree
    m = spec.num_generators
    out: dict[tuple[Monomial, WedgeIndex], Scalar] = {}
    for (mono, I), coeff in c.terms.items():
        a = PbwElement.monomial(spec, mono)
        J = complement(spec, I)
        theta_inv = theta_coefficient(spec, I).inv()
        for k, jk in enumerate(J, start=1):
            left = spec.lambda_tilde_power_product((J[s - 1], jk, 1) for s in range(1, k))
            right = spec.lambda_tilde_power_product(
                (jk, J[s - 1], 1) for s in range(k + 1, len(J) + 1)
            )
            v = PbwElement.generator(spec, jk)
            value = (a * v).scale(left) - (v * a).scale(right)
            if value.is_zero():
                continue
            new_I = tuple(sorted(I + (jk,)))
            factor = (
                coeff
                * theta_inv
                * theta_coefficient(spec, new_I)
                * spec.scalar((-1) ** (k - 1))
            )
            for out_mono, s in value.terms.items():
                key = (out_mono, new_I)
                contrib = factor * s
                out[key] = out[key] + contrib if key in out else contrib
    return DualChain(spec, star + 1, out)


# ---------------------------------------------------------------------------
# The dualization of chains (conjugation route) and the evaluation map.
# ---------------------------------------------------------------------------


def _wedge_to_bits(spec: AlgebraSpec, J: WedgeIndex) -> tuple[int, ...]:
    return tuple(1 if t in set(J) else 0 for t in range(1, spec.num_generators + 1))


def _bits_to_wedge(bits: Sequence[int]) -> WedgeIndex:
    return tuple(t + 1 for t, b in enumerate(bits) if b)


def phi2(spec: AlgebraSpec, chain: ChainElement) -> DualChain:
    """Dualize a chain: a (x) v_J becomes Theta(I) a (x) (v_I)' for I = complement(J)."""
    degree = None
    terms: dict[tuple[Monomial, WedgeIndex], Scalar] = {}
    for g, coeff in chain.terms.items():
        J = _bits_to_wedge(g.wedge)
        I = complement(spec, J)
        if degree is None:
            degree = len(I)
        assert degree == len(I), "mixed homological degrees"
        key = (g.mono, I)
        c = coeff * theta_coefficient(spec, I)
        terms[key] = terms[key] + c if key in terms else c
    return DualChain(spec, 0 if degree is None else degree, terms)


def phi2_inv(spec: AlgebraSpec, c: DualChain) -> ChainElement:
    terms: dict[ChainGenerator, Scalar] = {}
    for (mono, I), coeff in c.terms.items():
        J = complement(spec, I)
        g = ChainGenerator(mono, _wedge_to_bits(spec, J))
        terms[g] = coeff * theta_coefficient(spec, I).inv()
    return ChainElement(spec, terms)


def delta_by_conjugation(spec: AlgebraSpec, c: DualChain) -> DualChain:
    """Phi_2 . d . Phi_2^{-1}: the definitional route for Delta."""
    chain = phi2_inv(spec, c)
    image = ChainElement.zero(spec)
    for g, coeff in chain.terms.items():
        image = image + diff_full(spec, g).scale(coeff)
    if image.is_zero():
        return DualChain(spec, c.degree + 1, {})
    return phi2(spec, image)


def phi3(spec: AlgebraSpec, c: DualChain) -> Cochain:
    """Evaluation: a (x) (v_I)' becomes the cochain sending v_I to a."""
    values: dict[WedgeIndex, PbwElement] = {}
    for (mono, I), coeff in c.terms.items():
        elem = PbwElement.monomial(spec, mono, coeff)
        values[I] = values[I] + elem if I in values else elem
    return Cochain(spec, c.degree, values)


def phi3_inv(spec: AlgebraSpec, phi: Cochain) -> DualChain:
    terms: dict[tuple[Monomial, WedgeIndex], Scalar] = {}
    for I, elem in phi.values.items():
        for mono, coeff in elem.terms.items():
            terms[(mono, I)] = coeff
    return DualChain(spec, phi.degree, terms)


# ---------------------------------------------------------------------------
# Omega coefficients of the duality comparison.
# ---------------------------------------------------------------------------


def omega_coefficients(spec: AlgebraSpec, I: WedgeIndex, k: int) -> tuple[Scalar, Scalar]:
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


def omega_prime_coefficients(spec: AlgebraSpec, I: WedgeIndex, k: int) -> tuple[Scalar, Scalar]:
    """(omega'_1, omega'_2): the direct expressions from the evaluation side."""
    J = complement(spec, I)
    jk = J[k - 1]
    below = sum(1 for i in I if i < jk)
    sign = (-1) ** k * (-1) ** below
    w1 = spec.lambda_tilde_power_product((jk, i, 1) for i in I if i > jk) * sign
    w2 = spec.lambda_tilde_power_product((i, jk, 1) for i in I if i < jk) * sign
    return w1, w2


def row_product(spec: AlgebraSpec, row: int) -> Scalar:
    """Product of one full row of the extended parameter matrix."""
    return spec.lambda_tilde_power_product(
        (row, t, 1) for t in range(1, spec.num_generators + 1)
    )


def column_product(spec: AlgebraSpec, col: int) -> Scalar:
    """Product of one full column of the extended parameter matrix.

    This is the factor relating omega_2 to omega'_2 exactly:
    omega'_2 = (-1)^{*+1} (prod_t lambda~_{t, j_k}) omega_2.  Rows and columns
    of the extended matrix have mutually inverse products, so the two coincide
    precisely when every row product is 1 (the duality case).
    """
    return spec.lambda_tilde_power_product(
        (t, col, 1) for t in range(1, spec.num_generators + 1)
    )


@dataclass(frozen=True)
class DualityCheckResult:
    passed: bool
    degree: int
    wedge: Optional[WedgeIndex] = None
    inserted: Optional[int] = None
    discrepancy: Optional[Scalar] = None


def duality_identity_check(spec: AlgebraSpec, degree: int, bound: int) -> DualityCheckResult:
    """Compare D(Phi_3(.)) with (-1)^{degree+1} Phi_3(Delta(.)) on basis dual chains.

    On mismatch, reports the inserted complement index together with the row
    product of the extended matrix at that index — the exact factor by which
    the two sides differ.
    """
    for I in all_wedges(spec, degree):
        for mono in monomials_up_to(spec, bound):
            c = DualChain(spec, degree, {(mono, I): spec.one()})
            lhs = D_apply(spec, phi3(spec, c))
            rhs = phi3(spec, Delta_apply(spec, c)).scale(spec.scalar((-1) ** (degree + 1)))
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


def _commutators(spec: AlgebraSpec, mono: Monomial) -> list[tuple[tuple[int, Monomial], Scalar]]:
    """The terms ((i, monomial), coefficient) of [v_i, mono] for every generator v_i."""
    elem = PbwElement.monomial(spec, mono)
    terms = []
    for i in range(1, spec.num_generators + 1):
        v = PbwElement.generator(spec, i)
        terms.extend(((i, out_mono), c) for out_mono, c in (v * elem - elem * v).terms.items())
    return terms


def center_truncated(spec: AlgebraSpec, bound: int) -> list[PbwElement]:
    """Basis of the degree-<=bound part of the center ([g, v_i] = 0 for all i).

    The commutator system is closed (no window correction needed): every
    output monomial of every commutator is a row of the linear system.  The
    center is H_0 of the complex monomials -> commutators.
    """
    basis = list(monomials_up_to(spec, bound))
    commutators = matrix_of(basis, lambda mono: _commutators(spec, mono))
    _, reps = complex_homology({0: commutators}, spec.one(), representatives=[0])
    return [PbwElement(spec, {basis[j]: c for j, c in vec.items()}) for vec in reps[0]]


@dataclass(frozen=True)
class Hh1Window:
    bound: int
    dimension: int
    representatives: list[Cochain]


def hh1_window(spec: AlgebraSpec, bound: int) -> Hh1Window:
    """Windowed first cohomology of (L, D).

    Cocycles: 1-cochains with values of degree <= bound killed by D (the
    cocycle equations are evaluated exactly).  Coboundaries: D of degree-0
    cochains with value degree <= bound + 1, restricted to those whose
    coboundary stays inside the value window.  This is degree 1 of the
    complex (windowed 0-cochains) -> (1-cochains) -> (2-wedge values).
    """
    m = spec.num_generators
    columns = [(i, mono) for i in range(1, m + 1) for mono in monomials_up_to(spec, bound)]

    def coboundary(column):
        i, mono = column
        image = D_apply(spec, Cochain(spec, 1, {(i,): PbwElement.monomial(spec, mono)}))
        return [((I, out), c) for I, elem in image.values.items() for out, c in elem.terms.items()]

    cocycle_matrix = matrix_of(columns, coboundary)

    # D of X over monomials of degree <= bound + 1, split into the values
    # inside the window (low) and outside it (high); the windowed X are the
    # kernel of high.
    x_basis = list(monomials_up_to(spec, bound + 1))
    commutators = {mono: _commutators(spec, mono) for mono in x_basis}
    low = matrix_of(
        x_basis,
        lambda mono: [(key, c) for key, c in commutators[mono] if sum(key[1]) <= bound],
        columns,
    )
    high = matrix_of(
        x_basis, lambda mono: [(key, c) for key, c in commutators[mono] if sum(key[1]) > bound]
    )
    _, windowed = rank_kernel(high, one=spec.one())
    inclusion = matrix_of(windowed, dict.items, range(len(x_basis)))
    dims, reps = complex_homology(
        {1: cocycle_matrix, 2: low.compose(inclusion)}, spec.one(), representatives=[1]
    )
    rep_cochains = [
        phi3(spec, DualChain(spec, 1, {(columns[j][1], (columns[j][0],)): c for j, c in vec.items()}))
        for vec in reps[1]
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
    """Windowed cohomology dimensions per requested degree.

    Degree 0 is the truncated center and degree 1 the windowed cocycle
    quotient.  For semi-classical specs the remaining degrees come from the
    duality route HH^k = HH_{2n-k} (only after the duality identity passes);
    otherwise they are dual-side strand computations of HH_{n+r-k}, with a
    note that the direct cochain-side value is not computed.
    """
    m = spec.num_generators
    degrees = list(degrees)
    for k in degrees:
        if not (0 <= k <= m):
            raise UnsupportedDegree(f"degree {k} outside [0, {m}]")
    entries = []
    duality_ok = None
    strand_dims: list[dict[int, int]] = []

    def homology_total(j: int) -> int:
        """dim HH_j over the weights -m..bound; each strand is computed once per report."""
        if not strand_dims:
            strand_dims.extend(
                strand_homology(spec, w, representatives=False).dimensions
                for w in range(-m, bound + 1)
            )
        return sum(dims.get(j, 0) for dims in strand_dims)

    for k in sorted(degrees):
        if k == 0:
            entries.append(
                CohomologyEntry(0, len(center_truncated(spec, bound)), "center-kernel")
            )
            continue
        if k == 1:
            entries.append(
                CohomologyEntry(1, hh1_window(spec, bound).dimension, "cocycle-window")
            )
            continue
        if spec.r == spec.n:
            if duality_ok is None:
                duality_ok = all(
                    duality_identity_check(spec, d, min(bound, 3)).passed
                    for d in range(0, m)
                )
            if duality_ok:
                entries.append(CohomologyEntry(k, homology_total(2 * spec.n - k), "duality"))
                continue
        entries.append(
            CohomologyEntry(
                k,
                homology_total(m - k),
                "dual-side",
                "dimension of HH_{n+r-k}; the direct cochain-side value is not computed",
            )
        )
    return CohomologyReport(spec, bound, entries)
