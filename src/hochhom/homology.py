"""Strand-wise Hochschild homology via the small complex.

Homology is computed only on the small complex K_C, whose differential is
weight-homogeneous, so each weight strand is an independent finite complex.
A strand is in turn the direct sum of its fine blocks (see ``koszul``), and
its homology is the sum of theirs: the block lemma of ``koszul`` gives each
block's classes in closed form, read off the keys with delta = 0 with no
block built.  The tests check it against elimination of every block of a
built strand (``homology_of_strand``), and ``verify --suite blocks`` runs
its own elimination block by block.  The module also carries the
theorem-based expected-dimension oracles for the regimes with known closed
answers, and the acyclicity witness for the quotient strands that justifies
computing on K_C in the first place.
"""
from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple

from .errors import RhoInC
from .koszul import (
    ChainElement,
    StrandBlock,
    StrandComplex,
    _strand_keys,
    _symmetric,
    block_homology,
    check_generator,
    is_in_C,
    splittings,
)
from .linalg import Vector, complex_homology, homology_picks, matrix_of
from .scalar import AlgebraSpec


class StrandHomology(NamedTuple):
    weight: int
    dimensions: dict[int, int]
    representatives: dict[int, list[ChainElement]]


class HomologyReport(NamedTuple):
    spec: AlgebraSpec
    w_min: int
    w_max: int
    strands: dict[int, StrandHomology]

    def dimension(self, w: int, k: int) -> int:
        return self.strands[w].dimensions.get(k, 0)

    def nonzero_entries(self) -> list[tuple[int, int, int]]:
        out = []
        for w in sorted(self.strands):
            for k in sorted(self.strands[w].dimensions):
                d = self.strands[w].dimensions[k]
                if d:
                    out.append((w, k, d))
        return out


def strand_homology(
    spec: AlgebraSpec, w: int, representatives: bool = True
) -> StrandHomology:
    """Per-degree homology of the weight-w strand of K_C, by the block lemma.

    The keys with delta = 0 on every Weyl pair are walked and their blocks'
    classes read off ``koszul.block_homology``; no block is built.
    """
    classes: dict[int, list] = {k: [] for k in range(spec.num_generators + 1)}
    for key, base, pairs in _strand_keys(spec, w, delta_zero=True):
        for k, found in block_homology(spec, w, key, base, pairs).items():
            classes[k] += found
    reps = {
        k: [ChainElement.single(spec, g) for g in sorted(found)]
        if representatives else []
        for k, found in classes.items()
    }
    return StrandHomology(w, {k: len(found) for k, found in classes.items()}, reps)


def homology_of_strand(
    spec: AlgebraSpec, strand: StrandComplex, representatives: bool = True
) -> StrandHomology:
    """Homology of a built weight strand, by eliminating every block.

    The tests compare ``strand_homology`` with it.
    """
    degrees = range(spec.num_generators + 1)
    dims = dict.fromkeys(degrees, 0)
    picks: dict[int, list[tuple[tuple, Vector, list]]] = {k: [] for k in degrees}
    for block in strand.blocks:
        block_dims, block_picks = _block_picks(spec, block, degrees if representatives else ())
        for k, dim in block_dims.items():
            dims[k] += dim
        for k, found in block_picks.items():
            picks[k] += found
    return StrandHomology(strand.weight, dims, _representatives(spec, picks))


def _block_picks(spec: AlgebraSpec, block: StrandBlock, degrees):
    """``homology_picks`` of one block, each pick as (generator, vector, basis)."""
    dims, found = homology_picks(block.matrices, spec.one(), representatives=degrees)
    return dims, {
        k: [(block.basis[k][j], v, block.basis[k]) for j, v in picks] for k, picks in found.items()
    }


def _representatives(spec: AlgebraSpec, picks) -> dict[int, list[ChainElement]]:
    """The picks of a strand's blocks as chain elements on (mono, wedge) keys, in strand order.

    Pivoting never mixes blocks, so each block picks the representatives one
    elimination of the whole strand would pick; sorting the picks by the
    generator of their kernel vector's free column restores that order.
    """
    return {
        k: [
            ChainElement(spec, {basis[j]: c for j, c in v.items()})
            for _, v, basis in sorted(found, key=itemgetter(0))
        ]
        for k, found in picks.items()
    }


def hh_report(
    spec: AlgebraSpec, w_min: int, w_max: int, representatives: bool = True
) -> HomologyReport:
    """Homology of the strands w_min..w_max, w_min raised to -(n+r) unless that empties the window."""
    lowest = max(w_min, -spec.num_generators)
    strands = {
        w: strand_homology(spec, w, representatives=representatives)
        for w in range(lowest, w_max + 1)
    }
    return HomologyReport(spec, lowest if lowest <= w_max else w_min, w_max, strands)


# ---------------------------------------------------------------------------
# Expected-dimension oracles for the closed regimes.
# ---------------------------------------------------------------------------


def detect_regime(spec: AlgebraSpec) -> str:
    """Classify the spec into one of the closed-answer regimes, if any.

    Returns one of "semiclassical", "free", "mixed-minimal-root", or
    "unsupported".
    """
    if spec.r == spec.n:
        return "semiclassical"
    if spec.is_free():
        return "free"
    if spec.n == 2 and spec.r == 1:
        order = spec.root_of_unity_order(2, 1)
        if order is not None and order >= 2:
            return "mixed-minimal-root"
    return "unsupported"


def expected_hh_oracle(spec: AlgebraSpec, w: int) -> dict[int, int] | None:
    """Per-degree homology dimensions predicted at weight w, or None.

    Translates the closed structure results (semi-classical concentration,
    free-parameter towers, mixed root-of-unity four-family basis) into
    per-(w, k) counts; returns None for regimes without a closed answer.
    """
    regime = detect_regime(spec)
    n, r = spec.n, spec.r
    dims: dict[int, int] = {k: 0 for k in range(spec.num_generators + 1)}
    if regime == "semiclassical":
        if w == -2 * n:
            dims[2 * n] = 1
        return dims
    if regime == "free":
        if r == 0:
            # HH_0: the unit (w = 0) and the towers y_i^s, s >= 1;
            # HH_1: the towers y_i^s (x) y_i, s >= 0 (weight s - 1).
            if w == 0:
                dims[0] = 1
            elif w >= 1:
                dims[0] = n
            if w >= -1:
                dims[1] = n
        else:
            # The Weyl pairs contribute only the fundamental class in degree
            # 2r; the n - r free quantum variables contribute the towers.
            if w == -2 * r:
                dims[2 * r] = 1
            if w >= 1:
                dims[0] = n - r
            if w >= -1:
                dims[1] = n - r
        return dims
    if regime == "mixed-minimal-root":
        order = spec.root_of_unity_order(2, 1)
        # Bases: z^s (s not divisible by order) in degree 0; z^s (x) z with
        # s+1 not divisible in degree 1; z^s (x) x^y with s divisible in
        # degree 2; z^{s*order - 1} (x) x^y^z in degree 3.
        if w >= 1 and w % order != 0:
            dims[0] = 1
        if w >= -1 and (w + 2) % order != 0:
            dims[1] = 1
        if w >= -2 and (w + 2) % order == 0:
            dims[2] = 1
        if w >= order - 4 and (w + 4) % order == 0:
            dims[3] = 1
        return dims
    return None


# ---------------------------------------------------------------------------
# Quotient-strand acyclicity (the reduction witness).
# ---------------------------------------------------------------------------


class AcyclicityResult(NamedTuple):
    rho: tuple[int, ...]
    passed: bool
    failing_degree: int | None = None
    witness: ChainElement | None = None


def quotient_strand_acyclicity(spec: AlgebraSpec, rho) -> AcyclicityResult:
    """Verify that the degree-rho quotient strand is exact in every degree.

    The strand collects every splitting mono + wedge = rho, the wedge of a
    degree-k generator being k positions of supp rho, and carries the
    symmetric-algebra differential, which preserves rho.  For rho outside C
    this complex must be acyclic including degree 0; a failure returns the
    offending degree together with a non-bounding cycle.
    """
    rho = tuple(rho)
    if is_in_C(spec, rho):
        raise RhoInC(f"rho={rho} lies in C; the quotient strand excludes it")
    m = spec.num_generators
    generators = {k: sorted(splittings(rho, k)) for k in range(m + 1)}
    matrices = {
        k: matrix_of(
            spec.model, generators[k], lambda g: _symmetric(spec, *g), check_generator, generators[k - 1]
        )[0]
        for k in range(1, m + 1)
    }
    dims, reps = complex_homology(matrices, spec.one(), representatives=range(m + 1))
    for k in range(m + 1):
        if dims[k]:
            witness = {generators[k][j]: c for j, c in reps[k][0].items()}
            return AcyclicityResult(rho, False, k, ChainElement(spec, witness))
    return AcyclicityResult(rho, True)
