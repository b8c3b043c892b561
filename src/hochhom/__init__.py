"""Exact Hochschild (co)homology of mixed Weyl/q-commuting algebras.

The algebras have r Weyl-paired generator pairs and n - r purely
q-commuting ones, all twisted by a matrix of nonzero scalars.  Everything is
computed by exact linear algebra over the rationals or a cyclotomic field:
homology strand by strand on a small weight-homogeneous complex, cohomology
through windowed cochain systems and a duality comparison.  One cochain
type, ``Cochain``, serves both sides of that comparison, so the evaluation
map Phi_3 between them is the identity.  Chains, cochains and algebra
elements are one combination type over their own basis keys, and each
differential is given on one basis element and extended linearly.
"""
from .algebra import PbwElement, generator_name, monomial_str
from .cohomology import (
    Cochain,
    CohomologyReport,
    cohomology_report,
    duality_identity_check,
)
from .errors import HochhomError
from .homology import (
    HomologyReport,
    expected_hh_oracle,
    hh_report,
    quotient_strand_acyclicity,
    strand_homology,
)
from .koszul import (
    ChainElement,
    diff_full,
    diff_small,
    diff_symmetric,
    diff_weyl,
)
from .scalar import AlgebraSpec, CyclotomicModel, RationalModel

__all__ = [
    "AlgebraSpec",
    "ChainElement",
    "Cochain",
    "CohomologyReport",
    "CyclotomicModel",
    "HochhomError",
    "HomologyReport",
    "PbwElement",
    "RationalModel",
    "cohomology_report",
    "diff_full",
    "diff_small",
    "diff_symmetric",
    "diff_weyl",
    "duality_identity_check",
    "expected_hh_oracle",
    "generator_name",
    "hh_report",
    "monomial_str",
    "quotient_strand_acyclicity",
    "strand_homology",
]

__version__ = "0.1.0"
