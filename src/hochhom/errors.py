"""Exception types shared across the package."""


class HochhomError(Exception):
    """Base class for all package errors."""


class DivisionByZero(HochhomError):
    pass


class ModelMismatch(HochhomError):
    """Raised when scalars from different coefficient models are combined."""


class IndexOutOfRange(HochhomError):
    pass


class NotInSmallComplex(HochhomError):
    """Raised when the small-complex differential is applied outside K_C."""


class NotSemiClassical(HochhomError):
    """Raised when a Weyl-comparison map is requested with r != n."""


class WordTooLong(HochhomError):
    pass


class NotASubspace(HochhomError):
    """Raised when a claimed boundary space is not contained in the cycles."""


class ComplexBroken(HochhomError):
    """A differential failed d∘d = 0, produced boundaries outside the cycles,
    mapped a basis element outside the given target basis (its block), or
    gave a block homology other than the block count."""


class RhoInC(HochhomError):
    """Raised when quotient-strand acyclicity is requested for a degree in C."""


class UnsupportedDegree(HochhomError):
    pass


class ConfigError(HochhomError):
    """Invalid run configuration."""
