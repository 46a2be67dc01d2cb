"""Exception hierarchy for the biquat package."""


class BiquatError(Exception):
    """Base class for all biquat-specific errors."""


class DimensionError(BiquatError, ValueError):
    """Operands have incompatible or invalid dimensions."""


class NotInvertibleError(BiquatError):
    """Element or matrix is a zero divisor / numerically singular."""


class NotTriangularError(BiquatError):
    """Matrix is not triangular within tolerance."""


class DegenerateWitnessError(BiquatError):
    """Constructed similarity witness is not invertible within tolerance."""


class InvalidPairError(BiquatError):
    """Supplied eigenpair does not satisfy its defining equation within tolerance."""


class ConvergenceError(BiquatError):
    """Iterative eigenvalue backend failed to converge, or its spectrum does
    not resolve into a Jordan structure."""
