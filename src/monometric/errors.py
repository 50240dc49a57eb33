"""Exception types shared across the package."""


class MonometricError(Exception):
    """Base class for all errors raised by monometric."""


class DomainError(MonometricError):
    """An argument lies outside the mathematical domain of the operation."""


class NotHermitian(MonometricError):
    """A matrix expected to be Hermitian fails the symmetry check."""


class NoConvergence(MonometricError):
    """An iterative solver exceeded its iteration cap."""


class QuadratureFailure(MonometricError):
    """Adaptive quadrature could not reach the requested tolerance."""


class DimensionMismatch(MonometricError):
    """Operands have incompatible shapes."""


class NotAState(MonometricError):
    """A matrix is not a strictly positive, trace-one density matrix."""


class DegenerateSample(MonometricError):
    """Random sampling repeatedly produced rank-deficient data."""


def unwrap(outcome):
    """``outcome`` itself, unless it is an error, which is raised: one
    matrix's outcome from ``hermitian_eig_each`` or ``from_matrices``."""
    if isinstance(outcome, MonometricError):
        raise outcome
    return outcome
