"""Exception types shared across the package, and the outcome convention.

An outcome is what one member of a batch gets: its value, or the
``MonometricError`` it would raise alone. ``unwrap`` raises an outcome
that is an error and returns any other; ``_outcome_of`` makes a call on
outcomes an outcome. ``_batched`` is the one way a batch is run: an item
that is an error already is its own outcome, and the others are handed
over in groups of one key, each putting its outcome back in its place,
so a member's outcome never depends on which members share its batch.
"""


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
    """``outcome`` itself, unless it is an error, which is raised."""
    if isinstance(outcome, MonometricError):
        raise outcome
    return outcome


def _outcome_of(fn, *args):
    """``fn`` called on ``args``, or the first error: an argument that is
    one, untouched and never raised, or the ``MonometricError`` fn raises."""
    for arg in args:
        if isinstance(arg, MonometricError):
            return arg
    try:
        return fn(*args)
    except MonometricError as exc:
        return exc


def _batched(items, key, solve) -> list:
    """Per item, in order, its outcome. An item that is a ``MonometricError``
    is its own and never reaches ``solve``; the others go to ``solve`` as one
    list per ``key(item)``, keys in first-seen order, and each takes the
    outcome ``solve`` returns in its place in that list."""
    out = list(items)
    groups: dict = {}
    for i, item in enumerate(out):
        if not isinstance(item, MonometricError):
            groups.setdefault(key(item), []).append(i)
    for members in groups.values():
        for i, outcome in zip(members, solve([out[i] for i in members]), strict=True):
            out[i] = outcome
    return out
