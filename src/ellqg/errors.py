"""Exception types shared across the library."""


class EllqgError(Exception):
    """Base class for all library errors."""


class ParameterError(EllqgError):
    """Parameters outside the convergent / validated domain (e.g. |s| >= 1)."""


class DomainError(EllqgError):
    """Argument outside the domain of a special function (e.g. theta at 0)."""


class PoleError(EllqgError):
    """Evaluation hit a pole; the message names the offending factor."""


class SingularityError(EllqgError):
    """Resonant dynamical parameter ([s] ~ 0) in an R-matrix entry."""


class ShapeError(EllqgError):
    """Mismatched combinatorial shapes (partitions, color strings, blocks)."""


class ResourceCapError(EllqgError):
    """An enumeration or quadrature exceeded its configured cap."""


class FloatRangeError(EllqgError):
    """A bracket or a product of brackets lies outside the normal float range
    (q close to 1): below it a divisor has lost its digits or is 0, above it
    the value is not representable."""


def settle(outcomes: list) -> list:
    """The results of a batch whose outcomes end at its first error: the list
    if no item raised, else that EllqgError raised."""
    if outcomes and isinstance(outcomes[-1], EllqgError):
        raise outcomes[-1]
    return outcomes
