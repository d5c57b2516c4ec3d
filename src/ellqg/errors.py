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


def in_order(items: list, groups, evaluate) -> list:
    """The outcomes of ``items`` in order, up to the first error a one-by-one
    loop meets, which ends the list.  ``evaluate`` maps a list of items to
    their outcomes, up to the first that raises, in one shared call that may
    raise itself; it gets each group of ``groups`` (ascending item indices,
    the groups ordered by their first) that starts before that error, and a
    group of more items whose shared call raises is replayed item by item."""
    if len(items) == 1:  # one call and no bookkeeping: a q-KZ point makes two
        try:
            return evaluate(items)
        except EllqgError as exc:
            return [exc]
    out, first = [None] * len(items), len(items)  # first: the first item that raises
    for ks in groups:
        if ks[0] > first:
            break
        try:
            res = evaluate([items[k] for k in ks])
        except EllqgError as exc:
            res = [exc] if len(ks) == 1 else in_order([items[k] for k in ks],
                                                      [[k] for k in range(len(ks))], evaluate)
        for k, r in zip(ks, res):
            out[k] = r
        if isinstance(res[-1], EllqgError):
            first = min(first, ks[len(res) - 1])
    return out[:first + 1]
