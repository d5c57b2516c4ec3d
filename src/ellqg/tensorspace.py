"""Colors, partitions, weights and dynamical parameters.

All types are immutable values; every operation here is a pure function.
Colors live in {1, ..., N}, sites in {1, ..., n}; both are 1-based, matching
the JSON wire format (arrays of 1-based integers).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import factorial

from .errors import ParameterError, ResourceCapError, ShapeError

ENUMERATION_CAP = 10


@dataclass(frozen=True)
class Composition:
    """A composition lambda = (lambda_1, ..., lambda_N) of n into N parts."""

    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.sizes or any(s < 0 or not isinstance(s, int) for s in self.sizes):
            raise ShapeError(f"composition parts must be nonnegative ints: {self.sizes}")

    @property
    def N(self) -> int:
        return len(self.sizes)

    @property
    def n(self) -> int:
        return sum(self.sizes)

    def prefix(self, l: int) -> int:
        """lambda^(l) = lambda_1 + ... + lambda_l."""
        return sum(self.sizes[:l])

    def count(self) -> int:
        """Number of partitions of shape lambda: n! / prod(lambda_l!)."""
        c = factorial(self.n)
        for s in self.sizes:
            c //= factorial(s)
        return c


@dataclass(frozen=True)
class PartitionIndex:
    """Disjoint sets I = (I_1, ..., I_N) with union {1, ..., n}.

    Equivalent to a color string mu via I_l = { i | mu_i = l }.
    """

    parts: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for part in self.parts:
            if list(part) != sorted(part):
                raise ShapeError(f"partition parts must be sorted: {part}")
            for i in part:
                if i in seen:
                    raise ShapeError(f"site {i} appears in two parts")
                seen.add(i)
        n = sum(len(p) for p in self.parts)
        if seen != set(range(1, n + 1)):
            raise ShapeError(f"parts must partition 1..{n}, got union {sorted(seen)}")

    @classmethod
    def from_colors(cls, mu, N: int) -> "PartitionIndex":
        mu = tuple(mu)
        if any(not 1 <= c <= N for c in mu):
            raise ShapeError(f"colors must lie in 1..{N}: {mu}")
        return cls(tuple(tuple(i for i, c in enumerate(mu, 1) if c == l)
                         for l in range(1, N + 1)))

    @property
    def N(self) -> int:
        return len(self.parts)

    @property
    def n(self) -> int:
        return sum(len(p) for p in self.parts)

    def shape(self) -> Composition:
        return Composition(tuple(len(p) for p in self.parts))

    def colors(self) -> tuple[int, ...]:
        mu = [0] * self.n
        for l, part in enumerate(self.parts, 1):
            for i in part:
                mu[i - 1] = l
        return tuple(mu)

    def union(self, l: int) -> tuple[int, ...]:
        """I^(l) = I_1 u ... u I_l, sorted."""
        out: list[int] = []
        for part in self.parts[:l]:
            out.extend(part)
        return tuple(sorted(out))

    def to_json(self) -> list[list[int]]:
        return [list(p) for p in self.parts]

    @classmethod
    def from_json(cls, data) -> "PartitionIndex":
        return cls(tuple(tuple(int(i) for i in part) for part in data))


def leq(I: PartitionIndex, J: PartitionIndex) -> bool:
    """Partial order: I <= J iff i^(l)_a <= j^(l)_a for all l, a."""
    if list(map(len, I.parts)) != list(map(len, J.parts)):  # the shapes, without building them
        raise ShapeError("leq requires equal shapes")
    for l in range(1, I.N):
        for ia, ja in zip(I.union(l), J.union(l)):
            if ia > ja:
                return False
    return True


def enumerate_partitions(lam: Composition) -> tuple[PartitionIndex, ...]:
    """All partitions of shape lambda, ordered lexicographically by color string."""
    if lam.n > ENUMERATION_CAP:
        raise ResourceCapError(f"enumeration cap exceeded: n={lam.n} > {ENUMERATION_CAP}")
    return _partitions(lam)


# gt_vectors enumerates the shape of each of its labels.  ``verify all`` enumerates
# 48 shapes: 16 entries built 173 enumerations, 64 build each shape once.
@lru_cache(maxsize=64)
def _partitions(lam: Composition) -> tuple[PartitionIndex, ...]:
    out: list[PartitionIndex] = []
    remaining = list(lam.sizes)
    mu: list[int] = []

    def rec() -> None:
        if len(mu) == lam.n:
            out.append(PartitionIndex.from_colors(tuple(mu), lam.N))
            return
        for c in range(1, lam.N + 1):
            if remaining[c - 1] > 0:
                remaining[c - 1] -= 1
                mu.append(c)
                rec()
                mu.pop()
                remaining[c - 1] += 1

    rec()
    return tuple(out)


@lru_cache(maxsize=64)
def partition_colors(lam: Composition) -> tuple[tuple[int, ...], ...]:
    """The color string of each partition of shape lambda, in the order of
    ``enumerate_partitions``: a shape's strings are built once."""
    return tuple(I.colors() for I in enumerate_partitions(lam))


def color_weight(c: int, N: int) -> tuple[int, ...]:
    """h_j-weights of the basis color c: <eps-bar_c, h_j> = d_{c,j} - d_{c,j+1}."""
    return tuple((1 if c == j else 0) - (1 if c == j + 1 else 0)
                 for j in range(1, N))


def weight_of(mu, N: int) -> tuple[int, ...]:
    """h_j-weight of a color string: sum_i (d_{mu_i,j} - d_{mu_i,j+1})."""
    w = [0] * (N - 1)
    for c in mu:
        for j, wj in enumerate(color_weight(c, N)):
            w[j] += wj
    return tuple(w)


def eps_pairing(c: int, j: int, k: int) -> int:
    """<eps-bar_c, h_{j,k}> = d_{c,j} - d_{c,k} for the root-sum h_{j,k}."""
    return (1 if c == j else 0) - (1 if c == k else 0)


@dataclass(frozen=True)
class DynamicalParams:
    """Dynamical parameters P_1..P_{N-1} plus exact integer shift offsets.

    The evaluated combination is (P+h)_{j,k} = sum_{i=j}^{k-1} (P_i + eta_i);
    Pi_{j,k} = q^(2 (P+h)_{j,k}) is always computed, never stored.  Shifts by
    weights are tracked exactly in ``eta`` so iterated actions do not drift.
    """

    P: tuple[complex, ...] = ()
    eta: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "P", tuple(complex(x) for x in self.P))
        if not all(map(cmath.isfinite, self.P)):
            raise ParameterError(f"dynamical parameters must be finite, got {self.P}")
        if not self.eta:
            object.__setattr__(self, "eta", (0,) * len(self.P))
        if len(self.eta) != len(self.P):
            raise ShapeError("eta must have the same length as P")

    @property
    def N(self) -> int:
        return len(self.P) + 1

    def shifted(self, delta) -> "DynamicalParams":
        delta = tuple(delta)
        if len(delta) != len(self.P):
            raise ShapeError("shift vector has wrong length")
        return DynamicalParams(self.P, tuple(e + d for e, d in zip(self.eta, delta)))

    def shifted_by_colors(self, colors, sign: int = 1) -> "DynamicalParams":
        """Shift eta by sign * sum of the h-weights of the given colors."""
        w = weight_of(colors, self.N)
        return self.shifted(tuple(sign * x for x in w))

    def value(self, j: int, k: int) -> complex:
        """(P+h)_{j,k} = sum_{i=j}^{k-1} (P_i + eta_i), 1 <= j < k <= N."""
        if not 1 <= j < k <= self.N:
            raise ShapeError(f"need 1 <= j < k <= N, got ({j}, {k})")
        return sum((self.P[i] + self.eta[i] for i in range(j - 1, k - 1)),
                   start=0.0 + 0.0j)

    def inverted(self) -> "DynamicalParams":
        """Pi -> Pi^(-1): negate every component and offset."""
        return DynamicalParams(tuple(-p for p in self.P),
                               tuple(-e for e in self.eta))


@dataclass(frozen=True)
class EvaluationPoints:
    """Spectral points z_i with additive coordinates u_i, z_i = q^(2 u_i)."""

    z: tuple[complex, ...]
    q: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "z", tuple(complex(x) for x in self.z))
        if not all(map(cmath.isfinite, self.z)):
            raise ParameterError(f"spectral points must be finite, got {self.z}")
        if any(x == 0 for x in self.z):
            raise ParameterError("spectral points must be nonzero")
        if not 0.0 < self.q < 1.0:
            raise ParameterError("q must lie in (0, 1)")

    @property
    def n(self) -> int:
        return len(self.z)

    @cached_property
    def u(self) -> tuple[complex, ...]:
        lq = 2.0 * math.log(self.q)
        return tuple(cmath.log(x) / lq for x in self.z)

    def require_q(self, q: float) -> None:
        """ParameterError unless u was made with the brackets' ``q``."""
        if self.q != q:
            raise ParameterError(f"spectral points built at q={self.q} used with q={q}")

    def require_distinct(self) -> None:
        for a in range(self.n):
            for b in range(a + 1, self.n):
                if abs(self.z[a] - self.z[b]) < 1e-12:
                    raise ParameterError(
                        f"spectral points must be pairwise distinct: z_{a+1} ~ z_{b+1}")

    def swapped(self, i: int) -> "EvaluationPoints":
        """Swap z_i and z_{i+1} (1-based i)."""
        zs = list(self.z)
        zs[i - 1], zs[i] = zs[i], zs[i - 1]
        return EvaluationPoints(tuple(zs), self.q)

    def inverted_reversed(self) -> "EvaluationPoints":
        return EvaluationPoints(tuple(1.0 / x for x in reversed(self.z)), self.q)
