"""Elliptic special functions.

q-Pochhammer products, the odd theta function, Jacobi-style theta brackets
and the elliptic Gamma function, all evaluated by adaptively truncated
products; ``ell_gamma`` evaluates a batch of arguments in one numpy pass.

Conventions fixed here once for the whole package:

* q, r, k are real with 0 < q < 1 and r > k >= 0, so the nomes p = q^(2r)
  and p* = q^(2(r-k)) are real numbers in (0, 1).
* q^x := exp(x log q) is single valued for complex x because log q is real;
  powers z^a of other complex quantities use the principal logarithm with
  the branch cut on the negative real axis.
* infinite products keep the terms of magnitude at least the truncation
  tolerance, at most ``max_terms`` per index: ``qpoch`` stops at that cap,
  ``ell_gamma`` raises ResourceCapError instead.  Results are deterministic.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, ParameterError, PoleError, ResourceCapError

DEFAULT_EPS = 1e-14
DEFAULT_MAX_TERMS = 512

_POLE_TOL = 1e-12


@dataclass(frozen=True)
class ModularParams:
    """Parameter pack (q, r, k) with derived nomes and truncation control.

    p = q^(2r) is the elliptic nome, r* = r - k and p* = q^(2r*) the shifted
    ("starred") ones; k plays the role of the level.  Requires 0 < q < 1 and
    r > k >= 0 so that all nomes lie in (0, 1).
    """

    q: float
    r: float
    k: float = 0.0
    trunc_eps: float = DEFAULT_EPS
    max_terms: int = DEFAULT_MAX_TERMS

    def __post_init__(self) -> None:
        if not 0.0 < self.q < 1.0:
            raise ParameterError(f"q must lie in (0, 1), got {self.q}")
        if self.k < 0.0:
            raise ParameterError(f"k must be >= 0, got {self.k}")
        if self.r <= self.k:
            raise ParameterError(
                f"r must exceed k (got r={self.r}, k={self.k}); otherwise p* >= 1"
            )
        if self.trunc_eps <= 0.0:
            raise ParameterError("trunc_eps must be positive")
        if self.max_terms < 1:
            raise ParameterError("max_terms must be a positive integer")

    @property
    def p(self) -> float:
        return self.q ** (2.0 * self.r)

    @property
    def rstar(self) -> float:
        return self.r - self.k

    @property
    def pstar(self) -> float:
        return self.q ** (2.0 * self.rstar)

    def qpow(self, x: complex) -> complex:
        """q^x = exp(x log q), single valued for complex x."""
        return cmath.exp(complex(x) * math.log(self.q))

    def u_of(self, z: complex) -> complex:
        """Additive coordinate u with z = q^(2u), via the principal log."""
        return cmath.log(z) / (2.0 * math.log(self.q))


@lru_cache(maxsize=1 << 16)
def _qpoch_cached(z: complex, s: float, eps: float, max_terms: int) -> complex:
    val = 1.0 + 0.0j
    w = z
    for _ in range(max_terms):
        if abs(w) < eps:
            break
        val *= 1.0 - w
        w *= s
    return val


def qpoch(z: complex, s: float, *, eps: float = DEFAULT_EPS,
          max_terms: int = DEFAULT_MAX_TERMS) -> complex:
    """(z; s)_inf = prod_{n>=0} (1 - z s^n), truncated once |z s^n| < eps."""
    if abs(s) >= 1.0:
        raise ParameterError(f"q-Pochhammer nome must satisfy |s| < 1, got {s}")
    return _qpoch_cached(complex(z), float(s), float(eps), int(max_terms))


def theta(z: complex, p: float, *, eps: float = DEFAULT_EPS,
          max_terms: int = DEFAULT_MAX_TERMS) -> complex:
    """Odd theta function theta_p(z) = (z; p)_inf (p/z; p)_inf (p; p)_inf.

    Satisfies theta_p(pz) = theta_p(1/z) = -z^(-1) theta_p(z).
    """
    z = complex(z)
    if z == 0:
        raise DomainError("theta(z, p) requires z != 0")
    return (qpoch(z, p, eps=eps, max_terms=max_terms)
            * qpoch(p / z, p, eps=eps, max_terms=max_terms)
            * qpoch(p, p, eps=eps, max_terms=max_terms))


def jacobi_bracket(u: complex, mp: ModularParams, starred: bool = False) -> complex:
    """Theta bracket [u] = q^(u^2/r - u) theta_p(q^(2u)).

    With ``starred`` the pair (p, r) is replaced by (p*, r*).  The bracket is
    odd, [-u] = -[u], and quasi-periodic: [u + r] = -[u].
    """
    u = complex(u)
    if starred:
        nome, height = mp.pstar, mp.rstar
    else:
        nome, height = mp.p, mp.r
    pref = cmath.exp((u * u / height - u) * math.log(mp.q))
    return pref * theta(mp.qpow(2.0 * u), nome,
                        eps=mp.trunc_eps, max_terms=mp.max_terms)


def bracket_derivative_at_zero(mp: ModularParams, starred: bool = False,
                               step: float = 1e-4) -> complex:
    """[0]' by central differences, Richardson-extrapolated over step and step/2.

    A closed form is deliberately avoided: the constant only ever enters
    through the gauge product of the raising/lowering normalisations.
    """
    def central(h: float) -> complex:
        return (jacobi_bracket(h, mp, starred)
                - jacobi_bracket(-h, mp, starred)) / (2.0 * h)

    d1 = central(step)
    d2 = central(step / 2.0)
    return (4.0 * d2 - d1) / 3.0


def _nome_powers(x: float, top: float, eps: float, max_terms: int) -> np.ndarray:
    """1, x, x^2, ... while top |x|^n >= eps; more than max_terms raises ResourceCapError."""
    out = [1.0]
    while top * abs(out[-1]) >= eps and len(out) <= max_terms:
        out.append(out[-1] * x)
    if top * abs(out[-1]) >= eps:
        raise ResourceCapError(f"elliptic Gamma needs more than max_terms={max_terms} factors")
    return np.array(out[:-1])


def ell_gamma(z: complex | list[complex], p: float, s: float, *, eps: float = DEFAULT_EPS,
              max_terms: int = DEFAULT_MAX_TERMS) -> complex | np.ndarray:
    """Elliptic Gamma function Gamma(z; p, s) = (ps/z; p, s)_inf / (z; p, s)_inf.

    ``z`` is one argument (gives a complex) or a 1-D sequence (gives an array),
    all evaluated in one numpy pass over the p^m s^n grid, one m-row at a time.
    Each (x; p, s)_inf keeps the factors with m, n < max_terms and |x| p^m s^n
    >= eps; an argument that needs more raises ResourceCapError.  A vanishing
    factor of a (z; p, s)_inf raises PoleError naming (m, n): the smallest m,
    then the earliest z, then the smallest n.  Gamma(z) Gamma(ps/z) = 1.
    """
    if abs(p) >= 1.0 or abs(s) >= 1.0:
        raise ParameterError("elliptic Gamma requires |p| < 1 and |s| < 1")
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    if not zs.all():
        raise DomainError("elliptic Gamma requires z != 0")
    args = np.concatenate((p * s / zs, zs))
    top = np.abs(args).max(initial=0.0)
    prow, srow = (_nome_powers(x, top, eps, max_terms) for x in (p, s))
    row = np.multiply.outer(args, srow)             # x s^n; row m scales it by p^m
    size = np.abs(row)
    acc = np.ones(args.size, dtype=complex)
    for m, pm in enumerate(prow):
        f = 1.0 - pm * row
        f[abs(pm) * size < eps] = 1.0               # factors an argument drops
        small = np.abs(f[zs.size:])
        if small.min() < _POLE_TOL:
            j, n = np.argwhere(small < _POLE_TOL)[0]
            raise PoleError(f"elliptic Gamma pole: factor (m={m}, n={n}) "
                            f"vanishes at z={zs[j]}")
        acc = acc * np.multiply.reduce(f, axis=1)
    gamma = acc[:zs.size] / acc[zs.size:]
    return complex(gamma[0]) if np.ndim(z) == 0 else gamma


def rho_plus(z: complex, N: int, mp: ModularParams) -> complex:
    """Scalar prefactor of the dressed R-matrix for the N-color vector space.

    rho+(z) = q^(-(N-1)/N) z^((N-1)/(rN))
              Gamma(z) Gamma(q^(2N) z) / (Gamma(q^2 z) Gamma(q^(2N-2) z)),
    all Gammas with nome pair (p, q^(2N)).  Degenerates to 1 at N = 1.
    """
    z = complex(z)
    s = mp.q ** (2 * N)
    g = ell_gamma([z, s * z, mp.q ** 2 * z, mp.q ** (2 * N - 2) * z], mp.p, s,
                  eps=mp.trunc_eps, max_terms=mp.max_terms).tolist()
    power = cmath.exp((N - 1) / (mp.r * N) * cmath.log(z)) if N > 1 else 1.0
    return mp.qpow(-(N - 1) / N) * power * g[0] * g[1] / (g[2] * g[3])


def mu_scalar(z: complex, N: int, mp: ModularParams) -> complex:
    """Scalar factor of the vertex-operator exchange R-matrix.

    mu(z) = z^(-((r-1)/r)((N-1)/N))
            Gamma(pz) Gamma(q^(2N) z) / (Gamma(q^2 z) Gamma(p q^(2N-2) z)),
    nome pair (p, q^(2N)) throughout.  Degenerates to 1 at N = 1.
    """
    z = complex(z)
    s = mp.q ** (2 * N)
    g = ell_gamma([mp.p * z, s * z, mp.q ** 2 * z, mp.p * mp.q ** (2 * N - 2) * z],
                  mp.p, s, eps=mp.trunc_eps, max_terms=mp.max_terms).tolist()
    expo = -((mp.r - 1.0) / mp.r) * ((N - 1) / N)
    power = cmath.exp(expo * cmath.log(z)) if N > 1 else 1.0
    return power * g[0] * g[1] / (g[2] * g[3])
