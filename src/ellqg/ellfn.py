"""Elliptic special functions.

q-Pochhammer products, the odd theta function, Jacobi-style theta brackets
and the elliptic Gamma function, all evaluated by adaptively truncated
products.  Every library product of brackets is one ``jacobi_brackets``
call, and a batch of Gamma values one ``ell_gamma`` call, each a numpy pass.
The uncached scalar ``qpoch``/``theta``/``jacobi_bracket`` chain is the
single-value API and the reference of the tests, suites and closed forms.

Conventions fixed here once for the whole package:

* q, r, k are real with 0 < q < 1 and r > k >= 0, so the nomes p = q^(2r)
  and p* = q^(2(r-k)) are real numbers in (0, 1).
* q^x := exp(x log q) is single valued for complex x because log q is real;
  powers z^a of other complex quantities use the principal logarithm with
  the branch cut on the negative real axis.
* infinite products keep the terms of magnitude at least the truncation
  tolerance, at most ``max_terms`` per index; a product that needs more
  raises ResourceCapError rather than return a truncated value.  Results
  are deterministic.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, FloatRangeError, ParameterError, PoleError,
                     ResourceCapError)

DEFAULT_EPS = 1e-14
DEFAULT_MAX_TERMS = 512

_POLE_TOL = 1e-12
# Most complex entries one batch holds in an (arguments x factors) array, so a
# nome close to 1 (thousands of factors) is worked through in slices.
_BATCH_ENTRIES = 1 << 16


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

    @property
    def truncation(self) -> dict:
        """Pass ``**mp.truncation`` to ``qpoch``, ``theta`` and ``ell_gamma`` to
        use this pack's eps and max_terms instead of their own defaults."""
        return {"eps": self.trunc_eps, "max_terms": self.max_terms}

    def qpow(self, x: complex) -> complex:
        """q^x = exp(x log q), single valued for complex x."""
        return cmath.exp(complex(x) * math.log(self.q))

    def u_of(self, z: complex) -> complex:
        """Additive coordinate u with z = q^(2u), via the principal log."""
        return cmath.log(z) / (2.0 * math.log(self.q))


def qpoch(z: complex, s: float, *, eps: float = DEFAULT_EPS,
          max_terms: int = DEFAULT_MAX_TERMS) -> complex:
    """(z; s)_inf = prod_{n>=0} (1 - z s^n), truncated once |z s^n| < eps.

    Raises ResourceCapError when |z s^n| >= eps still holds after max_terms factors.
    """
    if abs(s) >= 1.0:
        raise ParameterError(f"q-Pochhammer nome must satisfy |s| < 1, got {s}")
    z, s = complex(z), float(s)
    val = 1.0 + 0.0j
    w = z
    for _ in range(max_terms):
        if abs(w) < eps:
            break
        val *= 1.0 - w
        w *= s
    if abs(w) >= eps:
        raise ResourceCapError(f"q-Pochhammer product needs more than max_terms={max_terms} "
                               f"factors at z={z}, s={s}")
    return val


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
    odd, [-u] = -[u], and quasi-periodic: [u + r] = -[u].  A prefactor beyond
    the float range raises FloatRangeError.
    """
    u = complex(u)
    if starred:
        nome, height = mp.pstar, mp.rstar
    else:
        nome, height = mp.p, mp.r
    try:
        pref = cmath.exp((u * u / height - u) * math.log(mp.q))
    except OverflowError:
        raise FloatRangeError(f"[{u:.6g}] overflows") from None
    return pref * theta(mp.qpow(2.0 * u), nome,
                        eps=mp.trunc_eps, max_terms=mp.max_terms)


def jacobi_brackets(u, mp: ModularParams, starred: bool = False) -> np.ndarray:
    """The brackets [u] of a 1-D array of u, in one numpy pass.

    Same formula and factor set as ``jacobi_bracket``: each (x; p)_inf of
    theta_p(x) (p/x; p)_inf (p; p)_inf keeps the factors with |x p^n| >= eps,
    taken from one row of nome powers and masked per argument; an argument
    that needs more than max_terms factors raises ResourceCapError, and
    q^(2u) = 0 raises DomainError.  Agrees with the scalar bracket to
    rounding.  A bracket beyond the float range raises FloatRangeError, as
    the scalar one does.
    """
    u = np.asarray(u, dtype=complex)
    nome, height = (mp.pstar, mp.rstar) if starred else (mp.p, mp.r)
    lq = math.log(mp.q)
    x = np.exp(2.0 * u * lq)
    if not x.all():
        raise DomainError("theta(z, p) requires z != 0")
    args = np.concatenate((x, nome / x, [nome]))
    size = np.abs(args)
    powers = _nome_powers(nome, size.max(), mp.trunc_eps, mp.max_terms, "theta bracket")
    prods = np.empty_like(args)
    step = max(1, _BATCH_ENTRIES // max(powers.size, 1))
    for lo in range(0, args.size, step):            # one slice unless the nome is near 1
        f = 1.0 - np.multiply.outer(powers, args[lo:lo + step])
        f[np.multiply.outer(powers, size[lo:lo + step]) < mp.trunc_eps] = 1.0
        prods[lo:lo + step] = np.multiply.reduce(f, axis=0)
    n = x.size
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.exp((u * u / height - u) * lq) * (prods[:n] * prods[n:2 * n] * prods[-1])
    if not np.isfinite(out).all():
        raise FloatRangeError(f"[{u[~np.isfinite(out)][0]:.6g}] overflows")
    return out


def require_normal(value: complex, label: str) -> complex:
    """``value``, or FloatRangeError naming ``label`` when |value| is below the
    normal float range (as a divisor it has lost its digits or is 0)."""
    if abs(value) < sys.float_info.min:
        raise FloatRangeError(f"{label} underflows: |{label}| = {abs(value):.3g}")
    return value


def require_finite(value: complex, label: str) -> complex:
    """``value``, or FloatRangeError naming ``label`` when it is inf or nan (a
    product or sum that left the float range)."""
    if not cmath.isfinite(value):
        raise FloatRangeError(f"{label} overflows")
    return value


def pole_tol(one: complex) -> float:
    """The pole test of a bracket divisor [x]: |[x]| < pole_tol([1]), with [1]
    on the divisor's nome.  Relative to [1], so that at q close to 1, where
    every bracket is small, only a zero reads as a pole; a [1] below the
    normal float range raises FloatRangeError."""
    return _POLE_TOL * abs(require_normal(one, "[1]"))


def bracket_derivative_at_zero(mp: ModularParams, step: float = 1e-4) -> complex:
    """[0]' by central differences, Richardson-extrapolated over step and step/2.

    A closed form is deliberately avoided: the constant only ever enters
    through the gauge product of the raising/lowering normalisations.
    """
    def central(h: float) -> complex:
        return (jacobi_bracket(h, mp) - jacobi_bracket(-h, mp)) / (2.0 * h)

    d1 = central(step)
    d2 = central(step / 2.0)
    return (4.0 * d2 - d1) / 3.0


def _nome_powers(x: float, top: float, eps: float, max_terms: int, what: str) -> np.ndarray:
    """1, x, x^2, ... while top |x|^n >= eps; more than max_terms raises ResourceCapError."""
    out = [1.0]
    while top * abs(out[-1]) >= eps and len(out) <= max_terms:
        out.append(out[-1] * x)
    if top * abs(out[-1]) >= eps:
        raise ResourceCapError(f"{what} needs more than max_terms={max_terms} factors")
    return np.array(out[:-1])


def ell_gamma(z: complex | list[complex], p: float, s: float, *, eps: float = DEFAULT_EPS,
              max_terms: int = DEFAULT_MAX_TERMS) -> complex | np.ndarray:
    """Elliptic Gamma function Gamma(z; p, s) = (ps/z; p, s)_inf / (z; p, s)_inf.

    ``z`` is one argument (gives a complex) or a 1-D sequence (gives an array),
    all evaluated in one numpy pass over the p^m s^n grid, one m-row at a time.
    Each (x; p, s)_inf keeps the factors with m, n < max_terms and |x| p^m s^n
    >= eps; an argument that needs more raises ResourceCapError.  A vanishing
    factor of a (z; p, s)_inf raises PoleError naming (m, n): the smallest m,
    then the earliest z, then the smallest n.  A product or quotient beyond
    the float range, or a 0 with no exactly-zero numerator factor, raises
    FloatRangeError.  Gamma(z) Gamma(ps/z) = 1.
    """
    if abs(p) >= 1.0 or abs(s) >= 1.0:
        raise ParameterError("elliptic Gamma requires |p| < 1 and |s| < 1")
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    if not zs.all():
        raise DomainError("elliptic Gamma requires z != 0")
    args = np.concatenate((p * s / zs, zs))
    top = np.abs(args).max(initial=0.0)
    prow, srow = (_nome_powers(x, top, eps, max_terms, "elliptic Gamma") for x in (p, s))
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
        # A product beyond the float range stays there: near q = 1 (thousands
        # of rows) stop early, at a cost of one test per 16 rows.
        if m % 16 == 15 and not np.isfinite(acc).all():
            break
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gamma = acc[:zs.size] / acc[zs.size:]
    bad = ~(np.isfinite(gamma) & np.isfinite(acc[zs.size:]))  # an inf divisor gives 0
    if bad.any():
        raise FloatRangeError(f"elliptic Gamma overflows at z={zs[bad][0]}")
    for j in np.flatnonzero(gamma == 0):            # a true zero has a zero numerator factor
        if (1.0 - np.multiply.outer(prow, row[j])).all():
            raise FloatRangeError(f"elliptic Gamma underflows at z={zs[j]}")
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
                  **mp.truncation).tolist()
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
                  mp.p, s, **mp.truncation).tolist()
    expo = -((mp.r - 1.0) / mp.r) * ((N - 1) / N)
    power = cmath.exp(expo * cmath.log(z)) if N > 1 else 1.0
    return power * g[0] * g[1] / (g[2] * g[3])
