"""Elliptic special functions.

q-Pochhammer products, the odd theta function, Jacobi-style theta brackets
and the elliptic Gamma function, all evaluated by adaptively truncated
products.  Every library product or ratio of brackets takes its brackets
from one ``divisor_brackets`` call, [1] and the pole test included, and a
batch of Gamma values is one ``ell_gamma`` call, each a numpy pass;
``ell_gamma`` computes only the points of its p^m s^n grid that some argument
keeps, laid out m-major in slabs of whole rows.
The uncached scalar ``qpoch``/``theta``/``jacobi_bracket`` chain is the
single-value API and the reference of the tests, suites and closed forms.

Conventions fixed here once for the whole package:

* q, r, k are finite reals with 0 < q < 1 and r > k >= 0, so the nomes
  p = q^(2r) and p* = q^(2(r-k)) are real numbers in (0, 1).
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
from functools import lru_cache

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
    r > k >= 0 so that all nomes lie in (0, 1), and refuses a pack whose
    floats do not: a p that underflows to 0 or a p* that rounds to 1.
    """

    q: float
    r: float
    k: float = 0.0
    trunc_eps: float = DEFAULT_EPS
    max_terms: int = DEFAULT_MAX_TERMS

    def __post_init__(self) -> None:
        # Each test is written so that a NaN fails it.
        if not 0.0 < self.q < 1.0:
            raise ParameterError(f"q must lie in (0, 1), got {self.q}")
        if not (math.isfinite(self.r) and math.isfinite(self.k)):
            raise ParameterError(f"r and k must be finite (got r={self.r}, k={self.k})")
        if not self.k >= 0.0:
            raise ParameterError(f"k must be >= 0, got {self.k}")
        if not self.r > self.k:
            raise ParameterError(
                f"r must exceed k (got r={self.r}, k={self.k}); otherwise p* >= 1"
            )
        if not 0.0 < self.p <= self.pstar < 1.0:
            raise ParameterError(f"the nomes must satisfy 0 < p <= p* < 1, got p={self.p}, "
                                 f"p*={self.pstar} (q={self.q}, r={self.r}, k={self.k})")
        if not 0.0 < self.trunc_eps < math.inf:
            raise ParameterError("trunc_eps must be positive and finite")
        if not self.max_terms >= 1:
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
        """Additive coordinate u with z = q^(2u), via the principal log; a z
        that is 0 or not finite raises DomainError."""
        if z == 0 or not cmath.isfinite(z):
            raise DomainError(f"u = log z / (2 log q) needs a finite z != 0, got z={z}")
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


def jacobi_bracket(u: complex, mp: ModularParams) -> complex:
    """Theta bracket [u] = q^(u^2/r - u) theta_p(q^(2u)).

    The bracket is odd, [-u] = -[u], and quasi-periodic: [u + r] = -[u].  A
    prefactor, q^(2u) or p q^(-2u) (``_lost``), or bracket beyond the float
    range raises FloatRangeError.  [u]* is [u] of ``replace(mp, r=mp.rstar,
    k=0.0)``, whose p and r are p* and r* bit for bit.
    """
    u = complex(u)
    try:
        x = mp.qpow(2.0 * u)
    except OverflowError:
        x = math.inf
    if x == 0 or not (cmath.isfinite(x) and cmath.isfinite(mp.p / x)):
        raise _lost(u)
    try:
        pref = cmath.exp((u * u / mp.r - u) * math.log(mp.q))
    except OverflowError:
        raise FloatRangeError(f"[{u:.6g}] overflows") from None
    return require_finite(pref * theta(x, mp.p, eps=mp.trunc_eps, max_terms=mp.max_terms),
                          f"[{u:.6g}]")


def _lost(u: complex) -> FloatRangeError:
    """The error of a bracket [u] whose q^(2u) or p q^(-2u) is 0 or beyond the
    float range: theta_p(q^(2u)) cannot be formed, though [u] may be finite."""
    return FloatRangeError(f"q^(2u) of [{u:.6g}] leaves the float range")


def jacobi_brackets(u, mp: ModularParams) -> np.ndarray:
    """The brackets [u] of a 1-D array of u, in one numpy pass.

    Same formula and factor set as ``jacobi_bracket``: each (x; p)_inf of
    theta_p(x) (p/x; p)_inf (p; p)_inf keeps the factors with |x p^n| >= eps,
    taken from one row of nome powers and masked per argument; an argument
    that needs more than max_terms factors raises ResourceCapError.  Agrees
    with the scalar bracket to rounding.  As there, a q^(2u) or p q^(-2u)
    that is 0 or beyond the float range, or a bracket beyond it, raises
    FloatRangeError naming the first such bracket.
    """
    u = np.asarray(u, dtype=complex)
    nome, lq, n = mp.p, math.log(mp.q), u.size
    # Values beyond the float range raise FloatRangeError below.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        x = np.exp(2.0 * u * lq)
        args = np.concatenate((x, nome / x, [nome]))
        size = np.abs(args)
        top = size.max()
        if not top < math.inf:  # an inf or nan x or nome / x
            raise _lost(u[~np.isfinite(size[:n] + size[n:-1])][0])
        powers = _nome_powers(nome, top, mp.trunc_eps, mp.max_terms, "theta bracket")
        prods = np.empty_like(args)
        step = max(1, _BATCH_ENTRIES // max(powers.size, 1))
        for lo in range(0, args.size, step):            # one slice unless the nome is near 1
            f = 1.0 - np.multiply.outer(powers, args[lo:lo + step])
            f[np.multiply.outer(powers, size[lo:lo + step]) < mp.trunc_eps] = 1.0
            prods[lo:lo + step] = np.multiply.reduce(f, axis=0)
        out = np.exp((u * u / mp.r - u) * lq) * (prods[:n] * prods[n:2 * n] * prods[-1])
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


def divisor_brackets(args, mp: ModularParams, rel: float = _POLE_TOL) -> tuple:
    """([1] followed by [x] for each x of ``args``, the mask |[x]| < rel |[1]|)
    from one ``jacobi_brackets`` call: the library's one pole rule, relative to
    [1] so that at q close to 1, where every bracket is small, only a zero
    reads as a pole.  Errors come in one order: the call's own, then a [1]
    below the normal float range (FloatRangeError).  The absolute tests of
    Pochhammer factors |1 - x p^m| (``_gamma_fold``, ``qkz.phi_trig``) stay
    apart: those factors are dimensionless, with no [1] to scale by."""
    br = jacobi_brackets(np.concatenate(([1.0], args)), mp)
    return br, np.abs(br) < rel * abs(require_normal(br[0], "[1]"))


def bracket_derivative_at_zero(mp: ModularParams) -> complex:
    """[0]' = -2 log q (p; p)_inf^3.  In [u] = q^(u^2/r - u) theta_p(x) with
    x = q^(2u), the factor 1 - x of (x; p)_inf is -2u log q + O(u^2) while the
    prefactor and the other three products tend to 1 and (p; p)_inf."""
    return -2.0 * math.log(mp.q) * qpoch(mp.p, mp.p, **mp.truncation) ** 3


@lru_cache(maxsize=64)
def _power_row(x: float, max_terms: int) -> tuple:
    """1, x, x^2, ... by repeated multiplication, up to x^max_terms or to the
    last power before an exact 0 (every later one is 0 as well), and their
    magnitudes; both read-only."""
    out = [1.0]
    while len(out) <= max_terms and out[-1] * x != 0.0:
        out.append(out[-1] * x)
    row = np.array(out)
    mag = np.abs(row)
    row.flags.writeable = mag.flags.writeable = False
    return row, mag


def _nome_powers(x: float, top: float, eps: float, max_terms: int, what: str) -> np.ndarray:
    """1, x, x^2, ... while top |x|^n >= eps, from the cached row of x; more
    than max_terms raises ResourceCapError.  |x^n| never grows (|x| < 1), so
    the powers kept are a prefix of the row."""
    row, mag = _power_row(x, max_terms)
    n = np.count_nonzero(top * mag >= eps)
    if n > max_terms:
        raise ResourceCapError(f"{what} needs more than max_terms={max_terms} factors")
    return row[:n]


def ell_gamma(z: complex | list[complex], p: float, s: float, *, eps: float = DEFAULT_EPS,
              max_terms: int = DEFAULT_MAX_TERMS) -> complex | np.ndarray:
    """Elliptic Gamma function Gamma(z; p, s) = (ps/z; p, s)_inf / (z; p, s)_inf.

    ``z`` is one argument (gives a complex) or a 1-D sequence (gives an array),
    all evaluated in one numpy pass over the kept points of the p^m s^n grid.
    Each (x; p, s)_inf keeps the factors with m, n < max_terms and |x| p^m s^n
    >= eps; an argument that needs more raises ResourceCapError.  Grid row m
    is computed only up to the last point some argument keeps, the rows in
    slabs of as many whole grid rows as fit ``_BATCH_ENTRIES`` entries (at
    least one), and the row products are folded in m order (``_gamma_fold``).
    A vanishing factor of a (z; p, s)_inf raises PoleError naming (m, n): the
    smallest m, then the earliest z, then the smallest n.  A product or
    quotient beyond the float range, or a 0 with no exactly-zero numerator
    factor, raises FloatRangeError; a running product that has left the
    float range stops the fold at the next row m = 15 mod 16, and a pole in
    a later row is not looked for.  Gamma(z) Gamma(ps/z) = 1.
    """
    if abs(p) >= 1.0 or abs(s) >= 1.0:
        raise ParameterError("elliptic Gamma requires |p| < 1 and |s| < 1")
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    if not zs.all():
        raise DomainError("elliptic Gamma requires z != 0")
    args = np.concatenate((p * s / zs, zs))
    top = np.abs(args).max(initial=0.0)
    prow, srow = (_nome_powers(x, top, eps, max_terms, "elliptic Gamma") for x in (p, s))
    row = np.multiply.outer(srow, args)             # x s^n by n; grid row m scales it by p^m
    with np.errstate(over="ignore", invalid="ignore"):
        acc = _gamma_fold(zs, prow, row, eps)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gamma = acc[:zs.size] / acc[zs.size:]
    bad = ~(np.isfinite(gamma) & np.isfinite(acc[zs.size:]))  # an inf divisor gives 0
    if bad.any():
        raise FloatRangeError(f"elliptic Gamma overflows at z={zs[bad][0]}")
    for j in np.flatnonzero(gamma == 0):            # a true zero has a zero numerator factor
        if (1.0 - np.multiply.outer(prow, row[:, j])).all():
            raise FloatRangeError(f"elliptic Gamma underflows at z={zs[j]}")
    return complex(gamma[0]) if np.ndim(z) == 0 else gamma


def _gamma_fold(zs: np.ndarray, prow: np.ndarray, row: np.ndarray, eps: float) -> np.ndarray:
    """The products of the factors 1 - p^m (x s^n) of each argument x = row[0]
    over the kept grid points, the row products folded in m order.

    The points (m, n) of a slab of rows up to the last point any argument
    keeps are laid out m-major in one (points x arguments) array, with the
    factors an argument drops set to 1; each row's products are one
    ``reduceat``.  The fold is one ``multiply.reduce`` per run of rows that
    ends at a row m = 15 mod 16 or at the slab's end: over axis 0 of two or
    more columns (there are always two arguments per z) it is the elementwise
    acc * row loop bit for bit, which ``multiply.accumulate`` and a
    one-column reduce are not where that loop fuses multiply-adds.  A product
    that has left the float range ends the fold after such a row.  A
    vanishing factor of one of the last ``zs.size`` arguments raises
    PoleError when the fold reaches its row, named by the smallest m, then
    the earliest z, then the smallest n.
    """
    size = np.abs(row)
    pabs, reach = np.abs(prow), size.max(axis=1, initial=0.0)
    step = max(1, _BATCH_ENTRIES // max(size.size, 1))
    acc = np.ones(row.shape[1], dtype=complex)
    for lo in range(0, prow.size, step):
        mi, ni = np.nonzero(np.multiply.outer(pabs[lo:lo + step], reach) >= eps)
        mi += lo
        f = row.take(ni, axis=0)
        np.multiply(prow.take(mi)[:, None], f, out=f)
        np.subtract(1.0, f, out=f)
        drop = size.take(ni, axis=0)
        np.multiply(pabs.take(mi)[:, None], drop, out=drop)
        f[drop < eps] = 1.0                             # factors an argument drops
        tail = f[:, -zs.size:]
        pole = np.abs(tail.real) < _POLE_TOL            # |f| >= |Re f|: misses no pole
        if pole.any():
            pole[pole] = np.abs(tail[pole]) < _POLE_TOL
        first = mi[pole.any(axis=1)].min() if pole.any() else prow.size
        products = np.multiply.reduceat(f, np.flatnonzero(ni == 0), axis=0)
        ends = [*range((15 - lo) % 16 + 1, len(products), 16), len(products)]
        for a, b in zip([0, *ends], ends):
            if first < lo + b:
                pt, j = np.nonzero(pole & (mi == first)[:, None])
                j, n = min(zip(j, ni[pt]))
                raise PoleError(f"elliptic Gamma pole: factor (m={first}, n={n}) "
                                f"vanishes at z={zs[j]}")
            acc = np.multiply.reduce(np.vstack((acc, products[a:b])), axis=0)
            if (lo + b) % 16 == 0 and not np.isfinite(acc).all():
                return acc
    return acc

