"""Assembly of q-KZ integrands: exponential factor, kernels, torus quadrature.

The integrand is the product e(t, Pi) * Phi(t, z) * W_I(t, z, Pi), with an
optional second weight function W_J whose bracket nome is the trace
parameter Q instead of p (identical code path, substituted parameters).
The overall constant of the trace is defined only up to this product; no
further normalisation is attempted.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import combinations, count, pairwise, product

from .ellfn import _POLE_TOL, ModularParams, ell_gamma, qpoch, require_normal
from .errors import (EllqgError, FloatRangeError, ParameterError, PoleError, ResourceCapError,
                     ShapeError)
from .tensorspace import Composition, DynamicalParams, EvaluationPoints, PartitionIndex
from .weightfn import TVariables, w_tilde

QUAD_MAX_VARS = 3
QUAD_MAX_GRID = 64


def nome_params(mp: ModularParams, nome: float) -> ModularParams:
    """ModularParams with the same q whose unstarred nome equals ``nome``."""
    if not 0.0 < nome < 1.0:
        raise ParameterError("substituted nome must lie in (0, 1)")
    return replace(mp, r=math.log(nome) / (2.0 * math.log(mp.q)), k=0.0)


@dataclass(frozen=True)
class IntegrandSpec:
    """Everything fixed across one integrand evaluation.

    ``J`` switches on the trace-cycle insertion with nome ``Q``; it requires
    the zero-weight condition lambda_1 = ... = lambda_N.  ``trig`` selects
    the trigonometric kernel.
    """

    I: PartitionIndex
    z: EvaluationPoints
    Pdyn: DynamicalParams
    mp: ModularParams
    Q: float = 0.0
    J: PartitionIndex | None = None
    trig: bool = False

    def __post_init__(self) -> None:
        lam = self.I.shape()
        if self.J is not None:
            if self.J.shape() != lam:
                raise ShapeError("cycle label must share the cocycle shape")
            if len(set(lam.sizes)) != 1:
                raise ShapeError(
                    "trace insertion requires the zero-weight condition "
                    "lambda_1 = ... = lambda_N")
            if not 0.0 < self.Q < 1.0:
                raise ParameterError("trace nome Q must lie in (0, 1)")
        if not self.trig and self.J is None and not 0.0 < self.Q < 1.0:
            raise ParameterError("elliptic kernel needs a trace nome Q in (0, 1)")
        self.z.require_q(self.mp.q)
        p = self.mp.p
        for x in self.z.z:
            if not p < abs(x) < 1.0:
                raise ParameterError(
                    f"spectral point {x} outside the contour domain |p| < |z| < 1")

    @property
    def lam(self) -> Composition:
        return self.I.shape()

    @cached_property
    def trace_mp(self) -> ModularParams:
        """``mp`` with the unstarred nome Q, as the cycle insertion W_J reads it."""
        return nome_params(self.mp, self.Q)

    @property
    def n_vars(self) -> int:
        return sum(self.lam.prefix(l) for l in range(1, self.lam.N))


def e_factor(t: TVariables, Pdyn: DynamicalParams, mp: ModularParams) -> complex:
    """Quasi-constant exponential factor of the trace integrand.

    exp( sum_l log(Pi_l / Pi_{l+1}) * sum_a log t^(l)_a / log p ) with
    log(Pi_l / Pi_{l+1}) = 2 (P_l + eta_l) log q.  Scaling any t^(l)_a by p
    multiplies the value by exactly Pi_l / Pi_{l+1}.  A value outside the
    normal float range raises FloatRangeError.
    """
    lq, lp = math.log(mp.q), math.log(mp.p)
    total = 0.0 + 0.0j
    for l, lvl in enumerate(t.levels, 1):
        log_pi = 2.0 * Pdyn.value(l, l + 1) * lq
        total += log_pi * sum(cmath.log(x) for x in lvl) / lp
    try:
        return require_normal(cmath.exp(total), "e(t, Pi)")
    except OverflowError:
        raise FloatRangeError("e(t, Pi) overflows") from None


def _level_arrays(t: TVariables, z: EvaluationPoints):
    return list(t.levels) + [z.z]


def _var(t: TVariables, l: int, a: int) -> str:
    """The name of variable a of level l (0-based), z at the top level."""
    return f"t^({l + 1})_{a + 1}" if l < len(t.levels) else f"z_{a + 1}"


def _names(t: TVariables, l: int, a: int, m: int, b: int) -> tuple[str, str]:
    """The names of a ``_kernel_factors`` numerator and denominator by their variables."""
    x = f"{_var(t, l, a)}/{_var(t, m, b)}"
    return (x, f"p* {x}") if m > l else (f"p* {x}", x)


def _kernel_factors(t: TVariables, z: EvaluationPoints, ps: float) -> list:
    """The kernel's Gamma ratios Gamma(numerator) / Gamma(denominator), per
    level each cross-level pair, then each same-level couple, as one group of
    (numerator, denominator, (l, a, m, b)) with x = v^(l)_a / v^(m)_b (levels
    0-based, z the top one): (x, p* x) across levels, (p* x, x) within one."""
    out = []
    for l, (cur, nxt) in enumerate(pairwise(_level_arrays(t, z))):
        out += [((ta / tb, ps * ta / tb, (l, a, l + 1, b)),)
                for a, ta in enumerate(cur) for b, tb in enumerate(nxt)]
        out += [((ps * ta / tb, ta / tb, (l, a, l, b)), (ps * tb / ta, tb / ta, (l, b, l, a)))
                for (a, ta), (b, tb) in combinations(enumerate(cur), 2)]
    return out


def phi_kernel(t: TVariables, z: EvaluationPoints, mp: ModularParams,
               Q: float) -> complex:
    """Elliptic hypergeometric kernel with Gamma nome pair (p, Q).

    Cross-level block: Gamma(t_a/t'_b) / Gamma(p* t_a/t'_b); same-level
    block: Gamma(p* t_a/t_b) Gamma(p* t_b/t_a) / (Gamma(t_a/t_b) Gamma(t_b/t_a)).
    All Gammas of one point are evaluated by one batched ``ell_gamma`` call.
    A Gamma pole raises PoleError naming the first argument with a pole by
    its variables, as ``t^(1)_1/t^(2)_1``.
    """
    groups = _kernel_factors(t, z, mp.pstar)
    args = [x for group in groups for num, den, _ in group for x in (num, den)]
    try:
        g = ell_gamma(args, mp.p, Q, **mp.truncation).tolist()
    except PoleError as exc:
        for *pair, idx in (f for group in groups for f in group):
            for x, what in zip(pair, _names(t, *idx)):
                try:
                    ell_gamma(x, mp.p, Q, **mp.truncation)
                except PoleError as single:
                    raise PoleError(f"{single} ({what})") from exc
                except EllqgError:
                    continue
        raise
    return math.prod((num / den for num, den in zip(g[::2], g[1::2])), start=1.0 + 0.0j)


def phi_trig(t: TVariables, z: EvaluationPoints, mp: ModularParams) -> complex:
    """Trigonometric (Q -> 0) kernel built from single q-Pochhammers.

    Each Gamma ratio of ``phi_kernel`` becomes the Pochhammers of its
    denominators over those of its numerators.  A divisor (x; p)_inf with a
    vanishing factor, |1 - x p^m| < 1e-12 as in ``ell_gamma``, raises
    PoleError naming the pair of variables in x.
    """
    p = mp.p
    qp = lambda x: qpoch(x, p, **mp.truncation)

    def divisor(x: complex, idx: tuple) -> complex:
        w = complex(x)
        for m in count():  # a factor 1 - w with |w| <= 1/2 cannot vanish
            if abs(w) <= 0.5:
                return qp(x)
            if abs(1.0 - w) < _POLE_TOL:
                raise PoleError(f"trigonometric kernel pole: factor (m={m}) of "
                                f"({_names(t, *idx)[0]}; p)_inf vanishes")
            w *= p

    total = 1.0 + 0.0j
    for group in _kernel_factors(t, z, mp.pstar):
        total *= (math.prod(qp(den) for _, den, _ in group)
                  / math.prod(divisor(num, idx) for num, _, idx in group))
    return total


def integrand(spec: IntegrandSpec, t: TVariables) -> complex:
    """e(t, Pi) * Phi(t, z) * W_I, times the nome-Q cycle insertion if set."""
    t.check_shape(spec.lam, spec.z)
    val = e_factor(t, spec.Pdyn, spec.mp)
    if spec.trig:
        val *= phi_trig(t, spec.z, spec.mp)
    else:
        val *= phi_kernel(t, spec.z, spec.mp, spec.Q)
    val *= w_tilde(spec.I, t, spec.z, spec.Pdyn, spec.mp).value
    if spec.J is not None:
        val *= w_tilde(spec.J, t, spec.z, spec.Pdyn, spec.trace_mp).value
    return val


def torus_quadrature(spec: IntegrandSpec, grid_size: int = 32,
                     fn=None):
    """Product-trapezoid estimate of the torus integral (experimental).

    Averages the integrand over a uniform product grid on the unit torus
    (exact for trigonometric polynomials of degree below the grid size).
    Returns (value, report) where the report compares grid_size against
    2 * grid_size; no external ground truth is claimed.
    """
    M = spec.n_vars
    if M > QUAD_MAX_VARS:
        raise ResourceCapError(f"quadrature supports at most {QUAD_MAX_VARS} variables")
    if grid_size < 1:
        raise ParameterError(f"grid_size must be >= 1, got {grid_size}")
    if grid_size > QUAD_MAX_GRID:
        raise ResourceCapError(f"grid_size capped at {QUAD_MAX_GRID} per circle")
    if fn is None:
        fn = lambda t: integrand(spec, t)
    lam = spec.lam
    shapes = [lam.prefix(l) for l in range(1, lam.N)]

    def estimate(G: int) -> complex:
        total = 0.0 + 0.0j
        for angles in product(range(G), repeat=M):
            vals = [cmath.exp(2j * math.pi * a / G) for a in angles]
            levels, pos = [], 0
            for size in shapes:
                levels.append(tuple(vals[pos:pos + size]))
                pos += size
            total += fn(TVariables(tuple(levels)))
        return total / G ** M

    coarse = estimate(grid_size)
    fine = estimate(2 * grid_size)
    report = {"grid": grid_size, "coarse": coarse, "fine": fine,
              "delta": abs(fine - coarse)}
    return fine, report
