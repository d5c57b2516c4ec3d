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
from dataclasses import dataclass
from itertools import combinations, pairwise, product

from .ellfn import ModularParams, ell_gamma, qpoch
from .errors import ParameterError, ResourceCapError, ShapeError
from .tensorspace import Composition, DynamicalParams, EvaluationPoints, PartitionIndex
from .weightfn import TVariables, w_tilde

QUAD_MAX_VARS = 3
QUAD_MAX_GRID = 64


def nome_params(mp: ModularParams, nome: float) -> ModularParams:
    """ModularParams with the same q whose unstarred nome equals ``nome``."""
    if not 0.0 < nome < 1.0:
        raise ParameterError("substituted nome must lie in (0, 1)")
    r = math.log(nome) / (2.0 * math.log(mp.q))
    return ModularParams(q=mp.q, r=r, k=0.0,
                         trunc_eps=mp.trunc_eps, max_terms=mp.max_terms)


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
        p = self.mp.p
        for x in self.z.z:
            if not p < abs(x) < 1.0:
                raise ParameterError(
                    f"spectral point {x} outside the contour domain |p| < |z| < 1")

    @property
    def lam(self) -> Composition:
        return self.I.shape()

    @property
    def n_vars(self) -> int:
        return sum(self.lam.prefix(l) for l in range(1, self.lam.N))


def e_factor(t: TVariables, Pdyn: DynamicalParams, mp: ModularParams) -> complex:
    """Quasi-constant exponential factor of the trace integrand.

    exp( sum_l log(Pi_l / Pi_{l+1}) * sum_a log t^(l)_a / log p ) with
    log(Pi_l / Pi_{l+1}) = 2 (P_l + eta_l) log q.  Scaling any t^(l)_a by p
    multiplies the value by exactly Pi_l / Pi_{l+1}.
    """
    lq = math.log(mp.q)
    lp = math.log(mp.p)
    total = 0.0 + 0.0j
    for l, lvl in enumerate(t.levels, 1):
        if l >= Pdyn.N:
            break
        log_pi = 2.0 * Pdyn.value(l, l + 1) * lq
        total += log_pi * sum(cmath.log(x) for x in lvl) / lp
    return cmath.exp(total)


def _level_arrays(t: TVariables, z: EvaluationPoints):
    return list(t.levels) + [z.z]


def phi_kernel(t: TVariables, z: EvaluationPoints, mp: ModularParams,
               Q: float) -> complex:
    """Elliptic hypergeometric kernel with Gamma nome pair (p, Q).

    Cross-level block: Gamma(t_a/t'_b) / Gamma(p* t_a/t'_b); same-level
    block: Gamma(p* t_a/t_b) Gamma(p* t_b/t_a) / (Gamma(t_a/t_b) Gamma(t_b/t_a)).
    All Gammas of one point are evaluated by one batched ``ell_gamma`` call.
    """
    ps = mp.pstar
    pairs = []                      # (numerator, denominator) Gamma arguments
    for cur, nxt in pairwise(_level_arrays(t, z)):
        pairs += [(ta / tb, ps * ta / tb) for ta in cur for tb in nxt]
        for ta, tb in combinations(cur, 2):
            pairs += [(ps * ta / tb, ta / tb), (ps * tb / ta, tb / ta)]
    g = ell_gamma([x for pair in pairs for x in pair], mp.p, Q,
                  eps=mp.trunc_eps, max_terms=mp.max_terms).tolist()
    return math.prod((num / den for num, den in zip(g[::2], g[1::2])), start=1.0 + 0.0j)


def phi_trig(t: TVariables, z: EvaluationPoints, mp: ModularParams) -> complex:
    """Trigonometric (Q -> 0) kernel built from single q-Pochhammers."""
    p, ps = mp.p, mp.pstar
    qp = lambda x: qpoch(x, p, eps=mp.trunc_eps, max_terms=mp.max_terms)
    levels = _level_arrays(t, z)
    total = 1.0 + 0.0j
    for l in range(len(levels) - 1):
        cur, nxt = levels[l], levels[l + 1]
        for ta in cur:
            for tb in nxt:
                total *= qp(ps * ta / tb) / qp(ta / tb)
        for a in range(len(cur)):
            for b in range(a + 1, len(cur)):
                ta, tb = cur[a], cur[b]
                total *= (qp(ta / tb) * qp(tb / ta)
                          / (qp(ps * ta / tb) * qp(ps * tb / ta)))
    return total


def integrand(spec: IntegrandSpec, t: TVariables) -> complex:
    """e(t, Pi) * Phi(t, z) * W_I, times the nome-Q cycle insertion if set."""
    t.check_shape(spec.lam)
    val = e_factor(t, spec.Pdyn, spec.mp)
    if spec.trig:
        val *= phi_trig(t, spec.z, spec.mp)
    else:
        val *= phi_kernel(t, spec.z, spec.mp, spec.Q)
    val *= w_tilde(spec.I, t, spec.z, spec.Pdyn, spec.mp).value
    if spec.J is not None:
        mp_q = nome_params(spec.mp, spec.Q)
        val *= w_tilde(spec.J, t, spec.z, spec.Pdyn, mp_q).value
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
