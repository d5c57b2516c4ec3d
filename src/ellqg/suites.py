"""Verification suites behind the CLI.

Every check is a pure function (config, rng) -> (residual, tolerance); the
registry below fixes the check ids and their order.  Tolerances are pinned
constants, not configuration.  Residuals fold with ``np.maximum``/``np.max``,
which keep a nan where ``max(0.0, nan)`` gives 0.0, so a nan fails its row.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import replace
from itertools import product as iproduct

import numpy as np

from . import ellfn, gtrep, qkz, rmat, weightfn
from .ellfn import ell_gamma, jacobi_bracket, qpoch, theta
from .tensorspace import (Composition, DynamicalParams, EvaluationPoints,
                          PartitionIndex, enumerate_partitions, leq)
from .weightfn import TVariables


def _rand_points(rng, n: int, q: float, lo: float = 0.45, hi: float = 0.95) -> EvaluationPoints:
    mods = np.sort(rng.uniform(lo, hi, n))
    phases = rng.uniform(0.0, 2.0 * math.pi, n)
    return EvaluationPoints(tuple(m * cmath.exp(1j * ph)
                                  for m, ph in zip(mods, phases)), q)


def _rand_t(rng, lam: Composition) -> TVariables:
    return TVariables(tuple(
        tuple(rng.uniform(0.4, 0.9) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
              for _ in range(lam.prefix(l)))
        for l in range(1, lam.N)))


def _rand_pdyn(rng, N: int) -> DynamicalParams:
    return DynamicalParams(tuple(rng.uniform(0.7, 1.6) + 1j * rng.uniform(-0.5, 0.5)
                                 for _ in range(N - 1)))


def _compositions(n: int, N: int):
    for sizes in iproduct(range(n + 1), repeat=N):
        if sum(sizes) == n:
            yield Composition(sizes)


# ---------------------------------------------------------------- ellfn ----

def check_theta_quasi_periodicity(cfg, rng):
    mp = cfg.mp
    worst = 0.0
    for _ in range(50):
        z = rng.uniform(0.3, 1.5) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        tz = ellfn.require_normal(theta(z, mp.p, **mp.truncation), f"theta_p({z:.6g})")
        worst = np.max((worst,
                        abs(theta(mp.p * z, mp.p, **mp.truncation) + tz / z) / abs(tz),
                        abs(theta(1.0 / z, mp.p, **mp.truncation) + tz / z) / abs(tz)))
    return worst, 1e-10


def check_bracket_quasi_period_r(cfg, rng):
    mp = cfg.mp
    worst = 0.0
    for _ in range(20):
        u = rng.uniform(-1.5, 1.5) + 1j * rng.uniform(-1.0, 1.0)
        b = ellfn.require_normal(jacobi_bracket(u, mp), f"[{u:.6g}]")
        worst = np.maximum(worst, abs(jacobi_bracket(u + mp.r, mp) + b) / abs(b))
    return worst, 1e-10


def check_bracket_quasi_period_rtau(cfg, rng):
    mp = cfg.mp
    tau = -2j * math.pi / math.log(mp.p)
    worst = 0.0
    for _ in range(20):
        u = rng.uniform(-0.8, 0.8) + 1j * rng.uniform(-0.5, 0.5)
        b = jacobi_bracket(u, mp)
        lhs = jacobi_bracket(u + mp.r * tau, mp)
        rhs = -cmath.exp(-1j * math.pi * tau) * cmath.exp(-2j * math.pi * u / mp.r) * b
        worst = np.maximum(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    return worst, 1e-10


def check_gamma_reflection(cfg, rng):
    mp = cfg.mp
    s = mp.q ** 4
    z = [rng.uniform(0.2, 0.9) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
         for _ in range(50)]
    g = ell_gamma(z + [mp.p * s / x for x in z], mp.p, s, **mp.truncation).tolist()
    return np.max([abs(a * b - 1.0) for a, b in zip(g[:50], g[50:])]), 1e-10


def check_gamma_trig_limit(cfg, rng):
    mp = cfg.mp
    z = [rng.uniform(0.2, 0.8) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
         for _ in range(10)]
    worst = 0.0
    for lhs, x in zip(ell_gamma(z, mp.p, 1e-6, **mp.truncation).tolist(), z):
        rhs = 1.0 / qpoch(x, mp.p, **mp.truncation)
        worst = np.maximum(worst, abs(lhs - rhs) / abs(rhs))
    return worst, 1e-5


def check_bracket_derivative(cfg, rng):
    """The closed-form [0]' against central differences of scalar brackets,
    Richardson-extrapolated over the steps 1e-4 and 5e-5."""
    mp = cfg.mp
    exact = ellfn.require_normal(ellfn.bracket_derivative_at_zero(mp), "[0]'")
    d1, d2 = ((jacobi_bracket(h, mp) - jacobi_bracket(-h, mp)) / (2.0 * h) for h in (1e-4, 5e-5))
    return abs(exact - (4.0 * d2 - d1) / 3.0) / abs(exact), 1e-8


def check_truncation_stability(cfg, rng):
    mp = cfg.mp
    doubled = replace(mp, max_terms=2 * mp.max_terms)
    worst = 0.0
    for _ in range(10):
        z = rng.uniform(0.2, 0.9) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        u = rng.uniform(-1.0, 1.0) + 1j * rng.uniform(-0.5, 0.5)
        worst = np.max((worst,
                        abs(qpoch(z, mp.p, **mp.truncation)
                            - qpoch(z, mp.p, **doubled.truncation)),
                        abs(ellfn.require_normal(jacobi_bracket(u, mp), f"[{u:.6g}]")
                            - jacobi_bracket(u, doubled))))
    return worst, mp.trunc_eps


# ----------------------------------------------------------------- rmat ----

def check_unit_permutation(cfg, rng):
    mp = cfg.mp
    worst = 0.0
    for N in (2, 3):
        pd = _rand_pdyn(rng, N)
        R = rmat.rbar(1.0, pd, mp).dense()
        worst = np.maximum(worst, float(np.max(np.abs(R - rmat.permutation_dense(N)))))
    return worst, 1e-12


def check_ice_rule(cfg, rng):
    mp = cfg.mp
    bad = 0.0
    for N in (2, 3):
        pd = _rand_pdyn(rng, N)
        z = rng.uniform(0.5, 1.4) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        R = rmat.rbar(z, pd, mp)
        for ((a, b), (a2, b2)), coeff in R.entries.items():
            if sorted((a, b)) != sorted((a2, b2)):
                bad = np.maximum(bad, abs(coeff))
        dense = R.dense()
        for ain in range(N * N):
            for aout in range(N * N):
                pin = sorted((ain // N + 1, ain % N + 1))
                pout = sorted((aout // N + 1, aout % N + 1))
                if pin != pout and dense[aout, ain] != 0.0:
                    bad = np.maximum(bad, abs(dense[aout, ain]))
    return bad, 0.0


def check_inversion(cfg, rng):
    mp = cfg.mp
    worst = 0.0
    for N in (2, 3):
        for _ in range(5):
            pd = _rand_pdyn(rng, N)
            z = rng.uniform(0.5, 1.4) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            worst = np.maximum(worst, rmat.check_inversion(z, pd, mp))
    return worst, 1e-9


def check_dybe_n2(cfg, rng):
    mp = cfg.mp
    worst = 0.0
    for _ in range(20):
        pd = _rand_pdyn(rng, 2)
        zs = [rng.uniform(0.6, 1.3) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
              for _ in range(3)]
        worst = np.maximum(worst, rmat.check_dybe(*zs, pd, mp))
    return worst, 1e-9


def check_dybe_n3(cfg, rng):
    mp = cfg.mp
    worst = 0.0
    for _ in range(3):
        pd = _rand_pdyn(rng, 3)
        zs = [rng.uniform(0.6, 1.3) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
              for _ in range(3)]
        worst = np.maximum(worst, rmat.check_dybe(*zs, pd, mp))
    return worst, 1e-9


# ------------------------------------------------------------- weightfn ----

def _wf_cases(max_n: int = 4):
    for N in (2, 3):
        for n in range(1, max_n + 1):
            yield from ((N, lam) for lam in _compositions(n, N))


def check_wf_triangularity(cfg, rng):
    mp = cfg.mp
    worst = 0.0
    for N, lam in _wf_cases():
        z = _rand_points(rng, lam.n, mp.q)
        pd = _rand_pdyn(rng, N)
        worst = np.maximum(worst, weightfn.triangularity_violations(lam, z, pd, mp))
    return worst, 1e-10


def check_wf_diagonal(cfg, rng):
    mp = cfg.mp
    worst = 0.0
    for N, lam in _wf_cases():
        z = _rand_points(rng, lam.n, mp.q)
        pd = _rand_pdyn(rng, N)
        parts, refs = enumerate_partitions(lam), []
        try:
            for I in parts:
                refs.append(weightfn.diagonal_value(I, z, mp))
        finally:  # as label by label: the values before a raising closed form come first
            vals = weightfn.specialize_points([(I, pd, (I,)) for I in parts[:len(refs)]], z, mp)
        for ref, (val,) in zip(refs, vals):
            worst = np.maximum(worst, abs(val - ref) / max(1e-30, abs(ref)))
    return worst, 1e-9


def check_wf_symmetry(cfg, rng):
    mp = cfg.mp
    worst = 0.0
    for N, mu in [(2, (1, 1, 2)), (2, (1, 2, 1, 2)), (3, (1, 2, 3, 2))]:
        I = PartitionIndex.from_colors(mu, N)
        lam = I.shape()
        z = _rand_points(rng, lam.n, mp.q)
        pd = _rand_pdyn(rng, N)
        t = _rand_t(rng, lam)
        base = weightfn.w_tilde(I, t, z, pd, mp).value
        perm = TVariables(tuple(tuple(reversed(lvl)) for lvl in t.levels))
        worst = np.maximum(worst, abs(weightfn.w_tilde(I, perm, z, pd, mp).value - base)
                           / max(1.0, abs(base)))
    return worst, 1e-12


def check_wf_transition(cfg, rng):
    mp = cfg.mp
    cases = []
    for N in (2, 3):
        for n in range(2, 5):
            for mu in iproduct(range(1, N + 1), repeat=n):
                lam = PartitionIndex.from_colors(mu, N).shape()
                z = _rand_points(rng, n, mp.q)
                pd = _rand_pdyn(rng, N)
                cases.append((mu, _rand_t(rng, lam), z, pd))
    worst = 0.0
    for residuals in weightfn.transition_residuals(cases, mp):
        for res in residuals:
            worst = np.maximum(worst, res)
    return worst, 1e-9


def check_wf_modified_routes(cfg, rng):
    mp = cfg.mp
    worst = 0.0
    cases = [(2, (1, 2)), (2, (1, 1, 2)), (2, (2, 1, 2, 1)), (3, (1, 2, 3)),
             (3, (2, 1, 3, 1))]
    for _ in range(4):
        for N, mu in cases:
            I = PartitionIndex.from_colors(mu, N)
            lam = I.shape()
            z = _rand_points(rng, lam.n, mp.q)
            pd = _rand_pdyn(rng, N)
            t = _rand_t(rng, lam)
            a = weightfn.modified_w(I, t, z, pd, mp, route="ratio")
            b = weightfn.modified_w(I, t, z, pd, mp, route="sym")
            worst = np.maximum(worst, abs(a - b) / max(1.0, abs(a)))
    return worst, 1e-10


def check_wf_stab(cfg, rng):
    mp = cfg.mp
    worst = 0.0
    for N, mu_shape in [(2, (1, 1)), (2, (2, 1)), (3, (1, 1, 1))]:
        lam = Composition(mu_shape)
        z = _rand_points(rng, lam.n, mp.q, lo=0.4, hi=0.9)
        pd = _rand_pdyn(rng, N)
        parts = enumerate_partitions(lam)
        rev = {I: PartitionIndex.from_colors(tuple(reversed(I.colors())), N)
               for I in parts}
        mat = weightfn.stab_matrix(lam, z, pd, mp)
        for I in parts:
            # A diagonal is a product of nonzero brackets: on its own scale it
            # vanishes only as an exact 0, a product that lost every digit.
            if mat[I][I] == 0:
                worst = np.maximum(worst, 1.0)
            for J in parts:
                if not leq(rev[J], rev[I]):
                    worst = np.maximum(worst, abs(mat[I][J]))
    return worst, 1e-9


def check_wf_trig_degeneration(cfg, rng):
    """Values converge to a finite trigonometric limit as p -> 0+.

    The rate is O(1/log(1/p)) because the bracket prefactor q^(u^2/r) dies
    off only as r -> infinity, so distances to a small-p proxy limit must
    contract geometrically in the number of decades; the residual is the
    worst per-step contraction ratio.
    """
    mu = (1, 2, 1)
    N = 2
    lam = Composition((2, 1))
    I = PartitionIndex.from_colors(mu, N)
    vals = []
    for p_target in (1e-4, 1e-6, 1e-8, 1e-12):
        mp = qkz.nome_params(cfg.mp, p_target)
        rng_local = np.random.default_rng(cfg.seed + 104729)
        z = _rand_points(rng_local, lam.n, mp.q)
        pd = _rand_pdyn(rng_local, N)
        t = _rand_t(rng_local, lam)
        vals.append(weightfn.w_tilde(I, t, z, pd, mp).value)
    limit = vals[-1]
    dists = [abs(v - limit) for v in vals[:-1]]
    if min(dists) == 0.0:
        return 0.0, 0.7
    return np.max((dists[1] / dists[0], dists[2] / dists[1])), 0.7


# ---------------------------------------------------------------- gtrep ----

def check_gt_triangular(cfg, rng):
    mp = replace(cfg.mp, k=0.0)
    worst = 0.0
    for N, lam in _wf_cases(max_n=4):
        z = _rand_points(rng, lam.n, mp.q)
        pd = _rand_pdyn(rng, N)
        parts = enumerate_partitions(lam)
        for I, state in zip(parts, gtrep.gt_vectors(parts, z, pd, mp)):
            for J in parts:
                if not leq(I, J):
                    worst = np.maximum(worst, abs(state.coefficient(J.colors())))
    return worst, 1e-10


def check_gt_diagonal(cfg, rng):
    mp = replace(cfg.mp, k=0.0)
    worst = 0.0
    for N, lam in _wf_cases(max_n=3):
        z = _rand_points(rng, lam.n, mp.q)
        pd = _rand_pdyn(rng, N)
        zinv = EvaluationPoints(tuple(1.0 / x for x in z.z), mp.q)
        parts, refs = enumerate_partitions(lam), []
        try:
            for I in parts:
                refs.append(weightfn.diagonal_value(I, zinv, mp))
        finally:  # as label by label: each vector comes before its closed form
            states = gtrep.gt_vectors(parts[:len(refs) + 1], z, pd, mp)
        for I, state, ref in zip(parts, states, refs):
            worst = np.maximum(worst, abs(state.coefficient(I.colors()) - ref)
                               / max(1e-30, abs(ref)))
    return worst, 1e-9


def _exchange_worst(cfg, rng, current: str) -> float:
    mp = replace(cfg.mp, k=0.0)
    tag = not cfg.break_shift
    worst = 0.0
    cases = [(2, (1, 1)), (2, (2, 2)), (2, (1, 2, 1, 2)), (3, (2, 3, 2, 3)),
             (3, (1, 2, 2, 3))]
    for N, mu in cases:
        I = PartitionIndex.from_colors(mu, N)
        z = _rand_points(rng, len(mu), mp.q)
        pd = _rand_pdyn(rng, N)
        for j1 in range(1, N):
            for j2 in range(1, N):
                worst = np.maximum(worst, gtrep.exchange_check(
                    j1, j2, I, z, pd, mp, current=current, tag_shift=tag))
    return worst


def check_gt_exchange_ee(cfg, rng):
    return _exchange_worst(cfg, rng, "e"), 1e-9


def check_gt_exchange_ff(cfg, rng):
    return _exchange_worst(cfg, rng, "f"), 1e-9


def check_gt_exchange_commuting(cfg, rng):
    mp = replace(cfg.mp, k=0.0)
    worst = 0.0
    for mu in ((2, 4, 2, 4), (1, 3, 1, 3)):
        I = PartitionIndex.from_colors(mu, 4)
        z = _rand_points(rng, 4, mp.q)
        pd = _rand_pdyn(rng, 4)
        worst = np.max((worst,
                        gtrep.exchange_check(1, 3, I, z, pd, mp, current="e"),
                        gtrep.exchange_check(1, 3, I, z, pd, mp, current="f")))
    return worst, 1e-12


def check_gt_phi_ratio(cfg, rng):
    mp = replace(cfg.mp, k=0.0)
    worst = 0.0
    for N, mu in [(2, (1, 2, 2, 1)), (3, (1, 2, 3, 2))]:
        I = PartitionIndex.from_colors(mu, N)
        z = _rand_points(rng, len(mu), mp.q)
        v = rng.uniform(0.1, 0.5) + 1j * rng.uniform(-0.3, 0.3)
        for j in range(1, N):
            worst = np.maximum(worst, gtrep.phi_move_ratio_check(j, I, z, v, mp))
    return worst, 1e-10


# ------------------------------------------------------------------ qkz ----

def check_qkz_degeneration(cfg, rng):
    mp = replace(cfg.mp, k=cfg.mp.k or cfg.mp.r / 3.0)
    worst = 0.0
    for N, mu in [(2, (1, 2)), (2, (1, 1, 2)), (3, (1, 2, 3))]:
        lam = PartitionIndex.from_colors(mu, N).shape()
        z = _rand_points(rng, lam.n, mp.q, lo=0.35, hi=0.7)
        t = _rand_t(rng, lam)
        a = qkz.phi_kernel(t, z, mp, 1e-6)
        b = qkz.phi_trig(t, z, mp)
        worst = np.maximum(worst, abs(a - b) / max(1.0, abs(b)))
    return worst, 1e-4


def check_qkz_covariance(cfg, rng):
    mp = replace(cfg.mp, k=cfg.mp.k or cfg.mp.r / 3.0)
    worst = 0.0
    for N, mu in [(2, (1, 2)), (3, (1, 2, 3))]:
        lam = PartitionIndex.from_colors(mu, N).shape()
        pd = _rand_pdyn(rng, N)
        t = _rand_t(rng, lam)
        base = qkz.e_factor(t, pd, mp)
        for l in range(1, lam.N):
            for a in range(lam.prefix(l)):
                levels = [list(lvl) for lvl in t.levels]
                levels[l - 1][a] *= mp.p
                shifted = TVariables(tuple(tuple(lvl) for lvl in levels))
                ratio = qkz.e_factor(shifted, pd, mp) / base
                expected = cmath.exp(2.0 * pd.value(l, l + 1) * math.log(mp.q))
                worst = np.maximum(worst, abs(ratio - expected) / abs(expected))
    return worst, 1e-12


def check_qkz_symmetry(cfg, rng):
    mp = replace(cfg.mp, k=cfg.mp.k or cfg.mp.r / 3.0)
    lam = Composition((2, 1))
    z = _rand_points(rng, 3, mp.q, lo=0.35, hi=0.7)
    t = _rand_t(rng, lam)
    ts = TVariables(((t.levels[0][1], t.levels[0][0]),))
    a = qkz.phi_kernel(t, z, mp, 0.2)
    b = qkz.phi_kernel(ts, z, mp, 0.2)
    return abs(a - b) / max(1.0, abs(a)), 1e-12


def check_qkz_quadrature(cfg, rng):
    """Torus quadrature self-convergence on the single-valued kernel.

    The full integrand carries a fractional power of each t variable (the
    e-factor only partially cancels the weight-function prefactors), so the
    product trapezoid converges algebraically there; the kernel alone is
    single valued on the torus and must self-converge geometrically.
    """
    mp = replace(cfg.mp, k=cfg.mp.k or cfg.mp.r / 3.0)
    pd = DynamicalParams((0.9 + 0.2j,))
    z = EvaluationPoints((0.38 * cmath.exp(0.4j), 0.45 * cmath.exp(-1.3j)), mp.q)
    I = PartitionIndex.from_colors((1, 2), 2)
    spec = qkz.IntegrandSpec(I=I, z=z, Pdyn=pd, mp=mp, trig=True)
    _, rep = qkz.torus_quadrature(spec, grid_size=32,
                                  fn=lambda t: qkz.phi_trig(t, z, mp))
    return rep["delta"], 1e-6


SUITES = {
    "ellfn": [
        ("ellfn.theta_quasi_periodicity", check_theta_quasi_periodicity),
        ("ellfn.bracket_quasi_period_r", check_bracket_quasi_period_r),
        ("ellfn.bracket_quasi_period_rtau", check_bracket_quasi_period_rtau),
        ("ellfn.gamma_reflection", check_gamma_reflection),
        ("ellfn.gamma_trig_limit", check_gamma_trig_limit),
        ("ellfn.bracket_derivative", check_bracket_derivative),
        ("ellfn.truncation_stability", check_truncation_stability),
    ],
    "rmat": [
        ("rmat.unit_permutation", check_unit_permutation),
        ("rmat.ice_rule", check_ice_rule),
        ("rmat.inversion", check_inversion),
        ("rmat.dybe_n2", check_dybe_n2),
        ("rmat.dybe_n3", check_dybe_n3),
    ],
    "wf": [
        ("wf.symmetry", check_wf_symmetry),
        ("wf.triangularity", check_wf_triangularity),
        ("wf.diagonal", check_wf_diagonal),
        ("wf.transition", check_wf_transition),
        ("wf.modified_routes", check_wf_modified_routes),
        ("wf.stable_envelope", check_wf_stab),
        ("wf.trig_degeneration", check_wf_trig_degeneration),
    ],
    "gt": [
        ("gt.basis_triangular", check_gt_triangular),
        ("gt.basis_diagonal", check_gt_diagonal),
        ("gt.exchange_ee", check_gt_exchange_ee),
        ("gt.exchange_ff", check_gt_exchange_ff),
        ("gt.exchange_commuting", check_gt_exchange_commuting),
        ("gt.phi_ratio", check_gt_phi_ratio),
    ],
    "qkz": [
        ("qkz.kernel_degeneration", check_qkz_degeneration),
        ("qkz.e_factor_covariance", check_qkz_covariance),
        ("qkz.kernel_symmetry", check_qkz_symmetry),
        ("qkz.quadrature_convergence", check_qkz_quadrature),
    ],
}

SUITE_NAMES = tuple(SUITES)


def checks_for(name: str):
    if name == "all":
        out = []
        for suite in SUITE_NAMES:
            out.extend(SUITES[suite])
        return out
    if name not in SUITES:
        raise KeyError(name)
    return list(SUITES[name])
