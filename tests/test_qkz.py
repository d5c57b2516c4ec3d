import cmath
import math

import numpy as np
import pytest

from conftest import random_pdyn, random_t, shape_of
from ellqg.ellfn import ModularParams, ell_gamma, qpoch
from ellqg.errors import ParameterError, PoleError, ResourceCapError, ShapeError
from ellqg.qkz import (IntegrandSpec, e_factor, integrand, nome_params,
                       phi_kernel, phi_trig, torus_quadrature)
from ellqg.tensorspace import (Composition, DynamicalParams, EvaluationPoints,
                               PartitionIndex)
from ellqg.weightfn import TVariables, specialize, w_tilde


def qkz_points(rng, n, q, p):
    lo = math.sqrt(p) if p > 0.1 else 0.35
    mods = np.sort(rng.uniform(max(lo, 0.35), 0.7, n))
    phases = rng.uniform(0, 2 * np.pi, n)
    return EvaluationPoints(tuple(m * cmath.exp(1j * ph)
                                  for m, ph in zip(mods, phases)), q)


def test_e_factor_trivial_cases(mp_level, rng):
    lam = Composition((1, 1))
    # equal dynamical components: no l survives for N=2 unless P_1 = 0
    pd0 = DynamicalParams((0.0,))
    t = random_t(rng, lam)
    assert abs(e_factor(t, pd0, mp_level) - 1.0) < 1e-14
    # unit t variables
    pd = random_pdyn(rng, 2)
    t1 = TVariables(((1.0,),))
    assert abs(e_factor(t1, pd, mp_level) - 1.0) < 1e-14


def test_e_factor_p_shift_covariance(mp_level, rng):
    for N, mu in [(2, (1, 2)), (3, (1, 2, 3))]:
        lam = shape_of(mu, N)
        pd = random_pdyn(rng, N)
        t = random_t(rng, lam)
        base = e_factor(t, pd, mp_level)
        for l in range(1, lam.N):
            for a in range(lam.prefix(l)):
                levels = [list(lvl) for lvl in t.levels]
                levels[l - 1][a] *= mp_level.p
                shifted = TVariables(tuple(tuple(x) for x in levels))
                ratio = e_factor(shifted, pd, mp_level) / base
                expected = cmath.exp(2 * pd.value(l, l + 1)
                                     * math.log(mp_level.q))
                assert abs(ratio - expected) < 1e-12 * abs(expected)


def test_phi_kernel_q_to_zero_matches_trig(mp_level, rng):
    for N, mu in [(2, (1, 2)), (2, (1, 1, 2)), (3, (1, 2, 3))]:
        lam = shape_of(mu, N)
        z = qkz_points(rng, lam.n, mp_level.q, mp_level.p)
        t = random_t(rng, lam)
        a = phi_kernel(t, z, mp_level, 1e-6)
        b = phi_trig(t, z, mp_level)
        assert abs(a - b) < 1e-4 * max(1.0, abs(b))


def test_phi_trig_single_variable_has_cross_level_block_only(mp_level, rng):
    lam = Composition((1, 1))
    z = qkz_points(rng, 2, mp_level.q, mp_level.p)
    tval = 0.8 * cmath.exp(1.1j)
    t = TVariables(((tval,),))
    val = phi_trig(t, z, mp_level)
    p, ps = mp_level.p, mp_level.pstar
    ref = 1.0
    for zb in z.z:
        ref *= qpoch(ps * tval / zb, p) / qpoch(tval / zb, p)
    assert abs(val - ref) < 1e-12 * abs(ref)


def test_phi_kernel_swap_symmetry(mp_level, rng):
    lam = Composition((2, 1))
    z = qkz_points(rng, 3, mp_level.q, mp_level.p)
    t = random_t(rng, lam)
    ts = TVariables(((t.levels[0][1], t.levels[0][0]),))
    a = phi_kernel(t, z, mp_level, 0.2)
    b = phi_kernel(ts, z, mp_level, 0.2)
    assert abs(a - b) < 1e-12 * max(1.0, abs(a))


def _trace_shaped(rng):
    """Kernel inputs shaped like the q-KZ trace points: lambda = (2, 2)."""
    r = 3.1
    mp = ModularParams(q=0.8, r=r, k=r / 3.0)
    z = qkz_points(rng, 4, mp.q, mp.p)
    return mp, z, random_t(rng, Composition((2, 2)))


def test_phi_kernel_matches_scalar_gamma_loop(rng):
    Q = 0.2
    for _ in range(5):
        mp, z, t = _trace_shaped(rng)
        g = lambda x: ell_gamma(x, mp.p, Q)
        ps = mp.pstar
        ref = 1.0 + 0.0j
        levels = list(t.levels) + [z.z]
        for cur, nxt in zip(levels, levels[1:]):
            for ta in cur:
                for tb in nxt:
                    ref *= g(ta / tb) / g(ps * ta / tb)
            for a in range(len(cur)):
                for b in range(a + 1, len(cur)):
                    ta, tb = cur[a], cur[b]
                    ref *= (g(ps * ta / tb) * g(ps * tb / ta)
                            / (g(ta / tb) * g(tb / ta)))
        val = phi_kernel(t, z, mp, Q)
        assert abs(val - ref) <= 1e-13 * abs(ref)


def test_phi_kernel_coincident_variables_is_a_pole(rng):
    mp, z, t = _trace_shaped(rng)
    ta = t.levels[0][0]
    with pytest.raises(PoleError, match=r"m=0, n=0"):
        phi_kernel(TVariables(((ta, ta),)), z, mp, 0.2)


def test_nome_params_substitution(mp):
    mpq = nome_params(mp, 0.2)
    assert abs(mpq.p - 0.2) < 1e-12
    assert mpq.q == mp.q


def test_integrand_components_and_zero(mp_level, rng):
    mu = (1, 2)
    I = PartitionIndex.from_colors(mu, 2)
    pd = random_pdyn(rng, 2)
    z = qkz_points(rng, 2, mp_level.q, mp_level.p)
    spec = IntegrandSpec(I=I, z=z, Pdyn=pd, mp=mp_level, trig=True)
    t = random_t(rng, Composition((1, 1)))
    val = integrand(spec, t)
    ref = (e_factor(t, pd, mp_level) * phi_trig(t, z, mp_level)
           * w_tilde(I, t, z, pd, mp_level).value)
    assert abs(val - ref) < 1e-12 * max(1.0, abs(ref))
    assert val == val  # finite, not NaN

    # triangularity zero embedded at a grid point: the label (1,2) weight
    # function vanishes at the specialization point of (2,1).  The kernel
    # has a simple pole at the same point, so the integrand itself stays
    # bounded (zero cancels pole) instead of blowing up.
    J = PartitionIndex.from_colors((2, 1), 2)
    assert abs(specialize(I, J, z, pd, mp_level).value) < 1e-12
    near = [abs(integrand(spec, TVariables(((z.z[1] * (1 + eps),),))))
            for eps in (1e-4, 1e-5)]
    assert near[1] < 2.0 * near[0] + 1e-9


def test_integrand_cycle_insertion_requires_uniform_shape(mp_level, rng):
    pd = random_pdyn(rng, 2)
    z = qkz_points(rng, 3, mp_level.q, mp_level.p)
    I = PartitionIndex.from_colors((1, 1, 2), 2)
    with pytest.raises(ShapeError):
        IntegrandSpec(I=I, z=z, Pdyn=pd, mp=mp_level, Q=0.2, J=I)


def test_integrand_cycle_insertion_value(mp_level, rng):
    mu = (1, 2)
    I = PartitionIndex.from_colors(mu, 2)
    J = PartitionIndex.from_colors((2, 1), 2)
    pd = random_pdyn(rng, 2)
    z = qkz_points(rng, 2, mp_level.q, mp_level.p)
    Q = 0.15
    spec = IntegrandSpec(I=I, z=z, Pdyn=pd, mp=mp_level, Q=Q, J=J)
    t = random_t(rng, Composition((1, 1)))
    mq = nome_params(mp_level, Q)
    ref = (e_factor(t, pd, mp_level) * phi_kernel(t, z, mp_level, Q)
           * w_tilde(I, t, z, pd, mp_level).value
           * w_tilde(J, t, z, pd, mq).value)
    assert abs(integrand(spec, t) - ref) < 1e-12 * max(1.0, abs(ref))


def test_domain_rejection(mp_level, rng):
    pd = random_pdyn(rng, 2)
    I = PartitionIndex.from_colors((1, 2), 2)
    z_bad = EvaluationPoints((1.2, 0.5), mp_level.q)
    with pytest.raises(ParameterError):
        IntegrandSpec(I=I, z=z_bad, Pdyn=pd, mp=mp_level, trig=True)


def _unit_spec(mp_level, rng):
    pd = DynamicalParams((0.9 + 0.2j,))
    z = EvaluationPoints((0.38 * cmath.exp(0.4j), 0.45 * cmath.exp(-1.3j)),
                         mp_level.q)
    I = PartitionIndex.from_colors((1, 2), 2)
    return IntegrandSpec(I=I, z=z, Pdyn=pd, mp=mp_level, trig=True)


def test_quadrature_exact_on_constants(mp_level, rng):
    spec = _unit_spec(mp_level, rng)
    val, _ = torus_quadrature(spec, grid_size=8, fn=lambda t: 2.5 + 0j)
    assert abs(val - 2.5) < 1e-14


def test_quadrature_kills_pure_powers(mp_level, rng):
    spec = _unit_spec(mp_level, rng)
    for k in (1, 3, -2):
        val, _ = torus_quadrature(spec, grid_size=8,
                                  fn=lambda t, k=k: t.levels[0][0] ** k)
        assert abs(val) < 1e-14


def test_quadrature_kernel_self_convergence(mp_level, rng):
    spec = _unit_spec(mp_level, rng)
    z = spec.z
    mpl = spec.mp
    _, rep = torus_quadrature(spec, grid_size=32,
                              fn=lambda t: phi_trig(t, z, mpl))
    assert rep["delta"] < 1e-6


def test_quadrature_caps(mp_level, rng):
    spec = _unit_spec(mp_level, rng)
    with pytest.raises(ResourceCapError):
        torus_quadrature(spec, grid_size=128)
    big = PartitionIndex.from_colors((1, 1, 1, 1, 2, 2, 2, 2), 2)
    z8 = EvaluationPoints(tuple(0.4 * cmath.exp(1j * k) for k in range(8)),
                          mp_level.q)
    pd = DynamicalParams((0.9,))
    spec_big = IntegrandSpec(I=big, z=z8, Pdyn=pd, mp=mp_level, trig=True)
    with pytest.raises(ResourceCapError):
        torus_quadrature(spec_big, grid_size=8)
