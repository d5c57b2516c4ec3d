import cmath
import math
import re

import numpy as np
import pytest

from conftest import random_pdyn, random_t, shape_of
from ellqg.ellfn import ModularParams, ell_gamma, qpoch
from ellqg.errors import FloatRangeError, ParameterError, PoleError, ResourceCapError, ShapeError
from ellqg.qkz import (IntegrandSpec, e_factor, integrand, nome_params,
                       phi_kernel, phi_trig, torus_quadrature)
from ellqg.tensorspace import (Composition, DynamicalParams, EvaluationPoints,
                               PartitionIndex, enumerate_partitions)
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


def test_e_factor_refuses_more_t_levels_than_dynamical_parameters(mp_level, rng):
    # Two t-levels need P_1 and P_2; with one, a level would be dropped silently.
    t = random_t(rng, Composition((1, 1, 1)))
    with pytest.raises(ShapeError):
        e_factor(t, random_pdyn(rng, 2), mp_level)
    assert e_factor(t, random_pdyn(rng, 3), mp_level) != 0


@pytest.mark.parametrize("P, what", [(1.2, "underflows"), (-50.0, "overflows")])
def test_e_factor_outside_the_float_range_raises(rng, P, what):
    # At r = 1e-9, log p ~ -1.4e-9 puts the exponent far beyond the float range.
    t = random_t(rng, Composition((1, 1)))
    with pytest.raises(FloatRangeError, match=what):
        e_factor(t, DynamicalParams((P,)), ModularParams(q=0.5, r=1e-9))


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


def test_phi_trig_vanishing_divisor_raises_pole_error_naming_the_pair(mp_level, rng):
    # The torus grid puts t^(1) = t^(2)_1, so (t^(1)_1/t^(2)_1; p)_inf is 0;
    # the elliptic kernel raises on the same factor of Gamma's divisor.
    z = qkz_points(rng, 3, mp_level.q, mp_level.p)
    w = cmath.exp(0.4j)
    with pytest.raises(PoleError, match=r"factor \(m=0\) of \(t\^\(1\)_1/t\^\(2\)_1; p\)"):
        phi_trig(TVariables(((w,), (w, -w))), z, mp_level)
    with pytest.raises(PoleError, match="elliptic Gamma pole"):
        phi_kernel(TVariables(((w,), (w, -w))), z, mp_level, 0.2)
    with pytest.raises(PoleError, match=r"\(p\* t\^\(2\)_2/t\^\(2\)_1; p\)_inf vanishes"):
        phi_trig(TVariables(((1j * w,), (w, w / mp_level.pstar))), z, mp_level)
    pd = random_pdyn(rng, 3)
    I = PartitionIndex.from_colors((1, 2, 3), 3)
    spec = IntegrandSpec(I=I, z=z, Pdyn=pd, mp=mp_level, trig=True)
    with pytest.raises(PoleError, match="trigonometric kernel pole"):
        torus_quadrature(spec, grid_size=4)


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
    with pytest.raises(PoleError, match=r"m=0, n=0") as exc:
        phi_kernel(TVariables(((ta, ta),)), z, mp, 0.2)
    assert "(t^(1)_1/t^(1)_2)" in str(exc.value)


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


def test_integrand_needs_one_spectral_point_per_site(mp_level, rng):
    # The kernel would run over three points and the weight function over two.
    I = PartitionIndex.from_colors((1, 2), 2)
    z = qkz_points(rng, 3, mp_level.q, mp_level.p)
    spec = IntegrandSpec(I=I, z=z, Pdyn=random_pdyn(rng, 2), mp=mp_level, trig=True)
    with pytest.raises(ShapeError, match="need 2 spectral points, got 3"):
        integrand(spec, random_t(rng, I.shape()))


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


def _golden_cases():
    """Seeded integrand inputs, (spec, t points) per case: lambda=(2,2) with
    the trace insertion, N=3 lambda=(1,1,1) on the elliptic kernel, and
    lambda=(1,2) on the trigonometric kernel."""
    rng = np.random.default_rng(2417)

    def circle(n, lo, hi):
        mods, phases = np.sort(rng.uniform(lo, hi, n)), rng.uniform(0.0, 2.0 * np.pi, n)
        return [float(m) * cmath.exp(1j * float(ph)) for m, ph in zip(mods, phases)]

    def ts(lam, count):
        return [TVariables(tuple(tuple(circle(lam.prefix(l), 0.4, 0.9))
                                 for l in range(1, lam.N))) for _ in range(count)]

    def pdyn(N):
        return DynamicalParams(tuple(complex(rng.uniform(0.7, 1.6), rng.uniform(-0.5, 0.5))
                                     for _ in range(N - 1)))

    r = 3.1
    mp = ModularParams(q=0.8, r=r, k=r / 3.0)
    lam = Composition((2, 2))
    labels = enumerate_partitions(lam)
    trace = IntegrandSpec(I=labels[0], z=EvaluationPoints(tuple(circle(4, 0.35, 0.7)), mp.q),
                          Pdyn=pdyn(2), mp=mp, Q=0.2, J=labels[-1])
    mp3 = ModularParams(q=0.5, r=3.1, k=0.8)
    lam3 = Composition((1, 1, 1))
    elliptic = IntegrandSpec(I=enumerate_partitions(lam3)[2],
                             z=EvaluationPoints(tuple(circle(3, 0.35, 0.7)), mp3.q),
                             Pdyn=pdyn(3), mp=mp3, Q=0.3)
    lam2 = Composition((1, 2))
    trig = IntegrandSpec(I=enumerate_partitions(lam2)[1],
                         z=EvaluationPoints(tuple(circle(3, 0.35, 0.7)), mp3.q),
                         Pdyn=pdyn(2), mp=mp3, trig=True)
    return [(trace, ts(lam, 8)), (elliptic, ts(lam3, 6)), (trig, ts(lam2, 6))]



# float.hex of the integrand at the ``_golden_cases`` points, in order.
_GOLDEN = [
    [("-0x1.976cc058ceff0p-13", "-0x1.33f0411034557p-9"),
     ("-0x1.1c287ce99e6c4p+4", "-0x1.79d6281b677cep+3"),
     ("-0x1.c1f9646af2afcp+1", "-0x1.34a9830f56be1p+7"),
     ("-0x1.69adab2447560p-4", "-0x1.49c19e73cd0e0p-3"),
     ("-0x1.22243ef3ba412p-7", "-0x1.ebd6fb50e6699p-6"),
     ("0x1.210bb9a55fd48p+0", "-0x1.2491f25bdae2fp-2"),
     ("-0x1.66be366a8bc2bp-1", "0x1.6921264814e80p-5"),
     ("0x1.9c7e6247e84cfp+0", "0x1.62d5a50d5fe14p+1")],
    [("0x1.159137ddfca71p-3", "0x1.3688b53b45476p-5"),
     ("0x1.314ed21b53835p-12", "0x1.3512e0e7d10c8p-13"),
     ("-0x1.610bb7cadc5b0p-10", "-0x1.4c948f9ee029dp-10"),
     ("-0x1.b4d225cb78f3bp-7", "0x1.782ef8ceffaf2p-9"),
     ("-0x1.709b490b8e49ep+0", "0x1.ec7f73fb2ccd5p-1"),
     ("-0x1.711423123e248p-6", "-0x1.194023cd7b716p-1")],
    [("-0x1.a1e3af935e9cdp-6", "-0x1.73c213a5f087ap-4"),
     ("0x1.6bb7b4bce660ep-4", "-0x1.358c38e9974cbp-3"),
     ("-0x1.5c55ddf4391b9p-5", "0x1.72aaee0e5d8efp-5"),
     ("-0x1.7719f1bbd9896p-5", "-0x1.137afa1ef38f4p-4"),
     ("-0x1.1d171c7ffbe18p-4", "-0x1.4fbeeb9271867p-6"),
     ("-0x1.6dbdde9b95400p-7", "0x1.c381e6eac43d0p-3")]
]


def test_integrand_values_are_pinned_bit_for_bit():
    # Any change to the arithmetic of the kernel, the weight-function stacks
    # or the brackets moves some of these bits.
    for (spec, ts), want in zip(_golden_cases(), _GOLDEN, strict=True):
        got = [integrand(spec, t) for t in ts]
        assert [(v.real.hex(), v.imag.hex()) for v in got] == want, spec.lam


def _spec(**kw):
    """An IntegrandSpec at lambda=(1,1), q=0.5, r=3.1 with ``kw`` replaced."""
    I = PartitionIndex.from_colors((1, 2), 2)
    return IntegrandSpec(**{"I": I, "z": EvaluationPoints((0.5, 0.6j), 0.5),
                            "Pdyn": DynamicalParams((1.2,)), "mp": ModularParams(q=0.5, r=3.1),
                            **kw})


# Refusals no other test reaches: (call, error class, text fragment).
REFUSALS = [
    pytest.param(lambda: nome_params(ModularParams(q=0.5, r=3.1), 1.0), ParameterError,
                 "substituted nome must lie in (0, 1)", id="nome 1"),
    pytest.param(lambda: _spec(J=PartitionIndex.from_colors((1, 1), 2), Q=0.2), ShapeError,
                 "cycle label must share the cocycle shape", id="J of another shape"),
    pytest.param(lambda: _spec(J=PartitionIndex.from_colors((2, 1), 2), Q=1.5), ParameterError,
                 "trace nome Q must lie in (0, 1)", id="trace Q 1.5"),
    pytest.param(lambda: _spec(), ParameterError,
                 "elliptic kernel needs a trace nome Q in (0, 1)", id="elliptic Q 0"),
    pytest.param(lambda: torus_quadrature(_spec(trig=True), grid_size=0), ParameterError,
                 "grid_size must be >= 1, got 0", id="grid 0"),
]


@pytest.mark.parametrize("call, error, text", REFUSALS)
def test_refusals(call, error, text):
    with pytest.raises(error, match=re.escape(text)):
        call()
