import cmath
import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellqg.ellfn import (ModularParams, bracket_derivative_at_zero, ell_gamma,
                         jacobi_bracket, mu_scalar, qpoch, rho_plus, theta)
from ellqg.errors import DomainError, ParameterError, PoleError, ResourceCapError

# Frozen oracle values, computed from independent fixed-length products
# (200 terms for the single product, 400x400 for the double one).
QPOCH_HALF_TENTH = 0.4723624438165722
GAMMA_03_01_02 = 1.4633666384581847


def test_qpoch_empty_factor():
    assert qpoch(0.0, 0.1) == 1.0


def test_qpoch_vanishing_first_factor():
    assert qpoch(1.0, 0.1) == 0.0


def test_qpoch_against_fixed_product_oracle():
    oracle = 1.0
    for n in range(200):
        oracle *= 1.0 - 0.5 * 0.1 ** n
    assert abs(oracle - QPOCH_HALF_TENTH) < 1e-15
    assert abs(qpoch(0.5, 0.1) - oracle) < 1e-12


def test_qpoch_rejects_bad_nome():
    with pytest.raises(ParameterError):
        qpoch(0.5, 1.0)


def test_theta_vanishes_at_one(mp):
    assert theta(1.0, mp.p) == 0.0


def test_theta_rejects_zero(mp):
    with pytest.raises(DomainError):
        theta(0.0, mp.p)


def test_theta_quasi_periodicity_fixed_point():
    z, p = 0.37 + 0.1j, 0.05
    ref = 0.5111389190880825 - 0.06269669663091325j
    tz = theta(z, p)
    assert abs(tz - ref) < 1e-12
    assert abs(theta(p * z, p) + tz / z) < 1e-10 * abs(tz)
    assert abs(theta(1.0 / z, p) + tz / z) < 1e-10 * abs(tz)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.1, 1.6), st.floats(-3.0, 3.0))
def test_theta_quasi_periodicity_property(mod, phase):
    p = 0.05
    z = mod * cmath.exp(1j * phase)
    tz = theta(z, p)
    assert abs(theta(p * z, p) + tz / z) <= 1e-10 * abs(tz)


def test_bracket_vanishes_at_zero(mp):
    assert jacobi_bracket(0.0, mp) == 0.0


def test_bracket_is_odd(mp):
    for u in (0.3 + 0.2j, -1.1 + 0.05j, 0.77):
        assert abs(jacobi_bracket(-u, mp) + jacobi_bracket(u, mp)) < 1e-12


def test_bracket_shift_by_r(mp, rng):
    for _ in range(20):
        u = rng.uniform(-1.5, 1.5) + 1j * rng.uniform(-1.0, 1.0)
        b = jacobi_bracket(u, mp)
        assert abs(jacobi_bracket(u + mp.r, mp) + b) < 1e-10 * abs(b)


def test_bracket_shift_by_r_tau(mp, rng):
    tau = -2j * math.pi / math.log(mp.p)
    for _ in range(20):
        u = rng.uniform(-0.8, 0.8) + 1j * rng.uniform(-0.5, 0.5)
        lhs = jacobi_bracket(u + mp.r * tau, mp)
        rhs = (-cmath.exp(-1j * math.pi * tau)
               * cmath.exp(-2j * math.pi * u / mp.r) * jacobi_bracket(u, mp))
        assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), abs(rhs))


def test_starred_bracket_uses_shifted_nome(mp_level):
    u = 0.4 + 0.1j
    b = jacobi_bracket(u, mp_level, starred=True)
    assert abs(jacobi_bracket(u + mp_level.rstar, mp_level, starred=True) + b) \
        < 1e-10 * abs(b)


def test_nome_relation(mp_level):
    assert abs(mp_level.pstar - mp_level.p * mp_level.q ** (-2 * mp_level.k)) \
        < 1e-15 * mp_level.pstar


def test_params_validation():
    with pytest.raises(ParameterError):
        ModularParams(q=1.5, r=3.0)
    with pytest.raises(ParameterError):
        ModularParams(q=0.5, r=1.0, k=1.0)
    with pytest.raises(ParameterError):
        ModularParams(q=0.5, r=1.0, k=-0.1)


def test_bracket_derivative_two_schemes(mp):
    d1 = bracket_derivative_at_zero(mp, step=1e-4)
    d2 = bracket_derivative_at_zero(mp, step=5e-5)
    assert d1.real != 0.0
    assert abs(d1.imag) < 1e-10
    assert abs(d1 - d2) < 1e-8 * abs(d1)


def test_bracket_antisymmetry_consequence(mp):
    # [-eps] + [eps] = O(eps^2) near zero
    for eps in (1e-3, 1e-4):
        s = jacobi_bracket(eps, mp) + jacobi_bracket(-eps, mp)
        assert abs(s) <= 10.0 * eps ** 2


def test_bracket_derivative_matches_plain_difference(mp):
    eps = 1e-5
    plain = (jacobi_bracket(eps, mp) - jacobi_bracket(-eps, mp)) / (2 * eps)
    assert abs(bracket_derivative_at_zero(mp) - plain) < 1e-8 * abs(plain)


def test_gamma_reflection(rng):
    p, s = 0.1, 0.2
    for _ in range(50):
        z = rng.uniform(0.2, 0.9) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        assert abs(ell_gamma(z, p, s) * ell_gamma(p * s / z, p, s) - 1.0) < 1e-10


def test_gamma_small_second_nome_is_inverse_qpoch():
    z, p = 0.4 + 0.15j, 0.1
    lhs = ell_gamma(z, p, 1e-6)
    rhs = 1.0 / qpoch(z, p)
    assert abs(lhs - rhs) < 1e-5 * abs(rhs)


def test_gamma_against_fixed_double_product_oracle():
    num, den = 1.0, 1.0
    for m in range(400):
        for n in range(400):
            x = 0.1 ** m * 0.2 ** n
            num *= 1.0 - (0.1 * 0.2 / 0.3) * x
            den *= 1.0 - 0.3 * x
    oracle = num / den
    assert abs(oracle - GAMMA_03_01_02) < 1e-14
    assert abs(ell_gamma(0.3, 0.1, 0.2) - oracle) < 1e-12


def test_rho_plus_finite_and_matches_gamma_product(mp):
    z = 0.9 + 0.0j
    N = 2
    s = mp.q ** (2 * N)
    direct = (mp.qpow(-(N - 1) / N)
              * cmath.exp((N - 1) / (mp.r * N) * cmath.log(z))
              * ell_gamma(z, mp.p, s) * ell_gamma(s * z, mp.p, s)
              / (ell_gamma(mp.q ** 2 * z, mp.p, s)
                 * ell_gamma(mp.q ** (2 * N - 2) * z, mp.p, s)))
    val = rho_plus(z, N, mp)
    assert val != 0.0
    assert abs(val - direct) < 1e-12 * abs(direct)


def test_rho_plus_degenerates_at_rank_one(mp):
    assert abs(rho_plus(0.7 + 0.2j, 1, mp) - 1.0) < 1e-12


def test_rho_plus_trigonometric_limit():
    # As p -> 0 each Gamma collapses to an inverse q-Pochhammer.
    q, N = 0.5, 2
    r = math.log(1e-8) / (2 * math.log(q))
    mp_small = ModularParams(q=q, r=r)
    z = 0.8 * cmath.exp(0.5j)
    s = q ** (2 * N)
    trig = (mp_small.qpow(-(N - 1) / N)
            * cmath.exp((N - 1) / (mp_small.r * N) * cmath.log(z))
            * qpoch(q ** 2 * z, s) * qpoch(q ** (2 * N - 2) * z, s)
            / (qpoch(z, s) * qpoch(q ** (2 * N) * z, s)))
    assert abs(rho_plus(z, N, mp_small) - trig) < 1e-6 * abs(trig)


def test_mu_scalar_rank_one_and_value(mp):
    assert abs(mu_scalar(0.6 + 0.1j, 1, mp) - 1.0) < 1e-12
    val = mu_scalar(mp.q ** 2 * 0.9, 2, mp)
    assert val != 0.0 and abs(val) < 1e6


def test_mu_over_rho_cancellation(mp):
    # Two of the four Gamma factors cancel between mu and rho+.
    z, N = 0.85 * cmath.exp(0.3j), 2
    s = mp.q ** (2 * N)
    lhs = mu_scalar(z, N, mp) / rho_plus(z, N, mp)
    rhs = (mp.qpow((N - 1) / N)
           * cmath.exp(-(N - 1) / N * cmath.log(z))
           * ell_gamma(mp.p * z, mp.p, s) * ell_gamma(mp.q ** (2 * N - 2) * z, mp.p, s)
           / (ell_gamma(z, mp.p, s)
              * ell_gamma(mp.p * mp.q ** (2 * N - 2) * z, mp.p, s)))
    assert abs(lhs - rhs) < 1e-10 * abs(rhs)


def test_truncation_stability(mp):
    doubled = ModularParams(q=mp.q, r=mp.r, trunc_eps=mp.trunc_eps,
                            max_terms=2 * mp.max_terms)
    for z in (0.3 + 0.4j, 0.9, -0.5 + 0.2j):
        assert qpoch(z, mp.p, max_terms=mp.max_terms) \
            == qpoch(z, mp.p, max_terms=2 * mp.max_terms)
    for u in (0.3 + 0.2j, -0.9):
        assert abs(jacobi_bracket(u, mp) - jacobi_bracket(u, doubled)) \
            <= mp.trunc_eps


def test_gamma_pole_names_offending_factor():
    with pytest.raises(PoleError, match=r"m=0, n=0"):
        ell_gamma(1.0, 0.1, 0.2)


# Nome pairs (p, s): the q-KZ trace kernel at q=0.8, r=3.1, Q=0.2; rho_plus at
# q=0.5, r=3.1, N=2; and a generic pair.
ORACLE_NOMES = ((0.8 ** 6.2, 0.2), (0.5 ** 6.2, 0.5 ** 4), (0.1, 0.2))
ORACLE_ARGS = tuple(mod * cmath.exp(1j * phase)
                    for mod in (0.25, 0.6, 0.95, 1.3, 2.6) for phase in (0.4, 1.9, -2.7))


def _mp_double_qpoch(x, p, s):
    """(x; p, s)_inf in mpmath, every factor down to |x p^m s^n| = 1e-22."""
    val, row = mpmath.mpf(1), x
    while abs(row) > 1e-22:
        w = row
        while abs(w) > 1e-22:
            val *= 1 - w
            w *= s
        row *= p
    return val


def test_gamma_against_mpmath_double_product():
    for p, s in ORACLE_NOMES:
        for x in ORACLE_ARGS:
            with mpmath.workdps(40):
                mx, mpp, ms = mpmath.mpc(x), mpmath.mpf(p), mpmath.mpf(s)
                oracle = complex(_mp_double_qpoch(mpp * ms / mx, mpp, ms)
                                 / _mp_double_qpoch(mx, mpp, ms))
            assert abs(ell_gamma(x, p, s) - oracle) <= 1e-12 * abs(oracle), (x, p, s)


def test_gamma_batch_matches_scalar_calls():
    for p, s in ORACLE_NOMES:
        batch = ell_gamma(ORACLE_ARGS, p, s)
        assert batch.shape == (len(ORACLE_ARGS),)
        for x, val in zip(ORACLE_ARGS, batch):
            single = ell_gamma(x, p, s)
            assert type(single) is complex
            assert abs(val - single) <= 1e-15 * abs(single)


def test_gamma_zero_is_not_a_pole():
    # Gamma(ps) = (1; p, s) / (ps; p, s) vanishes; only (z; p, s) factors raise.
    p, s = 0.1, 0.2
    assert ell_gamma(p * s, p, s) == 0
    assert ell_gamma([0.5, p * s], p, s)[1] == 0


def test_gamma_batch_pole_names_factor_and_argument():
    with pytest.raises(PoleError, match=r"m=0, n=1\) vanishes at z=\(5\+0j\)"):
        ell_gamma([0.5, 5.0, 0.7], 0.1, 0.2)


def test_gamma_refuses_to_truncate_at_the_cap():
    # q = 0.999: the double products need thousands of factors in n.
    with pytest.raises(ResourceCapError):
        ell_gamma(0.5 + 0.2j, 0.999 ** 6.2, 0.999 ** 4)
    with pytest.raises(ResourceCapError):
        rho_plus(0.9, 2, ModularParams(q=0.999, r=3.1))
