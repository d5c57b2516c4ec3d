import cmath
import math
import re
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellqg import ellfn
from ellqg.cli import build_config, run_suite
from ellqg.ellfn import (ModularParams, bracket_derivative_at_zero, ell_gamma,
                         jacobi_bracket, jacobi_brackets, qpoch, theta)
from ellqg.errors import (DomainError, FloatRangeError, ParameterError, PoleError,
                          ResourceCapError)

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


def test_qpoch_refuses_to_truncate_at_the_cap():
    # |0.5 * 0.999^512| is still far above eps: the product needs ~30,000 factors.
    with pytest.raises(ResourceCapError):
        qpoch(0.5, 0.999)


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
    starred = replace(mp_level, r=mp_level.rstar, k=0.0)
    assert starred.p == mp_level.pstar and starred.r == mp_level.rstar
    b = jacobi_bracket(u, starred)
    assert abs(jacobi_bracket(u + mp_level.rstar, starred) + b) \
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


@pytest.mark.parametrize("q, r, k", [(0.5, 600.0, 0.0), (1e-300, 3.1, 0.0), (0.5, 1e-300, 0.0)])
def test_params_refuse_nomes_that_round_to_0_or_1(q, r, k):
    # p underflows to 0, or p* rounds to 1, though r > k >= 0 holds.
    with pytest.raises(ParameterError, match="0 < p <= p\\* < 1"):
        ModularParams(q=q, r=r, k=k)


@pytest.mark.parametrize("z", [0.0, 0j, math.inf, complex(1.0, math.nan)])
def test_u_of_refuses_a_zero_or_non_finite_point(mp, z):
    with pytest.raises(DomainError):
        mp.u_of(z)


@pytest.mark.parametrize("field, value", [
    ("r", math.nan), ("r", math.inf), ("k", math.nan), ("k", math.inf),
    ("trunc_eps", math.nan), ("trunc_eps", math.inf), ("max_terms", math.nan)])
def test_params_refuse_non_finite_values(field, value):
    # Every comparison with NaN is false: a check written as "fail if r <= k"
    # would let r = NaN through, and every bracket would then be NaN.
    with pytest.raises(ParameterError):
        ModularParams(**{"q": 0.5, "r": 3.1, field: value})


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


# Nome pairs (p, s): the q-KZ trace kernel at q=0.8, r=3.1, Q=0.2; (p, q^(2N))
# at q=0.5, r=3.1, N=2; and a generic pair.
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


def _mp_gamma(x, p, s):
    """Gamma(x; p, s) = (ps/x; p, s)_inf / (x; p, s)_inf in mpmath."""
    return _mp_double_qpoch(p * s / x, p, s) / _mp_double_qpoch(x, p, s)


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


def test_gamma_beyond_float_range_raises():
    # q = 0.99: the running product of Gamma(ps/0.2; p, q^4) overflows.
    p, s = 0.99 ** 6.2, 0.99 ** 4
    with pytest.raises(FloatRangeError, match=r"overflows at z=\(4\.51"):
        ell_gamma([0.5, p * s / 0.2], p, s, max_terms=4096)


def test_gamma_underflow_raises_instead_of_a_false_zero():
    # The reflection partner of the overflow above: the quotient underflows,
    # which is not a zero of Gamma (no numerator factor vanishes).
    p, s = 0.99 ** 6.2, 0.99 ** 4
    with pytest.raises(FloatRangeError, match=r"underflows at z=\(0\.2\+0j\)"):
        ell_gamma(0.2, p, s, max_terms=4096)
    with pytest.raises(FloatRangeError, match="underflows"):
        ell_gamma([0.5, 0.2], p, s, max_terms=4096)


def test_gamma_overflow_raises_the_error_not_a_warning():
    # (1e30; 0.5, 0.5)_inf leaves the float range in its first grid row.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatRangeError, match=r"overflows at z=\(1e\+30\+0j\)"):
            ell_gamma([1e30], 0.5, 0.5)


def test_gamma_overflow_in_the_first_rows_comes_before_a_later_pole():
    # (1e6; p, s)_inf overflows in row 0, so the fold stops at the end of
    # row 15 and the pole of the other argument, in row 20 or 30, is not
    # reached: the overflow is reported, in either argument order.
    p, s = 0.97, 0.9
    for m in (20, 30):
        pole = 1.0 / (p ** m * s ** 2)
        with pytest.raises(PoleError, match=rf"m={m}, n=2\)"):
            ell_gamma(pole, p, s, max_terms=4096)
        for args in ([1e6, pole], [pole, 1e6]):
            with pytest.raises(FloatRangeError, match=r"overflows at z=\(1000000\+0j\)"):
                ell_gamma(args, p, s, max_terms=4096)


def _first_gamma_pole(zs, p, s, eps=1e-14, tol=1e-12):
    """The PoleError text of ``ell_gamma``'s docstring rule, by brute force:
    of the kept factors 1 - p^m s^n z (p^m |s^n z| >= eps) that vanish
    (|.| < tol), the smallest m, then the earliest z, then the smallest n;
    None if no factor vanishes."""
    for m in range(1000):
        pm = p ** m
        if pm * max(abs(z) for z in zs) < eps:
            return None
        for z in zs:
            for n in range(1000):
                x = s ** n * z
                if pm * abs(x) < eps:
                    break
                if abs(1.0 - pm * x) < tol:
                    return (f"elliptic Gamma pole: factor (m={m}, n={n}) "
                            f"vanishes at z={np.complex128(z)}")
    raise AssertionError("grid not exhausted")


def test_gamma_pole_test_equals_a_brute_force_first_pole_search():
    # Batches of generic arguments and planted poles z = p^(-a) s^(-b) (1 + d):
    # d = 0 or 5e-13 e^(i theta) is a pole, d = 1e-6 e^(i theta) is not, nor is
    # d = 1e-3 i, whose factor has an exactly-zero real part.  A batch with a
    # vanishing factor raises the text of the first pole by the docstring's
    # order, and any other batch returns the double product.
    rng = np.random.default_rng(26)
    m, n = np.meshgrid(np.arange(150), np.arange(150), indexing="ij")
    raised = 0
    for _ in range(300):
        p, s = rng.uniform(0.15, 0.7, 2)
        zs = []
        for _ in range(rng.integers(1, 5)):
            phase = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            if rng.random() < 0.5:
                zs.append(rng.uniform(0.2, 3.0) * phase)
            else:
                off = 1.0 + rng.choice([0.0, 5e-13 * phase, 1e-6 * phase, 1e-3j])
                zs.append(p ** -int(rng.integers(0, 4)) * s ** -int(rng.integers(0, 4)) * off)
        want = _first_gamma_pole(zs, p, s)
        if want is not None:
            raised += 1
            with pytest.raises(PoleError, match=f"^{re.escape(want)}$"):
                ell_gamma(zs, p, s)
            continue
        grid = p ** m * s ** n
        oracle = [np.prod((1.0 - grid * p * s / z) / (1.0 - grid * z)) for z in zs]
        got = ell_gamma(zs, p, s)
        assert np.allclose(got, oracle, rtol=1e-9, atol=0.0), (p, s, zs)
    assert 100 < raised < 250


def test_gamma_poles_in_different_slabs_are_named_in_grid_order():
    # At p = 0.97 the grid has over 1,100 rows of 335 points, 2,010 entries a
    # row for these 3 arguments, so rows 10 and 100 lie in different slabs.
    # The smallest m names the pole, not the earliest z; within row 10 the
    # earlier z wins over the smaller n.
    p, s = 0.97, 0.9
    assert 90 * 2010 > ellfn._BATCH_ENTRIES
    pole = lambda m, n: 1.0 / (p ** m * s ** n)
    args = [pole(100, 0), pole(10, 3), pole(10, 1)]
    where = re.escape(str(np.complex128(args[1])))
    with pytest.raises(PoleError, match=rf"\(m=10, n=3\) vanishes at z={where}"):
        ell_gamma(args, p, s, max_terms=4096)


def _plain_gamma(x, p, s, eps=1e-14):
    """Gamma(x; p, s) from plain loops: the factors 1 - p^m (y s^n) with
    p^m |y s^n| >= eps, multiplied along each row n = 0, 1, ..., and the rows
    in m order."""
    def double(y):
        val, pm = 1.0 + 0.0j, 1.0
        while pm * abs(y) >= eps:
            row, sn = 1.0 + 0.0j, 1.0
            while pm * abs(y * sn) >= eps:
                row *= 1.0 - pm * (y * sn)
                sn *= s
            val *= row
            pm *= p
        return val
    return double(p * s / x) / double(x)


def _gamma_sweep_cases():
    rng = np.random.default_rng(1311)
    args = lambda n, lo, hi: list(np.exp(rng.uniform(np.log(lo), np.log(hi), n)
                                         + 1j * rng.uniform(-math.pi, math.pi, n)))
    shallow = [(float(p), float(s)) for p, s in
               zip(np.exp(rng.uniform(np.log(1e-4), np.log(0.3), 3)),
                   np.exp(rng.uniform(np.log(1e-4), np.log(0.3), 3)))]
    nomes = shallow + [(0.5 ** 6.2, 1e-6), (0.8 ** 6.2, 0.2)]  # s = 1e-6; the q-KZ pair
    cases = [(args(n, 0.05, 20.0), p, s) for p, s in nomes for n in (1, 4, 20, 100)]
    # Near q = 1: about 450 rows of 90 points for 16 arguments, ten slabs.
    return cases + [(args(8, 0.5, 2.0), 0.93, 0.7)]


@pytest.mark.parametrize("zs, p, s", _gamma_sweep_cases())
def test_gamma_sweep_against_plain_loops(zs, p, s):
    for x, val in zip(zs, ell_gamma(zs, p, s, max_terms=4096)):
        ref = _plain_gamma(complex(x), p, s)
        assert abs(val - ref) <= 1e-14 * abs(ref), (x, p, s)


# ---------------------------------------------- bracket layer vs mpmath --
BRACKET_QS = (0.05, 0.5, 0.9, 0.99)
BRACKET_ARGS = (0.3 + 0.2j, -0.7 + 0.45j, 1.2 - 0.3j, 0.05 + 0.6j, -1.4 - 0.1j, 2.3 + 0.15j)


def _mp_qpoch(x, s):
    """(x; s)_inf in mpmath, every factor down to |x s^n| = 1e-30."""
    val, w = mpmath.mpf(1), x
    while abs(w) > 1e-30:
        val *= 1 - w
        w *= s
    return val


def _mp_theta(x, p):
    return _mp_qpoch(x, p) * _mp_qpoch(p / x, p) * _mp_qpoch(p, p)


def _mp_bracket(u, q, r):
    """[u] = q^(u^2/r - u) theta_{q^(2r)}(q^(2u)) in mpmath."""
    mq, mu = mpmath.mpf(q), mpmath.mpc(u)
    return mq ** (mu * mu / r - mu) * _mp_theta(mq ** (2 * mu), mq ** (2 * mpmath.mpf(r)))


def _bracket_mp(q):
    # q = 0.99 needs about 520 factors per product, past the default cap of 512.
    return ModularParams(q=q, r=3.1, k=0.8, max_terms=4096)


@pytest.mark.parametrize("q", BRACKET_QS)
def test_qpoch_and_theta_against_mpmath(q):
    mp = _bracket_mp(q)
    for u in BRACKET_ARGS:
        x = mp.qpow(2.0 * u)
        with mpmath.workdps(40):
            mx = mpmath.mpc(x)
            q_ref = complex(_mp_qpoch(mx, mpmath.mpf(mp.p)))
            t_ref = complex(_mp_theta(mx, mpmath.mpf(mp.p)))
        assert abs(qpoch(x, mp.p, max_terms=mp.max_terms) - q_ref) <= 1e-12 * abs(q_ref)
        assert abs(theta(x, mp.p, max_terms=mp.max_terms) - t_ref) <= 1e-12 * abs(t_ref)


@pytest.mark.parametrize("q", BRACKET_QS)
@pytest.mark.parametrize("starred", [False, True])
def test_brackets_against_mpmath(q, starred):
    mp = _bracket_mp(q)
    # Batch and scalar round differently; at q = 0.99 each bracket is a
    # product of about 1,500 factors and the two drift apart by up to 5e-14.
    agree = 1e-14 if q < 0.95 else 1e-13
    r = mp.rstar if starred else mp.r
    if starred:  # [u]* is the bracket of the pack (q, r*, k=0)
        mp = replace(mp, r=mp.rstar, k=0.0)
    batch = jacobi_brackets(BRACKET_ARGS, mp)
    for u, val in zip(BRACKET_ARGS, batch):
        with mpmath.workdps(40):
            ref = complex(_mp_bracket(u, q, r))
        single = jacobi_bracket(u, mp)
        assert abs(single - ref) <= 1e-12 * abs(ref), (u, q)
        assert abs(val - ref) <= 1e-12 * abs(ref), (u, q)
        assert abs(val - single) <= agree * abs(single), (u, q)


@pytest.mark.parametrize("q, max_terms, tol", [
    (0.5, 512, 1e-13), (0.8, 512, 1e-13), (0.9, 512, 1e-13), (0.99, 4096, 1e-12)])
def test_bracket_derivative_against_mpmath(q, max_terms, tol):
    # The closed form against the 40-digit derivative of the 40-digit bracket.
    with mpmath.workdps(40):
        ref = complex(mpmath.diff(lambda u: _mp_bracket(u, q, 3.1), 0))
    d = bracket_derivative_at_zero(ModularParams(q=q, r=3.1, max_terms=max_terms))
    assert abs(d - ref) <= tol * abs(ref)


def test_bracket_derivative_row_fails_under_a_wrong_derivative(monkeypatch):
    def row():
        return next(c for c in run_suite("ellfn", build_config({}))["checks"]
                    if c["id"] == "ellfn.bracket_derivative")

    assert row()["pass"]
    exact = ellfn.bracket_derivative_at_zero
    monkeypatch.setattr(ellfn, "bracket_derivative_at_zero", lambda mp: (1 + 1e-6) * exact(mp))
    assert not row()["pass"]


def test_brackets_batch_keeps_exact_zero_and_shape(mp):
    vals = jacobi_brackets([0.0, 1.0, -1.0], mp)
    assert vals.shape == (3,) and vals[0] == 0
    assert abs(vals[1] + vals[2]) <= 1e-14 * abs(vals[1])  # odd
    assert jacobi_brackets([], mp).shape == (0,)
    # p = 1e-32: at u = 3.75 every factor of every product is below eps.
    tiny = ModularParams(q=0.01, r=8.0)
    ref = jacobi_bracket(3.75, tiny)
    assert abs(jacobi_brackets([3.75], tiny)[0] - ref) <= 1e-15 * abs(ref)


def test_brackets_refuse_to_truncate_at_the_cap():
    # q = 0.999, default cap: p = q^6.2 needs about 5,000 factors per product.
    mp = ModularParams(q=0.999, r=3.1)
    with pytest.raises(ResourceCapError):
        jacobi_bracket(0.3 + 0.2j, mp)
    with pytest.raises(ResourceCapError):
        jacobi_brackets([0.3 + 0.2j], mp)


def _nome_powers_loop(x, top, eps, max_terms, what):
    """The reference of ``_nome_powers``: 1, x, x^2, ... by a plain loop while
    top |x|^n >= eps, at most max_terms of them."""
    out = [1.0]
    while top * abs(out[-1]) >= eps and len(out) <= max_terms:
        out.append(out[-1] * x)
    if top * abs(out[-1]) >= eps:
        raise ResourceCapError(f"{what} needs more than max_terms={max_terms} factors")
    return np.array(out[:-1])


def _powers_outcome(f, *args):
    try:
        out = f(*args)
    except ResourceCapError as exc:
        return str(exc)
    return out.dtype, out.shape, out.tobytes()


@pytest.mark.parametrize("top", [0.0, 1.0, 1e3, math.inf, math.nan])
def test_cached_nome_powers_equal_the_loop(top):
    # Each count of powers the loop needs, then caps just below it, at it
    # and beyond it; top = inf keeps every power down to the first 0.
    for x in (0.2, 0.5, 0.8 ** 6.2, 0.9, 0.99, 0.999):
        args = lambda cap: (x, top, 1e-14, cap, "theta bracket")
        need = _powers_outcome(_nome_powers_loop, *args(20000))
        caps = {1, 512, 20000}
        if not isinstance(need, str):
            caps |= {n for n in (need[1][0] - 1, need[1][0], need[1][0] + 1) if n >= 1}
        for cap in sorted(caps):
            want = _powers_outcome(_nome_powers_loop, *args(cap))
            assert _powers_outcome(ellfn._nome_powers, *args(cap)) == want, (x, cap)
            if not isinstance(want, str):
                assert not ellfn._nome_powers(*args(cap)).flags.writeable


def test_brackets_beyond_float_range_raise():
    mp = ModularParams(q=0.999, r=3.1, max_terms=40000)
    u = 3000j  # q^(u^2/r) = exp(2.9e3): not a float
    with pytest.raises(FloatRangeError):
        jacobi_bracket(u, mp)
    with pytest.raises(FloatRangeError):
        jacobi_brackets([0.5, u], mp)


@pytest.mark.parametrize("u, text", [
    (1000.0, "q^(2u) of [1000+0j] leaves the float range"),  # q^(2u) = 0
    (-1000.0, "q^(2u) of [-1000+0j] leaves the float range"),  # q^(2u) = inf
    (537.0, "q^(2u) of [537+0j] leaves the float range"),  # p q^(-2u) = inf
    (100.0, "[100+0j] overflows"),  # theta_p(q^(2u)) = inf, the prefactor 0
], ids=["q2u-zero", "q2u-inf", "p-q-2u-inf", "theta-inf"])
def test_brackets_whose_q2u_leaves_the_float_range_raise(mp, u, text):
    # Both kernels raise the same FloatRangeError, not a DomainError, a bare
    # OverflowError, a warning or a nan; theta(0) keeps its DomainError.
    with pytest.raises(FloatRangeError) as scalar:
        jacobi_bracket(u, mp)
    with pytest.raises(FloatRangeError) as batch:
        jacobi_brackets([0.5, u, -u], mp)
    assert str(scalar.value) == str(batch.value) == text
    with pytest.raises(DomainError):
        theta(0.0, mp.p)


def _three_term(b):
    """Weierstrass's three-term identity for brackets b(a, s) = [a + s][a - s]
    of the pairs (x, y), (u, v), (x, u), (y, v), (x, v), (y, u), normalized by
    the sum of the three terms' moduli."""
    terms = (b("x", "y") * b("u", "v"), -b("x", "u") * b("y", "v"),
             b("x", "v") * b("y", "u"))
    return abs(sum(terms)) / sum(abs(t) for t in terms)


@pytest.mark.parametrize("q,max_terms,points", [(0.5, 512, 50), (0.8, 512, 50),
                                                (0.99, 4096, 20)])
def test_weierstrass_three_term_identity(q, max_terms, points):
    # [x+y][x-y][u+v][u-v] - [x+u][x-u][y+v][y-v] + [x+v][x-v][y+u][y-u] = 0,
    # the theta identity behind the dynamical Yang-Baxter equation; a ratio
    # oracle that needs no mpmath.
    mp = ModularParams(q=q, r=3.1, max_terms=max_terms)
    rng = np.random.default_rng(20240817)
    pts = {k: rng.uniform(-1.0, 1.0, points) + 1j * rng.uniform(-0.5, 0.5, points)
           for k in "xyuv"}
    names = [("x", "y"), ("u", "v"), ("x", "u"), ("y", "v"), ("x", "v"), ("y", "u")]
    args = np.concatenate([np.concatenate((pts[a] + pts[s], pts[a] - pts[s]))
                           for a, s in names])
    vals = jacobi_brackets(args, mp).reshape(len(names), 2, points)
    table = {pair: vals[i, 0] * vals[i, 1] for i, pair in enumerate(names)}
    worst = np.max(_three_term(lambda a, s: table[(a, s)]))
    assert worst <= 1e-10
    one = {k: complex(v[0]) for k, v in pts.items()}   # the scalar chain at one point
    scalar = _three_term(lambda a, s: jacobi_bracket(one[a] + one[s], mp)
                         * jacobi_bracket(one[a] - one[s], mp))
    assert scalar <= 1e-10


# Refusals no other test reaches: (call, error class, text fragment).
REFUSALS = [
    pytest.param(lambda: ell_gamma(0.5, 0.1, 1.0), ParameterError, "|s| < 1", id="|s| = 1"),
    pytest.param(lambda: ell_gamma(0.5, -1.5, 0.2), ParameterError, "|p| < 1", id="|p| > 1"),
    pytest.param(lambda: ell_gamma([0.5, 0.0], 0.1, 0.2), DomainError, "z != 0", id="z = 0"),
]


@pytest.mark.parametrize("call, error, text", REFUSALS)
def test_refusals(call, error, text):
    with pytest.raises(error, match=re.escape(text)):
        call()
