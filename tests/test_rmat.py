import cmath
import math

import numpy as np
import pytest

from conftest import random_pdyn
from ellqg.ellfn import ModularParams, jacobi_bracket
from ellqg.errors import SingularityError
from ellqg.rmat import check_dybe, check_inversion, embedded_rbar, permutation_dense, rbar
from ellqg.tensorspace import DynamicalParams


def test_unit_argument_gives_permutation(mp, rng):
    for N in (2, 3):
        pd = random_pdyn(rng, N)
        R = rbar(1.0, pd, mp).dense()
        assert np.max(np.abs(R - permutation_dense(N))) < 1e-12


def test_entries_match_bracket_formulas(mp):
    q, r = 0.5, 3.0
    mpl = ModularParams(q=q, r=r)
    u, s = 0.3, 1.7
    z = mpl.qpow(2 * u)
    pd = DynamicalParams((s,))
    R = rbar(z, pd, mpl)
    br = lambda x: jacobi_bracket(x, mpl)
    b = br(s + 1) * br(s - 1) * br(u) / (br(s) ** 2 * br(u + 1))
    bbar = br(u) / br(u + 1)
    c = br(1) * br(s + u) / (br(s) * br(u + 1))
    cbar = br(1) * br(s - u) / (br(s) * br(u + 1))
    assert abs(R.entry((1, 2), (1, 2)) - b) < 1e-13
    assert abs(R.entry((2, 1), (2, 1)) - bbar) < 1e-13
    assert abs(R.entry((2, 1), (1, 2)) - c) < 1e-13
    assert abs(R.entry((1, 2), (2, 1)) - cbar) < 1e-13
    # N = 3, both nomes: every pair against the scalar formulas.
    mpk = ModularParams(q=q, r=r, k=0.7)
    pd3 = DynamicalParams((1.3 + 0.2j, 0.8 - 0.4j))
    u = 0.3 - 0.15j
    for starred in (False, True):
        R = rbar(mpk.qpow(2 * u), pd3, mpk, starred=starred, u=u)
        br = lambda x: jacobi_bracket(x, mpk, starred)
        for j1, j2 in ((1, 2), (1, 3), (2, 3)):
            s = pd3.value(j1, j2)
            expected = {((j1, j2), (j1, j2)): br(s + 1) * br(s - 1) * br(u)
                        / (br(s) ** 2 * br(u + 1)),
                        ((j2, j1), (j2, j1)): br(u) / br(u + 1),
                        ((j2, j1), (j1, j2)): br(1) * br(s + u) / (br(s) * br(u + 1)),
                        ((j1, j2), (j2, j1)): br(1) * br(s - u) / (br(s) * br(u + 1))}
            for (a, b), val in expected.items():
                assert abs(R.entry(a, b) - val) <= 1e-13 * abs(val), (starred, a, b)
        assert len(R.entries) == 3 + 4 * 3


def test_trigonometric_limit_of_entries():
    # p -> 0: theta(z, p) -> 1 - z, so every entry becomes the same ratio of
    # q-sine brackets; compare against that limit formula directly.
    q = 0.5
    r = math.log(1e-8) / (2 * math.log(q))
    mpl = ModularParams(q=q, r=r)
    u, s = 0.23 + 0.1j, 1.42
    z = mpl.qpow(2 * u)
    pd = DynamicalParams((s,))
    R = rbar(z, pd, mpl, u=u)

    def trig_bracket(x):
        return mpl.qpow(x * x / r - x) * (1.0 - mpl.qpow(2 * x))

    b = (trig_bracket(s + 1) * trig_bracket(s - 1) * trig_bracket(u)
         / (trig_bracket(s) ** 2 * trig_bracket(u + 1)))
    assert abs(R.entry((1, 2), (1, 2)) - b) < 1e-5 * abs(b)


def test_ice_rule_structural(mp, rng):
    for N in (2, 3):
        pd = random_pdyn(rng, N)
        R = rbar(0.7 * cmath.exp(0.8j), pd, mp)
        for ((a, b), (a2, b2)) in R.entries:
            assert sorted((a, b)) == sorted((a2, b2))


def test_rbar_rank_one_is_identity(mp):
    dense = rbar(0.6 + 0.2j, DynamicalParams(()), mp).dense()
    assert dense.shape == (1, 1)
    assert abs(dense[0, 0] - 1.0) < 1e-12


def test_dybe_residual_small(mp, rng):
    for _ in range(20):
        pd = random_pdyn(rng, 2)
        zs = [rng.uniform(0.6, 1.3) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
              for _ in range(3)]
        assert check_dybe(*zs, pd, mp) < 1e-9
    for _ in range(3):
        pd = random_pdyn(rng, 3)
        zs = [rng.uniform(0.6, 1.3) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
              for _ in range(3)]
        assert check_dybe(*zs, pd, mp) < 1e-8


def test_dybe_equal_points(mp, rng):
    pd = random_pdyn(rng, 2)
    z = 0.9 * cmath.exp(0.3j)
    assert check_dybe(z, z, z, pd, mp) < 1e-12


def test_embedded_two_slot_factor_is_dense_rbar(mp, rng):
    # Pins the chain basis order (slot 1 slowest) against DynRMatrix.dense.
    z = 0.8 * cmath.exp(0.5j)
    for N in (2, 3):
        pd = random_pdyn(rng, N)
        M = embedded_rbar(z, mp.u_of(z), pd, mp, 2, (1, 2))
        assert np.array_equal(M, rbar(z, pd, mp, u=mp.u_of(z)).dense())


def test_inversion(mp, rng):
    assert check_inversion(1.0, random_pdyn(rng, 2), mp) < 1e-12
    for N in (2, 3):
        pd = random_pdyn(rng, N)
        z = rng.uniform(0.5, 1.4) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        assert check_inversion(z, pd, mp) < 1e-9


def test_inversion_nome_mismatch_is_large(mp_level, rng):
    # Negative control: pairing the unstarred matrix with the starred inverse
    # must not satisfy unitarity when p* != p.
    pd = random_pdyn(rng, 2)
    z = 0.8 * cmath.exp(0.5j)
    A = rbar(z, pd, mp_level).dense()
    B = rbar(1.0 / z, pd, mp_level, starred=True).dense()
    P = permutation_dense(2)
    resid = np.max(np.abs(A @ P @ B @ P - np.eye(4)))
    assert resid > 1e-3


def test_resonant_parameter_raises(mp):
    pd = DynamicalParams((0.0,))  # [s] = [0] = 0
    with pytest.raises(SingularityError):
        rbar(0.7, pd, mp)
