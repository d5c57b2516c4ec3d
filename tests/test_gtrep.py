import cmath
import math
from itertools import product

import numpy as np
import pytest

from conftest import random_pdyn, random_points
from ellqg.ellfn import ModularParams, jacobi_bracket, qpoch, theta
from ellqg.errors import ParameterError, PoleError
from ellqg.gtrep import (TensorState, cartan_matrix, e_on_gt, eval_rep_single,
                         exchange_check, f_on_gt, gauge_constants, gt_vector,
                         lplus_tensor, phi_move_ratio_check, phi_on_gt,
                         require_level_zero, tag_p_offset)
from ellqg.rmat import rbar
from ellqg.suites import _compositions as all_compositions
from ellqg.tensorspace import (EvaluationPoints, PartitionIndex, color_weight,
                               enumerate_partitions, leq)
from ellqg.weightfn import diagonal_value


def test_level_zero_guard(mp_level):
    with pytest.raises(ParameterError):
        require_level_zero(mp_level)


def test_cartan_and_tag_offset():
    assert cartan_matrix(3).tolist() == [[2, -1], [-1, 2]]
    assert tag_p_offset((1, 0), 3) == (-2, 1)
    assert tag_p_offset((0, 2), 3) == (2, -4)


def test_eval_rep_raising_annihilates_other_colors(mp):
    N = 3
    M, tag = eval_rep_single("e", 1, 0.8, mp, N)
    for k in range(N):
        col = np.zeros(N)
        col[k] = 1.0
        out = M @ col
        if k != 1:  # only v_2 maps to v_1
            assert np.all(out == 0)
    assert tag == (1, 0)
    expected = qpoch(mp.p * mp.q ** 2, mp.p) / qpoch(mp.p, mp.p)
    assert abs(M[0, 1] - expected) < 1e-14


def test_eval_rep_lowering_entry(mp):
    M, tag = eval_rep_single("f", 2, 0.8, mp, 3)
    assert tag == (0, 0)
    expected = qpoch(mp.p * mp.q ** -2, mp.p) / qpoch(mp.p, mp.p)
    assert abs(M[2, 1] - expected) < 1e-14


def test_eval_rep_phi_plus_diagonal(mp):
    N, j, z, w = 3, 1, 0.8, 0.5 + 0.2j
    M, tag = eval_rep_single("phi+", j, z, mp, N, w=w)
    assert tag == (1, 0)
    q, p = mp.q, mp.p
    # color j: h = +1; color j+1: h = -1; others ratio 1
    v1 = q ** -1 * theta(q ** (-j + N - 1 + 2) * w / z, p) \
        / theta(q ** (-j + N - 1) * w / z, p)
    v2 = q * theta(q ** (-j + N - 1 - 2) * w / z, p) \
        / theta(q ** (-j + N - 1) * w / z, p)
    assert abs(M[0, 0] - v1) < 1e-13
    assert abs(M[1, 1] - v2) < 1e-13
    assert abs(M[2, 2] - 1.0) < 1e-13
    assert np.max(np.abs(M - np.diag(np.diag(M)))) == 0.0


def test_eval_rep_alpha_eigenvalue(mp):
    N, j, m, z = 2, 1, 3, 0.7 + 0.1j
    M, _ = eval_rep_single("alpha", j, z, mp, N, m=m)
    q = mp.q
    c = (q ** m - q ** -m) / (q - 1 / q) / m * (q ** (j - N + 1) * z) ** m
    assert abs(M[0, 0] - c * q ** -m) < 1e-13
    assert abs(M[1, 1] + c * q ** m) < 1e-13


def test_lplus_single_site_reduces_to_rbar(mp, rng):
    pd = random_pdyn(rng, 2)
    z = random_points(rng, 1, mp.q)
    w = 0.9 * cmath.exp(0.7j)
    M = lplus_tensor(w, z, pd, mp)
    R = rbar(z.z[0] / w, pd, mp, starred=True, u=z.u[0] - mp.u_of(w)).dense()
    assert np.max(np.abs(M - R)) < 1e-14


def test_lplus_two_site_matches_shifted_product(mp, rng):
    N = 2
    pd = random_pdyn(rng, N)
    z = random_points(rng, 2, mp.q)
    w = 0.85 * cmath.exp(-0.5j)
    dim = N ** 3
    F1 = np.zeros((dim, dim), complex)
    F2 = np.zeros((dim, dim), complex)
    R1 = rbar(z.z[0] / w, pd, mp, starred=True, u=z.u[0] - mp.u_of(w))
    for cols in product(range(1, N + 1), repeat=3):
        col = (cols[0] - 1) * N * N + (cols[1] - 1) * N + (cols[2] - 1)
        for (a2, b2), cf in R1.apply(cols[0], cols[1]):
            row = (a2 - 1) * N * N + (b2 - 1) * N + (cols[2] - 1)
            F1[row, col] += cf
        R2 = rbar(z.z[1] / w, pd.shifted(color_weight(cols[1], N)), mp,
                  starred=True, u=z.u[1] - mp.u_of(w))
        for (a2, b2), cf in R2.apply(cols[0], cols[2]):
            row = (a2 - 1) * N * N + (cols[1] - 1) * N + (b2 - 1)
            F2[row, col] += cf
    assert np.max(np.abs(lplus_tensor(w, z, pd, mp) - F2 @ F1)) < 1e-13


def test_lplus_conserves_color_content(mp, rng):
    N = 2
    pd = random_pdyn(rng, N)
    z = random_points(rng, 2, mp.q)
    M = lplus_tensor(0.9 * cmath.exp(0.3j), z, pd, mp)
    dim = N ** 3

    def unpack(idx):
        out = []
        for _ in range(3):
            out.append(idx % N + 1)
            idx //= N
        return sorted(out)

    for col in range(dim):
        for row in range(dim):
            if M[row, col] != 0:
                assert unpack(row) == unpack(col)


def test_gt_vector_single_site_is_standard_basis(mp, rng):
    pd = random_pdyn(rng, 2)
    z = random_points(rng, 1, mp.q)
    I = PartitionIndex.from_colors((1,), 2)
    state = gt_vector(I, z, pd, mp)
    assert abs(state.coefficient((1,)) - 1.0) < 1e-12
    assert abs(state.coefficient((2,))) < 1e-12


def test_gt_vector_triangular_and_diagonal(mp, rng):
    for N in (2, 3):
        for n in (2, 3, 4):
            for lam in all_compositions(n, N):
                z = random_points(rng, n, mp.q)
                pd = random_pdyn(rng, N)
                zinv = EvaluationPoints(tuple(1 / x for x in z.z), mp.q)
                for I in enumerate_partitions(lam):
                    state = gt_vector(I, z, pd, mp)
                    for J in enumerate_partitions(lam):
                        if not leq(I, J):
                            assert abs(state.coefficient(J.colors())) < 1e-10
                    ref = diagonal_value(I, zinv, mp)
                    assert abs(state.coefficient(I.colors()) - ref) \
                        < 1e-9 * max(1e-30, abs(ref))


def test_phi_empty_parts_gives_unit_eigenvalue(mp, rng):
    I = PartitionIndex.from_colors((3, 3), 3)
    z = random_points(rng, 2, mp.q)
    val, tag = phi_on_gt(1, 0.3 + 0.1j, I, z, mp)
    assert val == 1.0
    assert tag == (1, 0)


def test_phi_literal_two_site(mp, rng):
    I = PartitionIndex.from_colors((1, 2), 2)
    z = random_points(rng, 2, mp.q)
    v = 0.25 + 0.15j
    val, _ = phi_on_gt(1, v, I, z, mp)
    u1, u2 = z.u
    br = lambda x: jacobi_bracket(x, mp)
    ref = br(u1 - v + 1) * br(u2 - v - 1) / (br(u1 - v) * br(u2 - v))
    assert abs(val - ref) < 1e-12 * abs(ref)


def test_phi_move_ratio(mp, rng):
    for N, mu in [(2, (1, 2, 2, 1)), (3, (1, 2, 3, 2))]:
        I = PartitionIndex.from_colors(mu, N)
        z = random_points(rng, len(mu), mp.q)
        for j in range(1, N):
            assert phi_move_ratio_check(j, I, z, 0.3 + 0.2j, mp) < 1e-10


def test_phi_move_ratio_divisor_meets_the_pole_test(mp, rng):
    I = PartitionIndex.from_colors((1, 2, 2, 1), 2)
    z = random_points(rng, 4, mp.q)
    with pytest.raises(PoleError, match=r"\[u_2 - v - 1\] vanished"):
        phi_move_ratio_check(1, I, z, z.u[1] - 1.0, mp)


def test_residuals_keep_a_nan(mp, rng, monkeypatch):
    # max(0.0, nan) is 0.0: a fold by max would pass on nan comparisons.
    I = PartitionIndex.from_colors((1, 2, 2, 1), 2)
    z = random_points(rng, 4, mp.q)
    pd = random_pdyn(rng, 2)
    monkeypatch.setattr("ellqg.gtrep._small_power", lambda *a: complex("nan"))
    assert math.isnan(exchange_check(1, 1, I, z, pd, mp, current="f"))
    monkeypatch.setattr("ellqg.gtrep.phi_on_gt", lambda *a: (complex("nan"), (1,)))
    assert math.isnan(phi_move_ratio_check(1, I, z, 0.3 + 0.2j, mp))


def test_e_on_gt_empty_support(mp, rng):
    I = PartitionIndex.from_colors((1, 1), 2)  # I_2 empty
    z = random_points(rng, 2, mp.q)
    assert e_on_gt(1, I, z, mp).terms == ()


def test_e_on_gt_single_support(mp, rng):
    I = PartitionIndex.from_colors((2, 1), 2)  # I_2 = {1}
    z = random_points(rng, 2, mp.q)
    res = e_on_gt(1, I, z, mp)
    assert len(res.terms) == 1
    term = res.terms[0]
    _, astar = gauge_constants(mp)
    assert term.site == 1
    assert abs(term.coeff - astar) < 1e-12 * abs(astar)
    assert term.target.shape().sizes == (2, 0)
    assert term.tag == (1,)


def test_f_on_gt_coefficients(mp, rng):
    I = PartitionIndex.from_colors((1, 1), 2)
    z = random_points(rng, 2, mp.q)
    res = f_on_gt(1, I, z, mp)
    assert {t.site for t in res.terms} == {1, 2}
    br = lambda x: jacobi_bracket(x, mp)
    u1, u2 = z.u
    by_site = {t.site: t for t in res.terms}
    assert abs(by_site[1].coeff - br(u1 - u2 + 1) / br(u1 - u2)) < 1e-12
    assert abs(by_site[2].coeff - br(u2 - u1 + 1) / br(u2 - u1)) < 1e-12
    assert all(t.tag == (0,) for t in res.terms)


def test_gauge_product(mp):
    from ellqg.ellfn import bracket_derivative_at_zero
    a, astar = gauge_constants(mp)
    target = -bracket_derivative_at_zero(mp) / ((mp.q - 1 / mp.q)
                                                * jacobi_bracket(1.0, mp))
    assert a == 1.0
    assert abs(a * astar - target) < 1e-12 * abs(target)


def test_exchange_relations_all_pairs(mp, rng):
    cases = [(2, (1, 1)), (2, (2, 2)), (2, (1, 2, 1, 2)), (3, (2, 3, 2, 3)),
             (3, (1, 2, 2, 3))]
    for N, mu in cases:
        I = PartitionIndex.from_colors(mu, N)
        z = random_points(rng, len(mu), mp.q)
        pd = random_pdyn(rng, N)
        for current in ("e", "f"):
            for j1 in range(1, N):
                for j2 in range(1, N):
                    assert exchange_check(j1, j2, I, z, pd, mp,
                                          current=current) < 1e-9


def test_exchange_and_eval_rep_near_q_one(rng):
    # q = 0.99: products need more than the built-in 512 factors, and every
    # bracket is below 1e-12 in modulus without being a zero.
    mp = ModularParams(q=0.99, r=3.1, max_terms=4096)
    I = PartitionIndex.from_colors((1, 2, 1, 2), 2)
    z = random_points(rng, 4, mp.q)
    pd = random_pdyn(rng, 2)
    assert exchange_check(1, 1, I, z, pd, mp, current="e") < 1e-9
    M, _ = eval_rep_single("e", 1, 0.8, mp, 2)
    qp = lambda x: qpoch(x, mp.p, max_terms=4096)
    assert abs(M[0, 1] - qp(mp.p * mp.q ** 2) / qp(mp.p)) < 1e-14


def test_exchange_non_adjacent_commutes(mp, rng):
    pd = random_pdyn(rng, 4)
    z = random_points(rng, 4, mp.q)
    I_e = PartitionIndex.from_colors((2, 4, 2, 4), 4)
    I_f = PartitionIndex.from_colors((1, 3, 1, 3), 4)
    assert exchange_check(1, 3, I_e, z, pd, mp, current="e") < 1e-12
    assert exchange_check(1, 3, I_f, z, pd, mp, current="f") < 1e-12


def test_exchange_negative_control(mp, rng):
    # Disabling the dynamical-shift bookkeeping must break the raising
    # current exchange relation by an O(1) amount.
    I = PartitionIndex.from_colors((2, 2), 2)
    z = random_points(rng, 2, mp.q)
    pd = random_pdyn(rng, 2)
    good = exchange_check(1, 1, I, z, pd, mp, current="e", tag_shift=True)
    broken = exchange_check(1, 1, I, z, pd, mp, current="e", tag_shift=False)
    assert good < 1e-9
    assert broken > 1e-3


def test_tensor_state_bookkeeping():
    st = TensorState(N=2)
    st.add((1, 2), 0.5, (0,))
    st.add((1, 2), 0.25, (0,))
    assert st.coefficient((1, 2)) == 0.75
    st.add((1, 2), -0.75, (0,))
    assert st.coefficient((1, 2)) == 0.0
    assert (1, 2) not in st.terms


def test_phi_theta_ratio_pole(mp):
    from ellqg.errors import PoleError
    # w on the zero set of the denominator theta: q^{-j+N-1} w / z = 1
    N, j, z = 2, 1, 0.8
    w = z  # q^0 * w / z = 1 at N - 1 - j = 0
    with pytest.raises(PoleError):
        eval_rep_single("phi+", j, z, mp, N, w=w)
