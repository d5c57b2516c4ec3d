import math

import pytest

from conftest import random_pdyn, random_points
from ellqg.ellfn import ModularParams, jacobi_bracket
from ellqg.errors import ParameterError, PoleError
from ellqg.gtrep import (cartan_matrix, e_on_gt, exchange_check, f_on_gt,
                         gauge_constants, gt_vector, phi_move_ratio_check, phi_on_gt,
                         require_level_zero, tag_p_offset)
from ellqg.suites import _compositions as all_compositions
from ellqg.tensorspace import (DynamicalParams, EvaluationPoints, PartitionIndex,
                               enumerate_partitions, leq)
from ellqg.weightfn import diagonal_value


def test_level_zero_guard(mp_level):
    with pytest.raises(ParameterError):
        require_level_zero(mp_level)


def test_cartan_and_tag_offset():
    assert cartan_matrix(3).tolist() == [[2, -1], [-1, 2]]
    assert tag_p_offset((1, 0), 3) == (-2, 1)
    assert tag_p_offset((0, 2), 3) == (2, -4)


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


def test_gt_vector_keeps_a_tiny_diagonal_coefficient():
    # Nearly coincident spectral points, which the config validator accepts,
    # make the diagonal coefficient about 3e-34: small, but not zero.
    mp = ModularParams(q=0.5, r=3.1)
    z = EvaluationPoints((0.5, 0.5 + 3e-12, 0.5 + 6e-12), mp.q)
    pd = DynamicalParams((1.2 + 0.3j, 0.9 - 0.2j))
    I = PartitionIndex.from_colors((1, 2, 3), 3)
    zinv = EvaluationPoints(tuple(1 / x for x in z.z), mp.q)
    ref = diagonal_value(I, zinv, mp)
    assert 0 < abs(ref) < 1e-30
    got = gt_vector(I, z, pd, mp).coefficient(I.colors())
    assert abs(got - ref) < 1e-9 * abs(ref)


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
    assert e_on_gt(1, I, z, mp) == ()


def test_e_on_gt_single_support(mp, rng):
    I = PartitionIndex.from_colors((2, 1), 2)  # I_2 = {1}
    z = random_points(rng, 2, mp.q)
    terms = e_on_gt(1, I, z, mp)
    assert len(terms) == 1
    term = terms[0]
    _, astar = gauge_constants(mp)
    assert term.site == 1
    assert abs(term.coeff - astar) < 1e-12 * abs(astar)
    assert term.target.shape().sizes == (2, 0)
    assert term.tag == (1,)


def test_f_on_gt_coefficients(mp, rng):
    I = PartitionIndex.from_colors((1, 1), 2)
    z = random_points(rng, 2, mp.q)
    terms = f_on_gt(1, I, z, mp)
    assert {t.site for t in terms} == {1, 2}
    br = lambda x: jacobi_bracket(x, mp)
    u1, u2 = z.u
    by_site = {t.site: t for t in terms}
    assert abs(by_site[1].coeff - br(u1 - u2 + 1) / br(u1 - u2)) < 1e-12
    assert abs(by_site[2].coeff - br(u2 - u1 + 1) / br(u2 - u1)) < 1e-12
    assert all(t.tag == (0,) for t in terms)


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


def test_exchange_near_q_one(rng):
    # q = 0.99: products need more than the built-in 512 factors, and every
    # bracket is below 1e-12 in modulus without being a zero.
    mp = ModularParams(q=0.99, r=3.1, max_terms=4096)
    I = PartitionIndex.from_colors((1, 2, 1, 2), 2)
    z = random_points(rng, 4, mp.q)
    pd = random_pdyn(rng, 2)
    assert exchange_check(1, 1, I, z, pd, mp, current="e") < 1e-9


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


