import cmath
import json
import math
import re

import numpy as np
import pytest

from conftest import random_pdyn, random_points
from ellqg.cli import main
from ellqg.ellfn import ModularParams, jacobi_bracket
from ellqg import gtrep, weightfn
from ellqg.errors import FloatRangeError, ParameterError, PoleError
from ellqg.gtrep import (CurrentTerm, cartan_matrix, e_on_gt, exchange_check, f_on_gt,
                         gauge_constants, gt_vector, gt_vectors, phi_move_ratio_check,
                         phi_on_gt, require_level_zero, tag_p_offset)
from ellqg.suites import _compositions as all_compositions
from ellqg.tensorspace import (Composition, DynamicalParams, EvaluationPoints, PartitionIndex,
                               enumerate_partitions, leq)
from ellqg.weightfn import WeightFunctionEval, diagonal_value, specialize_all


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


def test_exchange_compares_terms_only_one_order_produces(mp, rng, monkeypatch):
    # f_2 after f_1 gains a term back to I (site 2, coefficient 1); f_1 after
    # f_2 never reaches I, so only the RHS composition has that term.
    I = PartitionIndex.from_colors((1, 2, 1, 2), 3)
    z, pd = random_points(rng, 4, mp.q), random_pdyn(rng, 3)
    assert exchange_check(1, 2, I, z, pd, mp) < 1e-9
    f_on_gt = gtrep.f_on_gt

    def gaining(j, J, z, mp):
        extra = (CurrentTerm(2, 1.0 + 0.0j, I, (0, 0)),) if j == 2 and J != I else ()
        return f_on_gt(j, J, z, mp) + extra

    monkeypatch.setattr(gtrep, "f_on_gt", gaining)
    assert exchange_check(1, 2, I, z, pd, mp) > 1e-3


@pytest.mark.parametrize("call", ["specialize_all", "gt_vectors", "e_on_gt", "f_on_gt"])
def test_equal_spectral_points_are_refused(mp, call):
    z = EvaluationPoints((0.8 + 0.1j, 0.8 + 0.1j), mp.q)
    I = PartitionIndex.from_colors((2, 1), 2)
    pd = DynamicalParams((1.2 + 0.3j,))
    calls = {"specialize_all": lambda: specialize_all([(I, I, pd)], z, mp),
             "gt_vectors": lambda: gt_vectors([I], z, pd, mp),
             "e_on_gt": lambda: e_on_gt(1, I, z, mp),
             "f_on_gt": lambda: f_on_gt(1, I, z, mp)}
    with pytest.raises(ParameterError, match="pairwise distinct"):
        calls[call]()


def test_phi_on_gt_names_its_overflowing_bracket(mp):
    # [1] is normal, so the overflow of [u_1 - v] is raised as is; u_1 = 1/2 at z_1 = q.
    z = EvaluationPoints((0.5, 0.3j), mp.q)
    I = PartitionIndex.from_colors((1, 2), 2)
    with pytest.raises(FloatRangeError, match=r"^\[0\.5-60j\] overflows"):
        phi_on_gt(1, 60j, I, z, mp)


def test_phi_on_gt_far_from_the_points_raises_float_range_error(mp):
    # q^(2(u_1 - v)) underflows to 0: the bracket is named, with no warning
    # and no PoleError from a false zero.
    z = EvaluationPoints((0.5, 0.3j), mp.q)
    I = PartitionIndex.from_colors((1, 2), 2)
    with pytest.raises(FloatRangeError, match=r"^q\^\(2u\) of \[-999\.5-0j\] leaves"):
        phi_on_gt(1, 1e3, I, z, mp)


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


def test_gt_vector_at_resonant_points_has_a_pole_on_one_side_only():
    # The lambda = (1, 1) probe of the ``gt_vectors`` docstring.
    q = 0.5
    mp, pd, z1 = ModularParams(q=q, r=3.1), DynamicalParams((1.2 + 0.3j,)), 0.6 * cmath.exp(0.3j)
    I12, I21 = (PartitionIndex.from_colors(c, 2) for c in ((1, 2), (2, 1)))

    def vector(I, sign, h):
        return gt_vector(I, EvaluationPoints((z1, q ** (2 * sign) * z1 * (1 + h)), q), pd, mp).terms

    # z_2 = q^2 z_1 (1 + h): the largest coefficient of (1, 2) grows like 1/h.
    scaled = [h * max(map(abs, vector(I12, 1, h).values())) for h in (1e-4, 1e-6, 1e-8)]
    assert all(abs(x / scaled[-1] - 1.0) < 1e-3 for x in scaled) and 1.16 < scaled[-1] < 1.17
    with pytest.raises(PoleError, match=r"^\[v\^2_2 - v\^1_1 \+ 1\] vanished$"):
        vector(I12, 1, 0.0)
    # z_2 = q^(-2) z_1 (1 + h): both vectors converge like h; the exact point
    # returns the limit of (1, 2) and raises for (2, 1), whose limit is finite.
    exact = vector(I12, -1, 0.0)
    assert abs(exact[1, 2] - 0.94521064266) < 1e-10
    for I, limit in [(I12, exact), (I21, {(2, 1): 1.0})]:
        for h in (1e-6, 1e-8):
            near = vector(I, -1, h)
            assert set(near) == set(limit)
            assert all(abs(near[k] - limit[k]) < 10 * h for k in limit), (I, h)
    with pytest.raises(PoleError, match=r"^\[v\^2_1 - v\^1_1 \+ 1\] vanished$"):
        vector(I21, -1, 0.0)


def _gt_basis_config(seed):
    """The ``gt basis`` input of the benchmark's gt_basis workload at ``seed``
    (bench/workloads.py): lambda = (2, 2, 1) at seeded points."""
    rng = np.random.default_rng(seed)
    mods, phases = np.sort(rng.uniform(0.45, 0.95, 5)), rng.uniform(0.0, 2.0 * math.pi, 5)
    z = [float(m) * cmath.exp(1j * float(ph)) for m, ph in zip(mods, phases)]
    P = [complex(rng.uniform(0.7, 1.6), rng.uniform(-0.5, 0.5)) for _ in range(2)]
    return {"q": 0.5, "r": 3.1, "k": 0.0, "N": 3, "n": 5, "lambda": [2, 2, 1], "seed": seed,
            "z": [[x.real, x.imag] for x in z], "P": [[x.real, x.imag] for x in P]}


def test_gt_basis_builds_no_per_item_result_objects(monkeypatch, tmp_path):
    # The 900 coefficients of ``gt basis`` at lambda = (2, 2, 1) are read as
    # values: no WeightFunctionEval is built on the way.
    built = []

    class Counted(WeightFunctionEval):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(weightfn, "WeightFunctionEval", Counted)
    config = tmp_path / "gt.json"
    config.write_text(json.dumps(_gt_basis_config(0)))
    assert main(["gt", "basis", "--config", str(config), "--out", str(tmp_path / "o.json")]) == 0
    records = json.loads((tmp_path / "o.json").read_text())["records"]
    assert len(records) == 30 and built == []
    weightfn.specialize_all([(I, I, DynamicalParams((1.2 + 0.3j, 0.9 - 0.2j))) for I in
                             enumerate_partitions(Composition((2, 2, 1)))[:3]],
                            EvaluationPoints((0.5, 0.3j, -0.6, 0.2 - 0.7j, 0.8j), 0.5),
                            ModularParams(q=0.5, r=3.1))
    assert len(built) == 3  # the counter sees the public batch's objects


# Refusals no other test reaches: (call, error class, text fragment).
REFUSALS = [
    pytest.param(lambda: exchange_check(1, 1, PartitionIndex.from_colors((1, 2), 2),
                                        EvaluationPoints((0.5, 0.6j), 0.5),
                                        DynamicalParams((1.2,)), ModularParams(q=0.5, r=3.1),
                                        current="g"),
                 ParameterError, "current must be 'e' or 'f'", id="current g"),
]


@pytest.mark.parametrize("call, error, text", REFUSALS)
def test_refusals(call, error, text):
    with pytest.raises(error, match=re.escape(text)):
        call()
