"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Everything is property-based against the implemented identities at pinned
tolerances; criterion 9 drives the shipped CLI end to end.
"""

import cmath
import json
import math
import os
import subprocess
import sys
import time
from itertools import product

import numpy as np

from ellqg.ellfn import ModularParams, ell_gamma, jacobi_bracket
from ellqg.gtrep import exchange_check, gt_vector
from ellqg.qkz import e_factor, phi_kernel, phi_trig
from ellqg.rmat import check_dybe, permutation_dense, rbar
from ellqg.suites import _compositions, _rand_pdyn, _rand_points, _rand_t
from ellqg.tensorspace import (Composition, EvaluationPoints, PartitionIndex,
                               enumerate_partitions, leq)
from ellqg.weightfn import (TVariables, diagonal_value, modified_w, specialize,
                            transition_residuals)

MP = ModularParams(q=0.5, r=3.1)
SEED = 20240817


def report(criterion, description, residual, tolerance, ok):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} [{description}] "
          f"residual={residual:.3e} tolerance={tolerance:.1e}")


def test_criterion_1_special_function_identities():
    rng = np.random.default_rng(SEED)
    start = time.monotonic()
    worst = 0.0
    s = MP.q ** 4
    for _ in range(50):
        u = rng.uniform(-1.5, 1.5) + 1j * rng.uniform(-1.0, 1.0)
        b = jacobi_bracket(u, MP)
        worst = max(worst, abs(jacobi_bracket(u + MP.r, MP) + b) / abs(b))
        z = rng.uniform(0.2, 0.9) * cmath.exp(1j * rng.uniform(0, 2 * np.pi))
        worst = max(worst, abs(ell_gamma(z, MP.p, s)
                               * ell_gamma(MP.p * s / z, MP.p, s) - 1.0))
    elapsed = time.monotonic() - start
    ok = worst < 1e-10 and elapsed < 1.0
    report(1, "bracket shift + Gamma reflection, 50 points, < 1 s",
           worst, 1e-10, ok)
    assert worst < 1e-10
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_r_matrix_structure():
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    structural = 0.0
    for N in (2, 3):
        pd = _rand_pdyn(rng, N)
        R = rbar(1.0, pd, MP)
        worst = max(worst, float(np.max(np.abs(R.dense()
                                               - permutation_dense(N)))))
        z = rng.uniform(0.5, 1.3) * cmath.exp(1j * rng.uniform(0, 2 * np.pi))
        for ((a, b), (a2, b2)), coeff in rbar(z, pd, MP).entries.items():
            if sorted((a, b)) != sorted((a2, b2)):
                structural = max(structural, abs(coeff))
    ok = worst < 1e-12 and structural == 0.0
    report(2, "R-bar(1) = permutation, ice rule exact, N in {2,3}",
           max(worst, structural), 1e-12, ok)
    assert worst < 1e-12
    assert structural == 0.0


def test_criterion_3_dynamical_yang_baxter():
    rng = np.random.default_rng(SEED + 2)
    start = time.monotonic()
    worst = 0.0
    for _ in range(20):
        pd = _rand_pdyn(rng, 2)
        zs = [rng.uniform(0.6, 1.3) * cmath.exp(1j * rng.uniform(0, 2 * np.pi))
              for _ in range(3)]
        worst = max(worst, check_dybe(*zs, pd, MP))
    for _ in range(3):
        pd = _rand_pdyn(rng, 3)
        zs = [rng.uniform(0.6, 1.3) * cmath.exp(1j * rng.uniform(0, 2 * np.pi))
              for _ in range(3)]
        worst = max(worst, check_dybe(*zs, pd, MP))
    elapsed = time.monotonic() - start
    ok = worst < 1e-9 and elapsed < 30.0
    report(3, "DYBE residual, 20 sets N=2 and 3 sets N=3, < 30 s",
           worst, 1e-9, ok)
    assert worst < 1e-9
    assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_4_triangularity_and_diagonal():
    rng = np.random.default_rng(SEED + 3)
    worst_zero = 0.0
    worst_diag = 0.0
    for N in (2, 3):
        for n in range(1, 5):
            for lam in _compositions(n, N):
                z = _rand_points(rng, n, MP.q)
                pd = _rand_pdyn(rng, N)
                parts = enumerate_partitions(lam)
                for I in parts:
                    for at in parts:
                        val = specialize(I, at, z, pd, MP).value
                        if not leq(at, I):
                            worst_zero = max(worst_zero, abs(val))
                        elif at == I:
                            ref = diagonal_value(I, z, MP)
                            worst_diag = max(worst_diag,
                                             abs(val - ref) / max(1e-30, abs(ref)))
    ok = worst_zero < 1e-10 and worst_diag < 1e-9
    report(4, "triangularity (n<=4, N<=3) and closed-form diagonal",
           max(worst_zero, worst_diag), 1e-9, ok)
    assert worst_zero < 1e-10
    assert worst_diag < 1e-9


def test_criterion_5_transition_property():
    rng = np.random.default_rng(SEED + 4)
    worst = 0.0
    for N in (2, 3):
        for n in range(2, 5):
            for mu in product(range(1, N + 1), repeat=n):
                lam = Composition(tuple(sum(1 for c in mu if c == l)
                                        for l in range(1, N + 1)))
                z = _rand_points(rng, n, MP.q)
                pd = _rand_pdyn(rng, N)
                t = _rand_t(rng, lam)
                for res in transition_residuals([(mu, t, z, pd)], MP)[0]:
                    worst = max(worst, res)
    ok = worst < 1e-9
    report(5, "transition property, all adjacent swaps, n<=4, N<=3",
           worst, 1e-9, ok)
    assert worst < 1e-9


def test_criterion_6_modified_weight_function_routes():
    rng = np.random.default_rng(SEED + 5)
    worst = 0.0
    cases = [(2, (1, 2)), (2, (1, 1, 2)), (2, (2, 1, 2, 1)), (3, (1, 2, 3)),
             (3, (2, 1, 3, 1))]
    count = 0
    while count < 20:
        for N, mu in cases:
            lam = Composition(tuple(sum(1 for c in mu if c == l)
                                    for l in range(1, N + 1)))
            I = PartitionIndex.from_colors(mu, N)
            z = _rand_points(rng, lam.n, MP.q)
            pd = _rand_pdyn(rng, N)
            t = _rand_t(rng, lam)
            a = modified_w(I, t, z, pd, MP, route="ratio")
            b = modified_w(I, t, z, pd, MP, route="sym")
            worst = max(worst, abs(a - b) / max(1.0, abs(a)))
            count += 1
    ok = worst < 1e-10
    report(6, "modified weight function: ratio route = sym route, 20+ points",
           worst, 1e-10, ok)
    assert worst < 1e-10


def test_criterion_7_gt_representation():
    rng = np.random.default_rng(SEED + 6)
    worst_tri = 0.0
    for N in (2, 3):
        for n in (2, 3, 4):
            for lam in _compositions(n, N):
                z = _rand_points(rng, n, MP.q)
                pd = _rand_pdyn(rng, N)
                for I in enumerate_partitions(lam):
                    state = gt_vector(I, z, pd, MP)
                    for J in enumerate_partitions(lam):
                        if not leq(I, J):
                            worst_tri = max(worst_tri,
                                            abs(state.coefficient(J.colors())))
    worst_ex = 0.0
    broken_min = float("inf")
    for N, mu in [(2, (1, 1)), (2, (2, 2)), (2, (1, 2, 1, 2)), (3, (2, 3, 2, 3))]:
        I = PartitionIndex.from_colors(mu, N)
        z = _rand_points(rng, len(mu), MP.q)
        pd = _rand_pdyn(rng, N)
        for cur in ("e", "f"):
            for j1 in range(1, N):
                for j2 in range(1, N):
                    worst_ex = max(worst_ex, exchange_check(
                        j1, j2, I, z, pd, MP, current=cur))
        if 2 in mu and mu.count(2) >= 2:
            broken_min = min(broken_min, exchange_check(
                1, 1, I, z, pd, MP, current="e", tag_shift=False))
    ok = worst_tri < 1e-10 and worst_ex < 1e-9 and broken_min > 1e-3
    report(7, "GT triangularity, exchange relations, negative control",
           max(worst_tri, worst_ex), 1e-9, ok)
    assert worst_tri < 1e-10
    assert worst_ex < 1e-9
    assert broken_min > 1e-3


def test_criterion_8_qkz_kernels():
    rng = np.random.default_rng(SEED + 7)
    mp = ModularParams(q=0.5, r=3.1, k=1.0)
    worst_deg = 0.0
    for N, mu in [(2, (1, 2)), (3, (1, 2, 3))]:
        lam = Composition(tuple(sum(1 for c in mu if c == l)
                                for l in range(1, N + 1)))
        mods = np.sort(rng.uniform(0.35, 0.7, lam.n))
        phases = rng.uniform(0, 2 * np.pi, lam.n)
        z = EvaluationPoints(tuple(m * cmath.exp(1j * ph)
                                   for m, ph in zip(mods, phases)), mp.q)
        t = _rand_t(rng, lam)
        a = phi_kernel(t, z, mp, 1e-6)
        b = phi_trig(t, z, mp)
        worst_deg = max(worst_deg, abs(a - b) / max(1.0, abs(b)))
    worst_cov = 0.0
    lam = Composition((1, 1))
    pd = _rand_pdyn(rng, 2)
    t = _rand_t(rng, lam)
    base = e_factor(t, pd, mp)
    shifted = TVariables(((mp.p * t.levels[0][0],),))
    ratio = e_factor(shifted, pd, mp) / base
    expected = cmath.exp(2 * pd.value(1, 2) * math.log(mp.q))
    worst_cov = abs(ratio - expected) / abs(expected)
    ok = worst_deg < 1e-4 and worst_cov < 1e-12
    report(8, "kernel Q->0 degeneration (1e-4) and e-factor covariance (1e-12)",
           max(worst_deg, worst_cov), 1e-4, ok)
    assert worst_deg < 1e-4
    assert worst_cov < 1e-12


def test_criterion_9_end_to_end_cli():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "ellqg.cli", "verify", "all"],
                          capture_output=True, text=True, env=env)
    elapsed = time.monotonic() - start
    ok = proc.returncode == 0 and elapsed < 60.0
    residual = 0.0 if proc.returncode == 0 else 1.0
    report(9, f"verify all on default config in {elapsed:.1f}s, exit 0",
           residual, 0.5, ok)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    rep = json.loads(proc.stdout)
    assert rep["all_pass"]
