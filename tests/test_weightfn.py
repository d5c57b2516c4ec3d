import cmath
import json
import math
import re
from dataclasses import replace
from itertools import permutations, product

import numpy as np
import pytest

from conftest import random_pdyn, random_points, random_t, shape_of
from ellqg.cli import build_config, main, run_suite
from ellqg.ellfn import ModularParams, jacobi_bracket
from ellqg import ellfn, suites, weightfn
from ellqg.errors import (EllqgError, FloatRangeError, ParameterError, PoleError,
                          ShapeError, SingularityError, settle)
from ellqg.gtrep import e_on_gt, f_on_gt, gt_vector, gt_vectors, phi_on_gt
from ellqg.qkz import IntegrandSpec
from ellqg.rmat import rbar
from ellqg.suites import _compositions as all_compositions
from ellqg.suites import _wf_cases
from ellqg.tensorspace import (Composition, DynamicalParams, EvaluationPoints,
                               PartitionIndex, enumerate_partitions, leq)
from ellqg.weightfn import (TVariables, diagonal_value, e_lambda,
                            modified_w, specialize, specialize_all, specialize_points,
                            stab_matrix, stable_envelope_restriction, transition_residuals,
                            triangularity_violations, w_tilde)


# ------------------------------------------------------ independent oracle --
# Literal transcriptions of the pre-symmetrization term for small cases,
# written without any shared helper code.

def _u_ref_n1_color1(t, z, s0, mp):
    """N=2, n=1, mu=(1): single cross-level factor."""
    br = lambda x: jacobi_bracket(x, mp)
    lq = 2 * math.log(mp.q)
    v = cmath.log(t) / lq
    u1 = cmath.log(z) / lq
    A = s0  # C = 0 for the last site
    return br(u1 - v + A) * br(1) / (br(u1 - v + 1) * br(A))


def _u_ref_n2_12(t, z1, z2, s0, mp):
    """N=2, n=2, mu=(1,2): match site 1, extra factor from site 2."""
    br = lambda x: jacobi_bracket(x, mp)
    lq = 2 * math.log(mp.q)
    v = cmath.log(t) / lq
    u1, u2 = cmath.log(z1) / lq, cmath.log(z2) / lq
    A = s0 + 1  # C_{1,2}(1) = -1
    first = br(u1 - v + A) * br(1) / (br(u1 - v + 1) * br(A))
    cross = br(u2 - v) / (br(u2 - v + 1))
    return first * cross


def _w_ref_22(t, z, pd, mp):
    """N=2, lambda=(2,2), mu=(1,1,2,2): brute-force symmetrized sum."""
    br = lambda x: jacobi_bracket(x, mp)
    lq = 2 * math.log(mp.q)
    u = [cmath.log(x) / lq for x in z]
    s0 = pd.value(1, 2)

    def term(v1, v2):
        # sites 1 and 2 carry color 1; level-2 sites are 1,2,3,4
        # site 1: C = #(j>1 mu_j=1) - #(j>1 mu_j=2) = 1 - 2 = -1
        # site 2: C = 0 - 2 = -2
        total = 1.0 + 0.0j
        for (va, site, C) in ((v1, 1, -1), (v2, 2, -2)):
            A = s0 - C
            b = site - 1  # site s sits at slot s in the full level-2 list
            total *= br(u[b] - va + A) * br(1) / (br(u[b] - va + 1) * br(A))
            for bp in range(4):
                if bp + 1 > site:
                    total *= br(u[bp] - va) / br(u[bp] - va + 1)
        total *= br(v1 - v2 - 1) / br(v1 - v2)
        return total

    v1 = cmath.log(t[0]) / lq
    v2 = cmath.log(t[1]) / lq
    return term(v1, v2) + term(v2, v1)


def test_w_tilde_all_colors_last_is_one(mp, rng):
    I = PartitionIndex.from_colors((2, 2, 2), 2)
    z = random_points(rng, 3, mp.q)
    t = TVariables(((),))
    pd = random_pdyn(rng, 2)
    assert w_tilde(I, t, z, pd, mp).value == 1.0


def test_a_weight_function_needs_two_colors(mp):
    # N = 1 has no level to sum over; every weight-function path reads ``_label`` first.
    I, pd = PartitionIndex.from_colors((1, 1), 1), DynamicalParams(())
    z = EvaluationPoints((0.5, 0.3j), mp.q)
    for call in (lambda: w_tilde(I, TVariables(()), z, pd, mp),
                 lambda: specialize_all([(I, I, pd)], z, mp),
                 lambda: gt_vectors([I], z, pd, mp)):
        with pytest.raises(ShapeError, match="needs N >= 2 colors"):
            call()


def test_w_tilde_single_site_oracle(mp, rng):
    I = PartitionIndex.from_colors((1,), 2)
    z = random_points(rng, 1, mp.q)
    pd = random_pdyn(rng, 2)
    tval = 0.7 * cmath.exp(0.9j)
    got = w_tilde(I, TVariables(((tval,),)), z, pd, mp).value
    ref = _u_ref_n1_color1(tval, z.z[0], pd.value(1, 2), mp)
    assert abs(got - ref) < 1e-12 * max(1.0, abs(ref))


def test_w_tilde_two_site_oracle(mp, rng):
    I = PartitionIndex.from_colors((1, 2), 2)
    z = random_points(rng, 2, mp.q)
    pd = random_pdyn(rng, 2)
    tval = 0.6 * cmath.exp(-0.4j)
    got = w_tilde(I, TVariables(((tval,),)), z, pd, mp).value
    ref = _u_ref_n2_12(tval, z.z[0], z.z[1], pd.value(1, 2), mp)
    assert abs(got - ref) < 1e-12 * max(1.0, abs(ref))


def test_w_tilde_block_permutation_invariance(mp, rng):
    for N, mu in [(2, (1, 1, 2)), (3, (1, 2, 3, 2))]:
        lam = shape_of(mu, N)
        I = PartitionIndex.from_colors(mu, N)
        z = random_points(rng, lam.n, mp.q)
        pd = random_pdyn(rng, N)
        t = random_t(rng, lam)
        base = w_tilde(I, t, z, pd, mp).value
        for perms in product(*[permutations(range(lam.prefix(l)))
                               for l in range(1, lam.N)]):
            val = w_tilde(I, t.permuted(perms), z, pd, mp).value
            assert abs(val - base) < 1e-12 * max(1.0, abs(base))


def test_w_tilde_trivial_sym_equals_u_tilde(mp, rng):
    I = PartitionIndex.from_colors((1, 2), 2)
    lam = I.shape()
    z = random_points(rng, 2, mp.q)
    pd = random_pdyn(rng, 2)
    t = random_t(rng, lam)
    res = w_tilde(I, t, z, pd, mp)
    assert res.terms_evaluated == 1
    assert abs(res.value - _term_ref(I, t, z, pd, mp)) < 1e-14


def test_w_tilde_22_against_transcription(mp, rng):
    I = PartitionIndex.from_colors((1, 1, 2, 2), 2)
    z = random_points(rng, 4, mp.q)
    pd = random_pdyn(rng, 2)
    t = random_t(rng, I.shape())
    got = w_tilde(I, t, z, pd, mp)
    ref = _w_ref_22(t.levels[0], z.z, pd, mp)
    assert got.terms_evaluated == 2
    assert abs(got.value - ref) < 1e-11 * max(1.0, abs(ref))


def test_triangularity_all_shapes(mp, rng):
    for N in (2, 3):
        for n in range(1, 5):
            for lam in all_compositions(n, N):
                z = random_points(rng, n, mp.q)
                pd = random_pdyn(rng, N)
                assert triangularity_violations(lam, z, pd, mp) < 1e-10


def test_triangularity_violations_keep_a_nan(mp, rng, monkeypatch):
    # max(0.0, nan) is 0.0: a fold by max would report no violation.
    monkeypatch.setattr("ellqg.weightfn.specialize_points",
                        lambda points, *a: [[complex("nan")] * len(p[2]) for p in points])
    z = random_points(rng, 2, mp.q)
    assert math.isnan(triangularity_violations(Composition((1, 1)), z,
                                               random_pdyn(rng, 2), mp))


def test_diagonal_matches_closed_product(mp, rng):
    for N in (2, 3):
        for n in range(1, 5):
            for lam in all_compositions(n, N):
                z = random_points(rng, n, mp.q)
                pd = random_pdyn(rng, N)
                for I in enumerate_partitions(lam):
                    ref = diagonal_value(I, z, mp)
                    val = specialize(I, I, z, pd, mp).value
                    assert abs(val - ref) < 1e-9 * max(1e-30, abs(ref))


def test_pole_test_is_relative_near_q_one(rng):
    # q = 0.99: every bracket is below 1e-12 in modulus, and none is a zero.
    mp = ModularParams(q=0.99, r=3.1, max_terms=4096)
    I = PartitionIndex.from_colors((2, 1, 2), 2)
    z = random_points(rng, 3, mp.q)
    pd = random_pdyn(rng, 2)
    assert abs(jacobi_bracket(1.0, mp)) < 1e-12
    ref = diagonal_value(I, z, mp)
    assert abs(specialize(I, I, z, pd, mp).value - ref) < 1e-9 * abs(ref)


def test_modified_w_beyond_float_range_raises():
    # q = 0.99: this modified weight function is beyond the float range on
    # both routes; each must raise, not return inf or nan.
    rng = np.random.default_rng(1)
    mp = ModularParams(q=0.99, r=3.1, max_terms=4096)
    I = PartitionIndex.from_colors((2, 1, 2, 1), 2)
    z, pd, t = random_points(rng, 4, mp.q), random_pdyn(rng, 2), random_t(rng, I.shape())
    for route in ("ratio", "sym"):
        with pytest.raises(FloatRangeError, match="overflows"):
            modified_w(I, t, z, pd, mp, route=route)


def test_diagonal_single_site_is_one(mp, rng):
    I = PartitionIndex.from_colors((1,), 2)
    z = random_points(rng, 1, mp.q)
    pd = random_pdyn(rng, 2)
    assert abs(specialize(I, I, z, pd, mp).value - 1.0) < 1e-12


def test_specialization_counts_terms(mp, rng):
    lam = Composition((2, 1))
    z = random_points(rng, 3, mp.q)
    pd = random_pdyn(rng, 2)
    parts = enumerate_partitions(lam)
    res = specialize(parts[0], parts[0], z, pd, mp)
    assert res.terms_evaluated + res.skipped_singular == 2  # lambda^(1)! = 2


def _slots_ref(I, pd, l):
    """Per slot a of level l: (matched slot b, A, later slots, earlier slots)."""
    colors, nxt = I.colors(), I.union(l + 1)
    out = []
    for s in I.union(l):
        mu, after = colors[s - 1], colors[s:]
        A = pd.value(mu, l + 1) - (after.count(mu) - after.count(l + 1))
        out.append((nxt.index(s), A, [b for b, s2 in enumerate(nxt) if s2 > s],
                    [b for b, s2 in enumerate(nxt) if s2 < s]))
    return out


def _term_ref(I, t, z, pd, mp, modified=False, memo=None):
    """One term U_I of w_tilde (with ``modified``, of modified_w) from the
    formula in that function's docstring, on scalar brackets; ``memo`` shares
    bracket values between terms."""
    memo = {} if memo is None else memo

    def br(x):
        if x not in memo:
            memo[x] = jacobi_bracket(x, mp)
        return memo[x]

    lq = 2 * math.log(mp.q)
    vs = [[cmath.log(x) / lq for x in lvl] for lvl in (*t.levels, z.z)]
    total = 1.0 + 0.0j
    for l in range(1, I.N):
        v, w = vs[l - 1], vs[l]
        for a, (b, A, later, earlier) in enumerate(_slots_ref(I, pd, l)):
            if modified:
                total *= br(w[b] - v[a] + A) / br(A)
                total *= math.prod(br(w[bp] - v[a]) for bp in later)
                total *= math.prod(br(w[bp] - v[a] + 1) for bp in earlier)
                for ap in range(a + 1, len(v)):
                    total /= br(v[a] - v[ap]) * br(v[ap] - v[a] - 1)
            else:
                total *= br(w[b] - v[a] + A) * br(1) / (br(w[b] - v[a] + 1) * br(A))
                for bp in later:
                    total *= br(w[bp] - v[a]) / br(w[bp] - v[a] + 1)
                for ap in range(a + 1, len(v)):
                    total *= br(v[a] - v[ap] - 1) / br(v[a] - v[ap])
    return total


def _brute_force_terms(I, t, z, pd, mp, modified=False):
    """The reference term at every product of block permutations of t; the
    terms share one bracket memo, since they permute the same values."""
    lam = I.shape()
    blocks = [permutations(range(lam.prefix(l))) for l in range(1, lam.N)]
    memo: dict = {}
    return [_term_ref(I, t.permuted(perms), z, pd, mp, modified, memo)
            for perms in product(*blocks)]


def _brute_force_sum(I, t, z, pd, mp, modified=False):
    """Plain sum of the reference terms."""
    return sum(_brute_force_terms(I, t, z, pd, mp, modified), 0.0 + 0.0j)


def test_enumerator_equals_brute_force_sum(mp, rng):
    pruned = 0
    for N, lam in _wf_cases():
        z = random_points(rng, lam.n, mp.q)
        pd = random_pdyn(rng, N)
        t = random_t(rng, lam)
        parts = enumerate_partitions(lam)
        for I in parts:
            res = w_tilde(I, t, z, pd, mp)
            ref = _brute_force_sum(I, t, z, pd, mp)
            assert abs(res.value - ref) <= 1e-12 * max(1.0, abs(ref)), (lam, I)
            assert res.terms_pruned == 0
            for at in parts:
                res = specialize(I, at, z, pd, mp)
                terms = _brute_force_terms(I, TVariables.specialization(at, z), z, pd, mp)
                ref = sum(terms, 0.0 + 0.0j)
                assert abs(res.value - ref) <= 1e-12 * max(1.0, abs(ref)), (lam, I, at)
                assert res.skipped_singular == 0
                # At generic z a term is exactly 0 only through an exactly-zero
                # factor, and exactly those terms are pruned.
                assert res.terms_pruned == sum(x == 0 for x in terms), (lam, I, at)
                pruned += res.terms_pruned if at != I else 0
    assert pruned > 0


def test_modified_sum_equals_brute_force_sum(mp, rng):
    for N, lam in _wf_cases():
        z = random_points(rng, lam.n, mp.q)
        pd = random_pdyn(rng, N)
        t = random_t(rng, lam)
        for I in enumerate_partitions(lam):
            ref = _brute_force_sum(I, t, z, pd, mp, modified=True)
            val = modified_w(I, t, z, pd, mp, route="sym")
            assert abs(val - ref) <= 1e-12 * max(1.0, abs(ref)), (lam, I)


def test_modified_specializations_prune_exactly_the_zero_terms(mp, rng):
    # At t = z_at the modified terms with an exactly-zero factor are pruned as
    # the plain ones are, and the pruned sum keeps the value of all terms.
    for N, lam in _wf_cases(3):
        z = random_points(rng, lam.n, mp.q)
        pd = random_pdyn(rng, N)
        parts = enumerate_partitions(lam)
        for I, at in product(parts, parts):
            t = TVariables.specialization(at, z)
            (value,), (pruned,), _ = weightfn._sym_sums([(t, z, pd, (I,), None, None)], mp,
                                                         modified=True)[0]
            terms = _brute_force_terms(I, t, z, pd, mp, modified=True)
            ref = sum(terms, 0.0 + 0.0j)
            assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref)), (lam, I, at)
            assert pruned == sum(x == 0 for x in terms), (lam, I, at)


def _as_points(items):
    """Stack points of (label, point (t, z, Pdyn), site permutation) items:
    each run of items at one point object is a point, with perms None where
    none of its items has one."""
    runs = []
    for I, point, perm in items:
        if not runs or runs[-1][0] is not point:
            runs.append((point, [], []))
        runs[-1][1].append(I)
        runs[-1][2].append(perm)
    return [(*point, tuple(labels), tuple(perms) if any(perms) else None, None)
            for point, labels, perms in runs]


def _item_outcomes(items, mp, modified=False):
    """``weightfn._outcomes`` of the items' points, item by item: each item's
    WeightFunctionEval, up to the first point that raises, whose error ends
    the list."""
    points, out = _as_points(items), []
    for outcome in weightfn._outcomes(points, mp, modified):
        if isinstance(outcome, EllqgError):
            return out + [outcome]
        out += weightfn._evaluations(outcome)
    return out


def _item_sums(items, mp):
    """Each item's WeightFunctionEval (``_item_outcomes``), or the first error raised."""
    return settle(_item_outcomes(items, mp))


def _outcome(f):
    """``f()``, or the type and text of the library error it raises."""
    try:
        return f()
    except EllqgError as exc:
        return type(exc), str(exc)


def _bits(outcome):
    """An outcome with each value as the bits of its parts, so == is bitwise."""
    if isinstance(outcome, tuple):  # an error
        return outcome
    return [(w.value.real.hex(), w.value.imag.hex(), w.terms_evaluated, w.terms_pruned)
            for w in outcome]


def _assert_batch_is_single_calls(call, items):
    """``call(items)`` equals ``call([item])`` item by item, bit for bit, or
    raises the error of the first item that raises alone; returns whether
    one did."""
    singles = [_bits(_outcome(lambda: call([item]))) for item in items]
    errors = [s for s in singles if isinstance(s, tuple)]
    want = errors[0] if errors else [w for single in singles for w in single]
    assert _bits(_outcome(lambda: call(items))) == want, items
    return bool(errors)


def _resonant_points(rng, n, q):
    """Generic points, then z_n = q^(+-2) z_1."""
    z = random_points(rng, n, q)
    yield z
    for sign in ((1, -1) if n > 1 else ()):
        zs = list(z.z)
        zs[-1] = q ** (2 * sign) * zs[0]
        yield EvaluationPoints(tuple(zs), q)


def test_batch_equals_single_label_calls(mp, rng):
    # Stacks over several points: every label at every specialization point,
    # under two sets of dynamical parameters; then every label, alone and
    # through the first and last swap of sites, at a random t and at a
    # specialization t, at generic and at resonant z.
    raised = 0
    for N, lam in _wf_cases():
        pds = random_pdyn(rng, N), random_pdyn(rng, N)
        parts = enumerate_partitions(lam)
        perms = [None] + [_swap(lam.n, i) for i in sorted({1, lam.n - 1}) if 0 < i < lam.n]
        for z in _resonant_points(rng, lam.n, mp.q):
            items = [(I, at, pds[m % 2]) for m, at in enumerate(parts) for I in parts]
            raised += _assert_batch_is_single_calls(lambda b: specialize_all(b, z, mp), items)
            points = [(random_t(rng, lam), z, pds[0]),
                      (TVariables.specialization(parts[-1], z), z, pds[1])]
            items = [(I, point, perm) for point in points for I in parts for perm in perms]
            raised += _assert_batch_is_single_calls(lambda b: _item_sums(b, mp), items)
    assert raised > 0  # the resonant points reach the first-error rule


# ------------------------------------------------- live top-level orders --

def _live_cases():
    """Every shape of n <= 4, then lambda = (2, 2, 1)."""
    return list(_wf_cases()) + [(3, Composition((2, 2, 1)))]


def _hex(x):
    return x.real.hex(), x.imag.hex()


@pytest.fixture(params=[0, None], ids=["every_stack_live", "default_threshold"])
def live_entries(request, monkeypatch):
    """Specialization stacks at N >= 3 gather their live orders from 0 entries
    (every one), or from ``_LIVE_ENTRIES``; no plan of the other setting is kept."""
    if request.param is not None:
        monkeypatch.setattr(weightfn, "_LIVE_ENTRIES", request.param)
    weightfn._plan.cache_clear()
    yield weightfn._LIVE_ENTRIES
    weightfn._plan.cache_clear()


def test_specializations_equal_the_whole_gather_bit_for_bit(mp, rng, live_entries):
    # Every label at every fixed point, at generic z: the live top-level
    # orders give the value of w_tilde at t = z_at, whose stack gathers every
    # order, signed zeros included, and the same pruned term count.
    for N, lam in _live_cases():
        parts = enumerate_partitions(lam)
        z, pd = random_points(rng, lam.n, mp.q), random_pdyn(rng, N)
        items = [(I, at, pd) for at in parts for I in parts]
        want = [w_tilde(I, TVariables.specialization(at, z), z, pd, mp) for I, at, _ in items]
        got = specialize_all(items, z, mp)
        assert [(_hex(w.value), w.terms_pruned) for w in got] == \
            [(_hex(w.value), w.terms_pruned) for w in want], lam
        rows = specialize_points([(at, pd, parts) for at in parts], z, mp)
        assert [_hex(x) for row in rows for x in row] == [_hex(w.value) for w in want], lam
        plan = weightfn._stack(weightfn._specializations([(parts[0], pd, parts)], z), mp, False).plan
        entries = len(parts) * plan.gathers[-1].rows[:, 0].size  # of a whole-gather index
        # N = 2 sums every top-level order
        assert (plan.top is None) == (N > 2 and entries >= live_entries), lam


def test_dead_orders_are_the_exact_zeros_of_the_whole_gather(mp, rng):
    # At generic z every top-level order that _dead marks has an exactly-zero
    # product in the whole gather, and every exactly-zero product is marked.
    for N, lam in _live_cases():
        parts = enumerate_partitions(lam)
        z, pd = random_points(rng, lam.n, mp.q), random_pdyn(rng, N)
        for at in parts:
            st = weightfn._stack([(TVariables.specialization(at, z), z, pd, parts, None, None)],
                                 mp, False)
            plan, g, level = st.plan, st.plan.gathers[-1], st.plan.levels[-1]
            zero = weightfn._factor(g.cross, np.take(st.values.ravel(), plan.top)) == 0
            dead = weightfn._dead(level.Y, level.X)[weightfn._label(at)[1][-1], plan.kinds[-1]]
            assert zero.tolist() == dead.tolist(), (lam, at)


def test_live_orders_keep_the_error_path(mp, rng, monkeypatch, live_entries):
    # At generic and resonant z (z_n = q^(+-2) z_1) of the N = 3 shapes,
    # every label at every fixed point: the values or the first error of
    # w_tilde at t = z_at, label by label.
    raised = 0
    for N, lam in _live_cases():
        if N < 3:
            continue
        parts, pd = enumerate_partitions(lam), random_pdyn(rng, N)
        for z in _resonant_points(rng, lam.n, mp.q):
            singles = [_outcome(lambda: w_tilde(I, TVariables.specialization(at, z), z, pd, mp).value)
                       for at in parts for I in parts]
            errors = [s for s in singles if isinstance(s, tuple)]
            got = _outcome(lambda: specialize_points([(at, pd, parts) for at in parts], z, mp))
            if errors:
                assert got == errors[0], lam
            else:
                assert [_hex(x) for row in got for x in row] == [_hex(x) for x in singles], lam
            raised += bool(errors)
    assert raised > 0
    # A resonant point of lambda = (2, 1): z_2 = q^2 z_1, z_3 = 0.8 e^(-i).
    q = mp.q
    z1 = 0.6 * cmath.exp(0.3j)
    z = EvaluationPoints((z1, q ** 2 * z1, 0.8 * cmath.exp(-1j)), q)
    pd = DynamicalParams((1.2 + 0.3j,))
    labels = enumerate_partitions(Composition((2, 1)))
    assert _outcome(lambda: gt_vectors(labels, z, pd, mp)) == \
        (PoleError, "[v^2_2 - v^1_1 + 1] vanished") == _outcome(lambda: gt_vector(labels[0], z, pd, mp))
    # One non-finite table entry, read by item k in dead orders only: the
    # stack gathers every order, so 0 * inf ends in the error of the whole
    # gather instead of a finite value.
    lam = Composition((2, 2, 1))
    parts, pd = enumerate_partitions(lam), random_pdyn(rng, 3)
    points = weightfn._specializations([(parts[3], pd, parts)], random_points(rng, lam.n, q))
    plan = weightfn._stack(points, mp, False).plan
    level = plan.levels[-1]
    dead = weightfn._dead(level.Y, level.X)[points[0][5], plan.kinds[-1]]
    for k in range(len(parts)):
        read = plan.tops[:, plan.kinds[-1, k]]
        only = np.setdiff1d(read[:, dead[k]], read[:, ~dead[k]])
        if only.size and (~dead[k]).any():
            break
    else:
        raise AssertionError("no item reads an entry in dead orders only")
    stack = weightfn._stack

    def poisoned(points, mp, modified):
        st = stack(points, mp, modified)
        st.values[only[0], k] = math.inf
        return st

    values, _, _ = weightfn._sym_sums(points, mp)[0]
    assert np.isfinite(values).all()
    monkeypatch.setattr(weightfn, "_stack", poisoned)
    whole = _outcome(lambda: weightfn._sym_sums([p[:5] + (None,) for p in points], mp))
    assert whole == (FloatRangeError, "weight-function sum overflows")
    assert _outcome(lambda: weightfn._sym_sums(points, mp)) == whole


def _outcome_bits(outcomes):
    """``_item_outcomes`` with each value as the bits of its parts and its
    term counts, and each error as its type and text."""
    return [(type(o), str(o)) if isinstance(o, EllqgError)
            else (o.value.real.hex(), o.value.imag.hex(), o.terms_evaluated, o.terms_pruned)
            for o in outcomes]


def _cold_and_warm(items_at, mp, modified):
    """The outcomes of the stacks of ``items_at(1)`` with an empty plan cache,
    then with the plans ``items_at(0)``, of the same structure, left."""
    weightfn._plan.cache_clear()
    cold = _outcome_bits(_item_outcomes(items_at(1), mp, modified))
    weightfn._plan.cache_clear()
    _item_outcomes(items_at(0), mp, modified)
    hits = weightfn._plan.cache_info().hits
    warm = _outcome_bits(_item_outcomes(items_at(1), mp, modified))
    assert weightfn._plan.cache_info().hits > hits
    return cold, warm


def test_plans_built_at_other_points_give_fresh_outcomes(mp, rng):
    # Every shape, labels over two points and site swaps, at generic and
    # resonant z, with random P and with P = 0 (a vanishing [A]), plain and
    # modified: the stacks give bit for bit the same values and errors with
    # plans built at other points as with new ones.
    errors = set()
    for N, lam in _wf_cases():
        parts = enumerate_partitions(lam)
        perms = [None] + [_swap(lam.n, i) for i in sorted({1, lam.n - 1}) if 0 < i < lam.n]
        for z in _resonant_points(rng, lam.n, mp.q):
            for pd in (random_pdyn(rng, N), DynamicalParams((0.0,) * (N - 1))):
                ts = [random_t(rng, lam), random_t(rng, lam)]
                ats = [(TVariables.specialization(at, z), z, pd) for at in parts]
                for modified in (False, True):
                    cold, warm = _cold_and_warm(
                        lambda m: [(I, point, perm) for point in [(ts[m], z, pd)] + ats
                                   for I in parts for perm in perms], mp, modified)
                    assert cold == warm, (lam, modified)
                    errors |= {o[1] for o in cold if len(o) == 2}
                    cold, warm = _cold_and_warm(
                        lambda m: [(parts[-1], (ts[m], z, pd), perms[-1])], mp, modified)
                    assert cold == warm, (lam, modified)
                    errors |= {o[1] for o in cold if len(o) == 2}
    # Near q = 1 the modified sum of this label leaves the float range.
    # Near q = 1 the modified sum of this label at this point (as in
    # test_modified_w_beyond_float_range_raises) leaves the float range.
    rng1 = np.random.default_rng(1)
    mp99 = ModularParams(q=0.99, r=3.1, max_terms=4096)
    I = PartitionIndex.from_colors((2, 1, 2, 1), 2)
    z, pd, t = random_points(rng1, 4, mp99.q), random_pdyn(rng1, 2), random_t(rng1, I.shape())
    ts = [random_t(rng1, I.shape()), t]
    cold, warm = _cold_and_warm(lambda m: [(I, (ts[m], z, pd), None)], mp99, True)
    assert cold == warm and cold[0][0] is FloatRangeError, cold
    assert {"[(P+h) - C] vanished at level 1, slot 1", "[v^2_1 - v^1_1 + 1] vanished",
            "[v^1_2 - v^1_1 - 1] vanished"} <= errors


def test_stacks_of_other_layouts_or_permutations_get_their_own_plans(mp, rng):
    # The same labels over one point, over two points, and through a site
    # swap: each stack has its own plan and gives each item's own value; a
    # stack of the same structure at other points reuses its plan.
    lam = Composition((1, 1, 2))
    parts, z, pd = enumerate_partitions(lam)[:2], random_points(rng, lam.n, mp.q), random_pdyn(rng, 3)
    p1, p2, p3 = ((random_t(rng, lam), z, pd) for _ in range(3))
    swap = _swap(lam.n, 2)
    stacks = [[(parts[0], p1, None), (parts[1], p1, None)],
              [(parts[0], p1, None), (parts[1], p2, None)],
              [(parts[0], p1, swap), (parts[1], p1, swap)],
              [(parts[0], p1, None), (parts[1], p1, swap)]]
    weightfn._plan.cache_clear()
    plans = [weightfn._stack(_as_points(items), mp, False).plan for items in stacks]
    assert len({id(plan) for plan in plans}) == len(stacks)
    assert weightfn._stack(_as_points([(parts[0], p2, None), (parts[1], p3, None)]),
                           mp, False).plan is plans[1]
    for items in stacks:
        want = [w_tilde(I, t, z.swapped(2) if perm else z, pd, mp) for I, (t, _, _), perm in items]
        assert _item_sums(items, mp) == want
    for plan in plans:
        arrays = [plan.args, plan.rank, plan.kinds, plan.top]
        arrays += [a for g in plan.gathers for a in (g.rows, g.cols)]
        assert not any(a.flags.writeable for a in arrays)


def test_recycled_point_ids_give_fresh_values(mp, rng):
    # Points made and dropped in a loop come back at the ids of earlier ones,
    # in stacks of another structure; every value is that of an empty cache.
    lam = Composition((2, 1))
    parts, z, pd = enumerate_partitions(lam), random_points(rng, lam.n, mp.q), random_pdyn(rng, 2)
    ids = []
    for k in range(40):
        points = [(random_t(rng, lam), z, pd) for _ in range(1 + k % 2)]
        items = [(I, points[m % len(points)], None) for m, I in enumerate(parts)]
        ids += [id(point) for point in points]
        got = _outcome_bits(_item_outcomes(items, mp))
        weightfn._plan.cache_clear()
        assert _outcome_bits(_item_outcomes(items, mp)) == got
        del points, items
    assert len(set(ids)) < len(ids)


def _first_kernel_call(monkeypatch, call):
    """The arguments of the first bracket call that ``call()`` makes."""
    kernel, calls = ellfn.jacobi_brackets, []
    monkeypatch.setattr(ellfn, "jacobi_brackets",
                        lambda u, mp: calls.append(u) or kernel(u, mp))
    _outcome(call)
    monkeypatch.setattr(ellfn, "jacobi_brackets", kernel)
    return calls[0]


def test_failed_shared_call_raises_the_first_labels_error(mp, rng, monkeypatch):
    # The kernel fails on one argument that label 5 brings; at a resonant
    # point earlier labels may fail first, on their own.
    lam = Composition((1, 1, 2))
    parts = enumerate_partitions(lam)
    pd = random_pdyn(rng, 3)
    kernel = ellfn.jacobi_brackets
    for z in _resonant_points(rng, lam.n, mp.q):
        for at in parts:
            items = [(I, at, pd) for I in parts]
            call = lambda b: specialize_all(b, z, mp)
            bad = np.setdiff1d(_first_kernel_call(monkeypatch, lambda: call(items[5:6])),
                               _first_kernel_call(monkeypatch, lambda: call(items[:5])))[0]

            def failing(u, mp):
                if np.isin(bad, u):
                    raise FloatRangeError(f"[{bad:.6g}] overflows")
                return kernel(u, mp)

            monkeypatch.setattr(ellfn, "jacobi_brackets", failing)
            assert _assert_batch_is_single_calls(call, items)
            monkeypatch.setattr(ellfn, "jacobi_brackets", kernel)


def _fixed_resonant_point(n, sign=1):
    """q=0.5, r=3.1, P=1.2+0.3i (N=2) and z_2 = q^(+-2) z_1, cut to n points."""
    q = 0.5
    z1 = 0.6 * cmath.exp(0.3j)
    z = (z1, q ** (2 * sign) * z1, 0.8 * cmath.exp(-1j))[:n]
    return (ModularParams(q=q, r=3.1), EvaluationPoints(z, q),
            DynamicalParams((1.2 + 0.3j,)))


def test_resonant_denominator_is_not_pruned_away():
    # z_2 = q^2 z_1 makes [v' - v + 1] vanish in a term whose other factor is
    # an exact [0]; that term must raise, not be cut as 0.
    mp, z, pd = _fixed_resonant_point(3)
    with pytest.raises(PoleError, match=r"\[v\^2_1 - v\^1_1 \+ 1\] vanished"):
        specialize(PartitionIndex.from_colors((1, 1, 2), 2),
                   PartitionIndex.from_colors((2, 1, 1), 2), z, pd, mp)
    # At N = 3 the exact [0] sits in the level-2 factor and the vanishing
    # denominator in a level-1 factor below it: the term raises instead of
    # being cut as 0.
    pd3 = DynamicalParams((1.2 + 0.3j, 0.9 - 0.2j))
    with pytest.raises(PoleError):
        specialize(PartitionIndex.from_colors((3, 2, 1), 3),
                   PartitionIndex.from_colors((2, 1, 3), 3), z, pd3, mp)


@pytest.mark.parametrize("sizes", [(1, 1), (2, 1), (1, 2)])
def test_resonant_triangularity_raises_instead_of_a_wrong_value(sizes):
    # The limit in z of every entry is 0 here; no nonzero entry may be returned.
    mp, z, pd = _fixed_resonant_point(sum(sizes))
    with pytest.raises(PoleError, match="vanished"):
        triangularity_violations(Composition(sizes), z, pd, mp)


def test_specialization_is_w_tilde_at_z_at(mp, rng):
    # One path: the same value, counts and error as w_tilde at t = z_at.
    raised = 0
    for N, lam in _wf_cases():
        pd = random_pdyn(rng, N)
        parts = enumerate_partitions(lam)
        for z in _resonant_points(rng, lam.n, mp.q):
            for at, I in product(parts, parts):
                got = _outcome(lambda: specialize(I, at, z, pd, mp))
                t = TVariables.specialization(at, z)
                assert got == _outcome(lambda: w_tilde(I, t, z, pd, mp)), (lam, I, at)
                raised += isinstance(got, tuple)
    assert raised > 0


def _z_limit(I, at, z, pd, mp, phi):
    """specialize at z_k (1 + h e^(i(phi + 1.3 k^2))) for h = 1e-6 and 1e-7,
    extrapolated linearly to h = 0."""
    def at_h(h):
        zh = tuple(x * (1 + h * cmath.exp(1j * (phi + 1.3 * k * k)))
                   for k, x in enumerate(z.z, 1))
        return specialize(I, at, EvaluationPoints(zh, mp.q), pd, mp).value
    h1, h2 = 1e-6, 1e-7
    return (h1 * at_h(h2) - h2 * at_h(h1)) / (h1 - h2)


@pytest.mark.parametrize("sign", [1, -1])
def test_resonant_specialization_never_returns_a_wrong_number(sign):
    # N=2, lambda=(2,1) at z_2 = q^(+-2) z_1: a returned value is the limit in z.
    mp, z, pd = _fixed_resonant_point(3, sign)
    parts = enumerate_partitions(Composition((2, 1)))
    returned = 0
    for I, at in product(parts, parts):
        try:
            val = specialize(I, at, z, pd, mp).value
        except PoleError:
            continue
        ref = _z_limit(I, at, z, pd, mp, 0.7)
        assert abs(val - ref) <= 1e-6 * max(1.0, abs(ref)), (I, at, val, ref)
        returned += 1
    assert returned > 0


def test_transition_property(mp, rng):
    for N in (2, 3):
        for n in (2, 3, 4):
            for mu in product(range(1, N + 1), repeat=n):
                lam = shape_of(mu, N)
                z = random_points(rng, n, mp.q)
                pd = random_pdyn(rng, N)
                t = random_t(rng, lam)
                residuals = transition_residuals([(mu, t, z, pd)], mp)[0]
                assert len(residuals) == n - 1
                assert all(res < 1e-9 for res in residuals), (mu, residuals)


def test_transition_equal_colors_is_z_symmetry(mp, rng):
    mu = (1, 1)
    lam = shape_of(mu, 2)
    z = random_points(rng, 2, mp.q)
    pd = random_pdyn(rng, 2)
    t = random_t(rng, lam)
    (res,) = transition_residuals([(mu, t, z, pd)], mp)[0]
    assert res < 1e-10


def test_transition_needs_one_spectral_point_per_color(mp, rng):
    t = random_t(rng, shape_of((1, 2), 2))
    with pytest.raises(ShapeError, match="2 colors need 2 spectral points, got 3"):
        transition_residuals([((1, 2), t, random_points(rng, 3, mp.q), random_pdyn(rng, 2))], mp)


def test_every_stack_needs_one_spectral_point_per_site(mp, rng):
    # Three points for a two-site label: each call raises instead of returning
    # a value read from only some of the points.
    I = PartitionIndex.from_colors((1, 2), 2)
    t = random_t(rng, I.shape())
    z, pd = random_points(rng, 3, mp.q), random_pdyn(rng, 2)
    calls = [lambda: w_tilde(I, t, z, pd, mp),
             lambda: modified_w(I, t, z, pd, mp, route="ratio"),
             lambda: modified_w(I, t, z, pd, mp, route="sym"),
             lambda: specialize(I, I, z, pd, mp)]
    for call in calls:
        with pytest.raises(ShapeError, match="need 2 spectral points, got 3"):
            call()


def _swap(n, i):
    """s_i as a stack item's site permutation: site s reads z[perm[s]] (0-based)."""
    perm = list(range(n))
    perm[i - 1], perm[i] = i, i - 1
    return tuple(perm)


def test_swapped_stack_items_are_bitwise_w_tilde(mp, rng):
    # An item that reads z through s_i is w_tilde at z.swapped(i) bit for bit,
    # alone and in one stack with the identity items and the other swaps.
    for N in (2, 3):
        for n in (2, 3, 4):
            for lam in all_compositions(n, N):
                z = random_points(rng, n, mp.q)
                pd = random_pdyn(rng, N)
                t = random_t(rng, lam)
                items = [(I, i) for i in range(n) for I in enumerate_partitions(lam)]
                perms = [_swap(n, i) if i else None for _, i in items]
                point = (t, z, pd)
                stack = [(I, point, perm) for (I, _), perm in zip(items, perms)]
                alone = [_item_sums([item], mp)[0] for item in stack]
                for (I, i), w in zip(items, alone):
                    assert w == w_tilde(I, t, z.swapped(i) if i else z, pd, mp), (I, i)
                assert _item_sums(stack, mp) == alone, lam


def _sequential_residuals(mu, t, z, pd, mp):
    """The transition identity position by position: w_tilde of the LHS, then
    R-bar, then w_tilde of each RHS label with a nonzero R entry."""
    out = []
    for i in range(1, len(mu)):
        sw = list(mu)
        sw[i - 1], sw[i] = sw[i], sw[i - 1]
        lhs = w_tilde(PartitionIndex.from_colors(sw, pd.N), t, z.swapped(i), pd, mp).value
        R = rbar(z.z[i - 1] / z.z[i], pd.shifted_by_colors(mu[i - 1:], sign=-1), mp,
                 u=z.u[i - 1] - z.u[i])
        out_pair, rhs = tuple(mu[i - 1:i + 1]), 0.0 + 0.0j
        for cin in [out_pair] if mu[i - 1] == mu[i] else [out_pair, out_pair[::-1]]:
            coeff = R.entry(cin, out_pair)
            if coeff != 0:
                mu_p = mu[:i - 1] + cin + mu[i + 1:]
                rhs += coeff * w_tilde(PartitionIndex.from_colors(mu_p, pd.N), t, z, pd, mp).value
        out.append(abs(lhs - rhs))
    return out


def _resonant_case(mu, j, k):
    """q=0.5, r=3.1, P=1.2+0.3i; t^(1)_1 = q^2 z_j, and z_{k+1} = q^2 z_k
    unless k is None (so [u+1] of R-bar(z_k/z_{k+1}) vanishes)."""
    q = 0.5
    z = [0.6 * cmath.exp(0.3j), 0.8 * cmath.exp(-1j), 0.45 * cmath.exp(2.1j)][:len(mu)]
    if k is not None:
        z[k] = q ** 2 * z[k - 1]
    rest = tuple(0.7 * cmath.exp(0.5j * a) for a in range(1, mu.count(1)))
    return (TVariables(((q ** 2 * z[j - 1],) + rest,)), EvaluationPoints(tuple(z), q),
            DynamicalParams((1.2 + 0.3j,)), ModularParams(q=q, r=3.1))


@pytest.mark.parametrize("mu, j, k, error", [
    # the LHS and the RHS label (1,2) at z raise different PoleErrors; the LHS comes first
    ((1, 2), 1, None, (PoleError, "[v^2_2 - v^1_1 + 1] vanished")),
    # R-bar at position 1 raises before two RHS labels raise PoleErrors
    ((1, 2, 1), 2, 1, (SingularityError, "[u+1] ~ 0 at z=(4+0j)")),
    # three labels raise different PoleErrors; the first in evaluation order wins
    ((2, 1, 2), 2, None, (PoleError, "[v^2_1 - v^1_1 + 1] vanished")),
])
def test_transition_raises_the_first_error_of_the_sequential_order(mu, j, k, error):
    t, z, pd, mp = _resonant_case(mu, j, k)
    assert _outcome(lambda: transition_residuals([(mu, t, z, pd)], mp)[0]) == error
    assert _outcome(lambda: _sequential_residuals(mu, t, z, pd, mp)) == error


def test_transition_outcomes_match_the_sequential_order_at_resonant_points():
    for mu in [(1, 2), (2, 1), (1, 2, 1), (2, 1, 2), (1, 1, 2), (2, 1, 1)]:
        for j, k in product(range(1, len(mu) + 1), [None, *range(1, len(mu))]):
            t, z, pd, mp = _resonant_case(mu, j, k)
            want = _outcome(lambda: _sequential_residuals(mu, t, z, pd, mp))
            assert _outcome(lambda: transition_residuals([(mu, t, z, pd)], mp)[0]) == want, (mu, j, k)


def test_multi_case_transition_equals_per_case_calls(mp, rng):
    # One call over many cases equals one call per case, value for value, or
    # raises the error the first raising case raises alone: an earlier case's
    # item error before a later case's R-bar error, and the reverse.
    generic = [(mu, random_t(rng, shape_of(mu, N)), random_points(rng, len(mu), mp.q),
                random_pdyn(rng, N))
               for N, mu in [(2, (1, 2)), (2, (2, 1, 1)), (3, (3, 1, 2)), (3, (1, 2, 3, 2))]]
    resonant = [(mu, *_resonant_case(mu, j, k)[:3])
                for mu in [(1, 2), (2, 1, 2), (1, 1, 2)]
                for j, k in product(range(1, len(mu) + 1), [None, *range(1, len(mu))])]
    item_raises = ((1, 2), *_resonant_case((1, 2), 1, None)[:3])
    rbar_raises = ((1, 2, 1), *_resonant_case((1, 2, 1), 2, 1)[:3])
    bad_shape = ((1, 2), generic[0][1], generic[1][2], generic[0][3])
    batches = [generic, resonant, generic + resonant + generic,
               generic + [item_raises, rbar_raises] + generic,
               generic + [rbar_raises, item_raises], generic + [bad_shape, item_raises],
               [item_raises, bad_shape], generic[:1] * 2,
               # a stack that starts first and raises last: the other shape's error wins
               generic[1:2] + [item_raises] + resonant[-6:]]
    for cases in batches:
        singles = [_outcome(lambda: transition_residuals([case], mp)) for case in cases]
        errors = [single for single in singles if isinstance(single, tuple)]
        want = errors[0] if errors else [res for single in singles for res in single]
        assert _outcome(lambda: transition_residuals(cases, mp)) == want
    assert _outcome(lambda: transition_residuals([item_raises, rbar_raises], mp))[0] is PoleError
    assert (_outcome(lambda: transition_residuals([rbar_raises, item_raises], mp))[0]
            is SingularityError)


def test_modified_routes_agree(mp, rng):
    cases = [(2, (1, 2)), (2, (1, 1, 2)), (2, (2, 1, 2, 1)), (3, (1, 2, 3)),
             (3, (2, 1, 3, 1))]
    for _ in range(4):
        for N, mu in cases:
            lam = shape_of(mu, N)
            I = PartitionIndex.from_colors(mu, N)
            z = random_points(rng, lam.n, mp.q)
            pd = random_pdyn(rng, N)
            t = random_t(rng, lam)
            a = modified_w(I, t, z, pd, mp, route="ratio")
            b = modified_w(I, t, z, pd, mp, route="sym")
            assert abs(a - b) < 1e-10 * max(1.0, abs(a))


def test_modified_trivial_shape(mp, rng):
    I = PartitionIndex.from_colors((2, 2), 2)
    z = random_points(rng, 2, mp.q)
    pd = random_pdyn(rng, 2)
    t = TVariables(((),))
    assert abs(modified_w(I, t, z, pd, mp) - 1.0) < 1e-12


def test_e_lambda_includes_diagonal_one_brackets(mp, rng):
    # Singleton blocks: E reduces to [1] per level with a t variable.
    lam = Composition((1, 1, 1))  # prefixes 1, 2 -> levels of size 1 and 2
    z = random_points(rng, 3, mp.q)
    t = random_t(rng, lam)
    br1 = jacobi_bracket(1.0, mp)
    lam_single = Composition((1, 1))
    z2 = random_points(rng, 2, mp.q)
    t2 = random_t(rng, lam_single)
    assert abs(e_lambda(lam_single, t2, z2, mp) - br1) < 1e-12 * abs(br1)
    val = e_lambda(lam, t, z, mp)
    # level 1 contributes [1]; level 2 contributes [1]^2 times the two
    # off-diagonal brackets
    lq = 2 * math.log(mp.q)
    v = [cmath.log(x) / lq for x in t.levels[1]]
    expected = br1 ** 3 * jacobi_bracket(v[1] - v[0] + 1, mp) \
        * jacobi_bracket(v[0] - v[1] + 1, mp)
    assert abs(val - expected) < 1e-12 * abs(expected)


@pytest.mark.parametrize("sign, pair", [(1, "[v^1_1 - v^1_2 + 1]"), (-1, "[v^1_2 - v^1_1 + 1]")])
def test_a_vanishing_e_bracket_is_a_pole_on_both_routes(sign, pair):
    # t_2 = q^(+-2) t_1 puts [0] into E: the ratio route divides by it, the
    # sym route by a modified-term denominator, the same pair as [-x] = -[x].
    # Neither returns a number.
    q = 0.5
    mp, pd = ModularParams(q=q, r=3.1), DynamicalParams((1.2 + 0.3j,))
    I = PartitionIndex.from_colors((1, 2, 1), 2)
    z = EvaluationPoints((0.5, 0.3j, 0.4 + 0.2j), q)
    t1 = 0.55 + 0.1j
    t = TVariables(((t1, q ** (2 * sign) * t1),))
    with pytest.raises(PoleError, match=f"^{re.escape(pair)} vanished$"):
        e_lambda(I.shape(), t, z, mp)
    with pytest.raises(PoleError, match=f"^{re.escape(pair)} vanished$"):
        modified_w(I, t, z, pd, mp, route="ratio")
    x, y = re.findall(r"v\^1_\d", pair)
    with pytest.raises(PoleError, match=f"^{re.escape(f'[{y} - {x} - 1]')} vanished$"):
        modified_w(I, t, z, pd, mp, route="sym")


def test_stable_envelope_restriction_raises_at_a_vanishing_e_bracket():
    # z_4 = q^(-2) z_3 puts [0] into the E factor at t = z_J^(-1) of J =
    # (2,2,1,1), while no term of the specialized weight function divides by
    # it; off the resonance the restriction is finite.
    q = 0.5
    mp, pd = ModularParams(q=q, r=3.1), DynamicalParams((1.2 + 0.3j,))
    I, J = (PartitionIndex.from_colors(c, 2) for c in ((1, 1, 2, 2), (2, 2, 1, 1)))
    z3 = 0.3 * cmath.exp(-1j)
    points = [EvaluationPoints((0.1 * cmath.exp(0.3j), 0.2 * cmath.exp(2.1j), z3, f * z3), q)
              for f in (q ** -2, q ** -2 * (1 + 1e-9))]
    with pytest.raises(PoleError, match=r"^\[v\^1_2 - v\^1_1 \+ 1\] vanished$"):
        stable_envelope_restriction(I, J, points[0], pd, mp)
    assert cmath.isfinite(stable_envelope_restriction(I, J, points[1], pd, mp))


# gt_vector at _fixed_resonant_point, per (sizes, sign, colors of I): the text
# of the PoleError it raises, or its coefficients (to 1e-13).
_RESONANT_GT = {
    ((1, 1), 1, (1, 2)): "[v^2_2 - v^1_1 + 1] vanished",
    ((1, 1), 1, (2, 1)): {(2, 1): (0.9999999999999999+0j)},
    ((1, 1), -1, (1, 2)): {
        (1, 2): (0.9452106426634034+0j),
        (2, 1): (0.7678615928493232-0.2660418481424157j),
    },
    ((1, 1), -1, (2, 1)): "[v^2_1 - v^1_1 + 1] vanished",
    ((2, 1), 1, (1, 1, 2)): "[v^2_2 - v^1_1 + 1] vanished",
    ((2, 1), 1, (1, 2, 1)): "[v^2_2 - v^1_1 + 1] vanished",
    ((2, 1), 1, (2, 1, 1)): {(2, 1, 1): (0.9999999999999996+3.260072046674286e-16j)},
    ((2, 1), -1, (1, 1, 2)): "[v^2_1 - v^1_2 + 1] vanished",
    ((2, 1), -1, (1, 2, 1)): {
        (1, 2, 1): (0.9452106426634033-2.2336275574035224e-17j),
        (2, 1, 1): (0.7678615928493231-0.26604184814241577j),
    },
    ((2, 1), -1, (2, 1, 1)): "[v^2_1 - v^1_1 + 1] vanished",
    ((1, 2), 1, (1, 2, 2)): "[v^2_2 - v^1_1 + 1] vanished",
    ((1, 2), 1, (2, 1, 2)): {
        (2, 1, 2): (0.7540127725629258-0.7602900046809439j),
        (2, 2, 1): (-0.0038032842379966876-2.0579239141219343j),
    },
    ((1, 2), 1, (2, 2, 1)): {(2, 2, 1): (1+0j)},
    ((1, 2), -1, (1, 2, 2)): {
        (1, 2, 2): (0.3771181836480729-0.6255317449313998j),
        (2, 1, 2): (0.13029576915059152-0.6143085936384867j),
        (2, 2, 1): (-0.05673080009351115-1.2712949828628248j),
    },
    ((1, 2), -1, (2, 1, 2)): "[v^2_1 - v^1_1 + 1] vanished",
    ((1, 2), -1, (2, 2, 1)): {(2, 2, 1): (1+0j)},
}


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("sizes", [(1, 1), (2, 1), (1, 2)])
def test_resonant_gt_vector_outcomes_are_pinned(sizes, sign):
    # The labels of a point run as one stack; which label raises, and its
    # message, must be those of the label evaluated alone.
    mp, z, pd = _fixed_resonant_point(sum(sizes), sign)
    for I in enumerate_partitions(Composition(sizes)):
        want = _RESONANT_GT[sizes, sign, I.colors()]
        got = _outcome(lambda: gt_vector(I, z, pd, mp))
        if isinstance(want, str):
            assert got == (PoleError, want), I
            continue
        assert set(got.terms) == set(want), I
        for colors, coeff in want.items():
            assert abs(got.terms[colors] - coeff) <= 1e-13 * abs(coeff), (I, colors)


def _ordered_points(rng, n, q):
    mods = np.sort(rng.uniform(0.35, 0.95, n))
    while np.min(np.diff(mods)) < 1e-3 if n > 1 else False:
        mods = np.sort(rng.uniform(0.35, 0.95, n))
    phases = rng.uniform(0, 2 * np.pi, n)
    return EvaluationPoints(tuple(m * cmath.exp(1j * ph)
                                  for m, ph in zip(mods, phases)), q)


def test_stab_single_site_is_one(mp, rng):
    lam = Composition((1, 0))
    z = _ordered_points(rng, 1, mp.q)
    pd = random_pdyn(rng, 2)
    I = enumerate_partitions(lam)[0]
    assert abs(stable_envelope_restriction(I, I, z, pd, mp) - 1.0) < 1e-10


def test_stab_diagonal_nonzero_and_triangular(mp, rng):
    for N, sizes in [(2, (1, 1)), (2, (2, 1)), (3, (1, 1, 1))]:
        lam = Composition(sizes)
        z = _ordered_points(rng, lam.n, mp.q)
        pd = random_pdyn(rng, N)
        parts = enumerate_partitions(lam)
        rev = {I: PartitionIndex.from_colors(tuple(reversed(I.colors())), N)
               for I in parts}
        for I in parts:
            diag = stable_envelope_restriction(I, I, z, pd, mp)
            assert abs(diag) > 1e-10
            for J in parts:
                val = stable_envelope_restriction(I, J, z, pd, mp)
                if not leq(rev[J], rev[I]):
                    assert abs(val) < 1e-9


def test_stab_requires_ordered_chamber(mp, rng):
    lam = Composition((1, 1))
    pd = random_pdyn(rng, 2)
    z = EvaluationPoints((0.9, 0.4), mp.q)  # decreasing moduli
    I = enumerate_partitions(lam)[0]
    with pytest.raises(ParameterError):
        stable_envelope_restriction(I, I, z, pd, mp)


def test_stab_matrix_probe_shape(mp, rng):
    lam = Composition((1, 1))
    z = _ordered_points(rng, 2, mp.q)
    pd = random_pdyn(rng, 2)
    mat = stab_matrix(lam, z, pd, mp)
    assert len(mat) == 2 and all(len(row) == 2 for row in mat.values())


def test_stab_matrix_equals_pairwise_restrictions(mp, rng):
    # Each column is one batch over the labels; it equals the single pairs bitwise.
    for N, sizes in [(2, (2, 1)), (3, (1, 1, 1)), (3, (2, 1, 1))]:
        lam = Composition(sizes)
        z = _ordered_points(rng, lam.n, mp.q)
        pd = random_pdyn(rng, N)
        mat = stab_matrix(lam, z, pd, mp)
        for I, J in product(enumerate_partitions(lam), repeat=2):
            assert mat[I][J] == stable_envelope_restriction(I, J, z, pd, mp), (I, J)


@pytest.mark.parametrize("seed", [0, 5, 7, 11])
def test_trig_degeneration_contracts(seed):
    # Distances to the small-p proxy limit contract geometrically per decade
    # pair; the rate is the 1/r falloff of the bracket prefactor q^(u^2/r).
    q = 0.5
    mu = (1, 2, 1)
    I = PartitionIndex.from_colors(mu, 2)
    lam = shape_of(mu, 2)
    vals = []
    for p_target in (1e-4, 1e-6, 1e-8, 1e-12):
        r = math.log(p_target) / (2 * math.log(q))
        mpl = ModularParams(q=q, r=r)
        rng_local = np.random.default_rng(seed)
        z = random_points(rng_local, 3, q)
        pd = random_pdyn(rng_local, 2)
        t = random_t(rng_local, lam)
        vals.append(w_tilde(I, t, z, pd, mpl).value)
    d = [abs(v - vals[-1]) for v in vals[:-1]]
    assert d[1] < 0.7 * d[0]
    assert d[2] < 0.7 * d[1]


def test_points_built_at_another_q_are_refused():
    # u = log z / (2 log q) depends on q: points made at q = 0.6 and read by a
    # q = 0.5 pack would give another number, with no error.
    mp, pd = ModularParams(q=0.5, r=3.1), DynamicalParams((1.2 + 0.3j,))
    I, t = PartitionIndex.from_colors((1, 2), 2), TVariables(((0.6 + 0.2j,),))
    zs = (0.55 + 0.1j, 0.2 - 0.75j)
    calls = [lambda z: w_tilde(I, t, z, pd, mp),
             lambda z: modified_w(I, t, z, pd, mp, route="sym"),
             lambda z: specialize(I, I, z, pd, mp),
             lambda z: transition_residuals([(I.colors(), t, z, pd)], mp),
             lambda z: stable_envelope_restriction(I, I, z, pd, mp),
             lambda z: diagonal_value(I, z, mp),
             lambda z: e_lambda(I.shape(), t, z, mp),
             lambda z: gt_vector(I, z, pd, mp),
             lambda z: e_on_gt(1, I, z, mp),
             lambda z: f_on_gt(1, I, z, mp),
             lambda z: phi_on_gt(1, 0.3 + 0.1j, I, z, mp),
             lambda z: IntegrandSpec(I=I, z=z, Pdyn=pd, mp=mp, trig=True)]
    for call in calls:
        call(EvaluationPoints(zs, 0.5))
        with pytest.raises(ParameterError, match=r"built at q=0\.6 used with q=0\.5"):
            call(EvaluationPoints(zs, 0.6))


def test_w_tilde_names_its_first_overflowing_bracket():
    # q = 0.999: several brackets of this label leave the float range; the
    # error names the first in the label's own order of brackets, not the
    # first of the stack's distinct ones.
    mp = ModularParams(q=0.999, r=3.1, max_terms=40000)
    z = EvaluationPoints(tuple(m * cmath.exp(1j * ph) for m, ph in
                               ((0.5, -2.5), (0.7, -2.5), (0.9, -2.5))), mp.q)
    t = TVariables(((0.6 * cmath.exp(-2.5j),), (0.8 * cmath.exp(-2.5j), 0.5 * cmath.exp(0.5j))))
    I = PartitionIndex.from_colors((1, 2, 3), 3)
    with pytest.raises(FloatRangeError, match=re.escape("[91.1152-1499.25j] overflows")):
        w_tilde(I, t, z, DynamicalParams((1.2 + 0.3j, 0.9 - 0.2j)), mp)


def test_w_tilde_pole_error_names_bracket(mp, rng):
    I = PartitionIndex.from_colors((1, 2), 2)
    z = random_points(rng, 2, mp.q)
    pd = random_pdyn(rng, 2)
    # t at q^2 z_1 makes the matched-site denominator [v - u_1 + 1] vanish
    t = TVariables(((mp.q ** 2 * z.z[0],),))
    with pytest.raises(PoleError):
        w_tilde(I, t, z, pd, mp)


def _pole_text(f) -> str:
    with pytest.raises(PoleError) as exc:
        f()
    return str(exc.value)


def test_w_tilde_names_the_highest_vanishing_level_of_a_term():
    # lambda=(1,0,1), one term: v^2 = u_1 + 1 and v^1 = v^2 + 1 make both
    # [v^2_1 - v^1_1 + 1] and [v^3_1 - v^2_1 + 1] vanish.
    mp = ModularParams(q=0.5, r=3.1)
    z = EvaluationPoints((0.6 * cmath.exp(0.3j), 0.8 * cmath.exp(-1j)), mp.q)
    pd = DynamicalParams((1.2 + 0.3j, 0.9 - 0.2j))
    I = PartitionIndex.from_colors((1, 3), 3)
    t2 = mp.q ** 2 * z.z[0]
    t = TVariables(((mp.q ** 2 * t2,), (t2,)))
    assert _pole_text(lambda: w_tilde(I, t, z, pd, mp)) == "[v^3_1 - v^2_1 + 1] vanished"


def test_same_level_pole_texts(mp, rng):
    # Equal level-1 variables make the same-level denominator vanish.
    I = PartitionIndex.from_colors((1, 1, 2), 2)
    z, pd = random_points(rng, 3, mp.q), random_pdyn(rng, 2)
    t = TVariables(((0.7 * cmath.exp(0.4j),) * 2,))
    assert _pole_text(lambda: w_tilde(I, t, z, pd, mp)) == "[v^1_1 - v^1_2] vanished"
    assert (_pole_text(lambda: modified_w(I, t, z, pd, mp, route="sym"))
            == "[v^1_1 - v^1_2] vanished")


_BRACKET_TEXT = re.compile(r"^\[v\^(\d+)_(\d+) - v\^(\d+)_(\d+)( [+-] 1)?\] vanished$")


def _named_bracket(text, t, z, mp) -> float:
    """|[x]| of the bracket [v^l_a - v^l'_b + c] that a PoleError text names,
    at t and z: v^l_a is variable a of level l, level N being z."""
    m = _BRACKET_TEXT.match(text)
    assert m, text
    lq = 2 * math.log(mp.q)
    vs = [[cmath.log(x) / lq for x in lvl] for lvl in t.levels] + [list(z.u)]
    l1, a1, l2, a2 = map(int, m.groups()[:4])
    c = {None: 0.0, " + 1": 1.0, " - 1": -1.0}[m[5]]
    return abs(jacobi_bracket(vs[l1 - 1][a1 - 1] - vs[l2 - 1][a2 - 1] + c, mp))


def test_every_resonant_specialization_names_a_vanishing_bracket():
    # z_j = q^(+-2) z_i for every ordered pair, every shape up to n = 3 and
    # every (I, at): each PoleError names a bracket below the pole bound at
    # t = z_at.
    q = 0.5
    mp = ModularParams(q=q, r=3.1)
    bound = 1e-12 * abs(jacobi_bracket(1.0, mp))
    base = (0.6 * cmath.exp(0.3j), 0.8 * cmath.exp(-1j), 0.7 * cmath.exp(2.1j))
    pds = {2: DynamicalParams((1.2 + 0.3j,)), 3: DynamicalParams((1.2 + 0.3j, 0.9 - 0.2j))}
    raised = 0
    for N, lam in _wf_cases(3):
        parts = enumerate_partitions(lam)
        for (i, j), sign in product(permutations(range(lam.n), 2), (1, -1)):
            z = list(base[:lam.n])
            z[j] = q ** (2 * sign) * z[i]
            z = EvaluationPoints(tuple(z), q)
            for I, at in product(parts, repeat=2):
                try:
                    specialize(I, at, z, pds[N], mp)
                except PoleError as exc:
                    raised += 1
                    t = TVariables.specialization(at, z)
                    assert _named_bracket(str(exc), t, z, mp) < bound, (I, at, i, j, sign, str(exc))
    assert raised == 830


def test_pole_texts_off_specializations_name_a_vanishing_bracket():
    # t^(1)_2 = q^2 z_1 in a term of lambda=(2,1) whose slots are permuted;
    # and t^(1)_2 = q^(+-2) t^(1)_1, where every modified sum meets a pole.
    q = 0.5
    mp, pd = ModularParams(q=q, r=3.1), DynamicalParams((1.2 + 0.3j,))
    bound = 1e-12 * abs(jacobi_bracket(1.0, mp))
    z = EvaluationPoints((0.6 * cmath.exp(0.3j), 0.8 * cmath.exp(-1j), 0.7 * cmath.exp(2.1j)), q)
    t = TVariables(((0.55 * cmath.exp(0.9j), q ** 2 * z.z[0]),))
    text = _pole_text(lambda: w_tilde(PartitionIndex.from_colors((1, 1, 2), 2), t, z, pd, mp))
    assert text == "[v^2_1 - v^1_2 + 1] vanished"
    assert _named_bracket(text, t, z, mp) < bound
    rng = np.random.default_rng(7)
    for N, lam in _wf_cases(4):
        if lam.prefix(1) < 2:
            continue
        pd = random_pdyn(rng, N)
        z = random_points(rng, lam.n, q)
        for I, sign in product(enumerate_partitions(lam), (1, -1)):
            levels = [list(lvl) for lvl in random_t(rng, lam).levels]
            levels[0][1] = q ** (2 * sign) * levels[0][0]
            t = TVariables(tuple(tuple(lvl) for lvl in levels))
            text = _pole_text(lambda: modified_w(I, t, z, pd, mp, route="sym"))
            assert _named_bracket(text, t, z, mp) < bound, (I, sign, text)


# ------------------------------------------------ guards on the batched checks --

def _check_rng(cfg, check_id):
    """The rng ``run_suite`` gives the check ``check_id``."""
    index = [cid for cid, _ in suites.checks_for("all")].index(check_id)
    return np.random.default_rng(cfg.seed + 7919 * index)


def _one_point_residuals(cfg):
    """The residuals of the five batched checks, folded from one-point public
    calls in the order their loops made them before the calls were batched."""
    mp = replace(cfg.mp, k=0.0)
    out = {}
    rng, worst = _check_rng(cfg, "wf.triangularity"), 0.0
    for N, lam in _wf_cases():
        z, pd = suites._rand_points(rng, lam.n, mp.q), suites._rand_pdyn(rng, N)
        parts, inner = enumerate_partitions(lam), 0.0
        for at in parts:
            for I in parts:
                if not leq(at, I):
                    inner = np.maximum(inner, abs(specialize(I, at, z, pd, mp).value))
        worst = np.maximum(worst, float(inner))
    out["wf.triangularity"] = worst
    rng, worst = _check_rng(cfg, "wf.diagonal"), 0.0
    for N, lam in _wf_cases():
        z, pd = suites._rand_points(rng, lam.n, mp.q), suites._rand_pdyn(rng, N)
        for I in enumerate_partitions(lam):
            ref = diagonal_value(I, z, mp)
            val = specialize(I, I, z, pd, mp).value
            worst = np.maximum(worst, abs(val - ref) / max(1e-30, abs(ref)))
    out["wf.diagonal"] = worst
    rng, worst = _check_rng(cfg, "wf.transition"), 0.0
    for N in (2, 3):
        for n in range(2, 5):
            for mu in product(range(1, N + 1), repeat=n):
                z, pd = suites._rand_points(rng, n, mp.q), suites._rand_pdyn(rng, N)
                t = suites._rand_t(rng, shape_of(mu, N))
                for res in transition_residuals([(mu, t, z, pd)], mp)[0]:
                    worst = np.maximum(worst, res)
    out["wf.transition"] = worst
    rng, worst = _check_rng(cfg, "gt.basis_triangular"), 0.0
    for N, lam in _wf_cases(max_n=4):
        z, pd = suites._rand_points(rng, lam.n, mp.q), suites._rand_pdyn(rng, N)
        for I in enumerate_partitions(lam):
            state = gt_vector(I, z, pd, mp)
            for J in enumerate_partitions(lam):
                if not leq(I, J):
                    worst = np.maximum(worst, abs(state.coefficient(J.colors())))
    out["gt.basis_triangular"] = worst
    rng, worst = _check_rng(cfg, "gt.basis_diagonal"), 0.0
    for N, lam in _wf_cases(max_n=3):
        z, pd = suites._rand_points(rng, lam.n, mp.q), suites._rand_pdyn(rng, N)
        zinv = EvaluationPoints(tuple(1.0 / x for x in z.z), mp.q)
        for I in enumerate_partitions(lam):
            state = gt_vector(I, z, pd, mp)
            ref = diagonal_value(I, zinv, mp)
            worst = np.maximum(worst, abs(state.coefficient(I.colors()) - ref)
                               / max(1e-30, abs(ref)))
    out["gt.basis_diagonal"] = worst
    return out


@pytest.mark.parametrize("seed", [0, 3])
def test_batched_checks_equal_their_one_point_loops(seed):
    cfg = build_config({"seed": seed})
    checks = dict(suites.checks_for("all"))
    for check_id, want in _one_point_residuals(cfg).items():
        got, _ = checks[check_id](cfg, _check_rng(cfg, check_id))
        assert float(got).hex() == float(want).hex(), check_id


def test_stab_row_reads_a_diagonal_on_its_own_scale(monkeypatch):
    # At q = 0.99 the lambda = (1,1,1) diagonals of seed 1 are about 1e-79,
    # far below 1e-12 |[1]| but normal numbers: the row passes at seeds 0-4.
    # A diagonal restriction that is exactly 0 still fails it.
    for seed in range(5):
        cfg = build_config({"q": 0.99, "max_terms": 4096, "seed": seed})
        residual, tol = suites.check_wf_stab(cfg, _check_rng(cfg, "wf.stable_envelope"))
        assert residual <= tol, seed
    cfg, stab = build_config({}), weightfn.stab_matrix

    def zeroed(lam, *args):
        mat = stab(lam, *args)
        I = next(iter(mat))
        mat[I][I] = 0.0
        return mat

    monkeypatch.setattr(weightfn, "stab_matrix", zeroed)
    residual, tol = suites.check_wf_stab(cfg, _check_rng(cfg, "wf.stable_envelope"))
    assert residual > tol


@pytest.mark.parametrize("modified", [False, True])
def test_layouts_hold_no_exact_one_but_the_same_level_diagonal(modified):
    for _, lam in _wf_cases():
        levels, _, ratio, _ = weightfn._layout(lam, modified)
        ones = np.flatnonzero((ratio == -1).all(axis=0))
        assert ones.tolist() == [level.same + x * level.X + x
                                 for level in levels for x in range(level.X)], lam


@pytest.mark.parametrize("sizes, plain, modified", [((2, 2), 28, 36), ((2, 2, 1), 144, 172),
                                                    ((3, 2, 2), 304, 354)])
def test_table_entries_per_item(sizes, plain, modified):
    assert [weightfn._layout(Composition(sizes), m)[2].shape[1]
            for m in (False, True)] == [plain, modified]


def test_stacks_hold_whole_points_within_the_cap(monkeypatch, tmp_path):
    stacks, stack = [], weightfn._stack

    def recording(points, mp, modified):
        entries = weightfn._layout(weightfn._label(points[0][3][0])[0], modified)[2].shape[1]
        stacks.append((sum(len(labels) for _, _, _, labels, _, _ in points), len(points), entries))
        return stack(points, mp, modified)

    monkeypatch.setattr(weightfn, "_stack", recording)
    assert run_suite("all", build_config({}))["all_pass"]
    assert 0 < len(stacks) <= 300
    assert max(points for _, points, _ in stacks) > 1
    assert all(items * entries <= weightfn._STACK_ENTRIES or points == 1
               for items, points, entries in stacks)
    # gt basis at (2,2,1): each label is a point of 30 items, over the cap alone
    stacks.clear()
    config = tmp_path / "gt.json"
    config.write_text(json.dumps({"N": 3, "n": 5, "lambda": [2, 2, 1], "P": [1.2, [0.9, -0.2]],
                                  "z": [[0.5, 0.1], [0.2, -0.6], [-0.7, 0.1], [0.3, 0.8],
                                        [-0.6, -0.6]]}))
    assert main(["gt", "basis", "--config", str(config), "--out", str(tmp_path / "o.json")]) == 0
    assert stacks == [(30, 1, stacks[0][2])] * 30
    assert 30 * stacks[0][2] > weightfn._STACK_ENTRIES


def test_factor_padded_in_front_with_exact_ones_is_bitwise_unpadded():
    # Random factors with real rows of +-0.0 imaginary part and exact zeros:
    # (1+0j) rows in front of the cross-level ones leave every product's bits.
    rng = np.random.default_rng(5)
    for cross, same in [(1, 0), (3, 3), (4, 1)]:
        f = rng.normal(size=(cross + same, 6, 8)) + 1j * rng.normal(size=(cross + same, 6, 8))
        real = rng.random(f.shape) < 0.3
        f[real] = f[real].real + np.where(rng.random(real.sum()) < 0.5, 0.0, -0.0) * 1j
        f[rng.random(f.shape) < 0.1] = 0.0
        f[0, 0] = complex(2.0, -0.0)  # a product that a (1+0j) behind it would change
        want = weightfn._factor(cross, f)
        for pad in (1, 2, 3):
            got = weightfn._factor(cross + pad, np.concatenate((np.ones((pad,) + f.shape[1:]), f)))
            assert [(x.real.hex(), x.imag.hex()) for x in got.ravel()] == \
                [(x.real.hex(), x.imag.hex()) for x in want.ravel()], (cross, pad)
    behind = complex(2.0, -0.0) * np.complex128(1.0)
    assert math.copysign(1.0, behind.imag) == 1.0  # why the padding goes in front


def _own_gather(I, l, level, modified, top):
    """Label I's level-l factors read from its sites, each (rows, cols) into
    the tables, and how many are cross-level: per slot a (site s) its
    matched, later and (modified) earlier entries, then the same-level ones."""
    X, Y = level.X, level.Y
    rows = np.array(list(permutations(range(X))), np.intp)
    cols = np.arange(Y)[None] if top else np.array(list(permutations(range(Y))), np.intp)
    nxt, cross, same = I.union(l + 1), [], []
    for a, s in enumerate(I.union(l)):
        cross.append((level.matched + a * X * Y + rows[:, a] * Y, cols[:, nxt.index(s)]))
        cross += [(level.later + rows[:, a] * Y, cols[:, j]) for j, s2 in enumerate(nxt) if s2 > s]
        cross += [(level.earlier + rows[:, a] * Y, cols[:, j])
                  for j, s2 in enumerate(nxt) if modified and s2 < s]
        same += [(level.same + rows[:, a] * X + rows[:, ap], 0 * cols[:, 0]) for ap in range(a + 1, X)]
    return cross + same, len(cross)


def test_every_plan_holds_one_gather_per_level(mp, rng, monkeypatch):
    # Every label of a shape in one stack: each level has one gather table
    # over every slot pattern of the shape, each label's column is its own
    # gather padded in front with the exact-1 entry, and _sums gathers each
    # level once.  A label alone keeps no padding.
    calls, factor = [], weightfn._factor
    monkeypatch.setattr(weightfn, "_factor", lambda *a: calls.append(1) or factor(*a))
    for N, lam in _wf_cases():
        parts = enumerate_partitions(lam)
        z, pd, t = random_points(rng, lam.n, mp.q), random_pdyn(rng, N), random_t(rng, lam)
        for modified in (False, True):
            points = [(t, z, pd, parts, None, None)]
            plan = weightfn._stack(points, mp, modified).plan
            assert len(plan.gathers) == len(plan.levels) == plan.kinds.shape[0], lam
            for l, (level, g, kinds) in enumerate(zip(plan.levels, plan.gathers, plan.kinds), 1):
                top = level is plan.levels[-1]
                assert g.rows.shape[1:] == (math.comb(level.Y, level.X), math.factorial(level.X))
                assert g.cols.shape[:2] == g.rows.shape[:2] and kinds.shape == (len(parts),)
                crosses = []
                for I, kind in zip(parts, kinds):
                    own, cross = _own_gather(I, l, level, modified, top)
                    pad = g.cross - cross
                    assert (g.rows[:pad, kind] == level.same).all() and not g.cols[:pad, kind].any()
                    assert [(r.tolist(), c.tolist()) for r, c in zip(g.rows[pad:, kind], g.cols[pad:, kind])] \
                        == [(r.tolist(), np.broadcast_to(c, g.cols.shape[2:]).tolist()) for r, c in own]
                    crosses.append(cross)
                    alone = weightfn._stack([(t, z, pd, (I,), None, None)], mp, modified).plan
                    assert alone.gathers[l - 1].cross == cross, (I, l)
                assert g.cross == max(crosses)
            assert plan.top.shape == (len(plan.gathers[-1].rows), len(parts),
                                      math.factorial(plan.levels[-1].X))
            calls.clear()
            weightfn._sums(points, mp, modified)
            assert len(calls) == len(plan.levels), (lam, modified)


def test_gathers_cut_into_passes_give_the_same_outcomes(mp, rng, monkeypatch):
    # With 64 entries per pass every level of these stacks takes several
    # passes; values, term counts and errors stay those of one pass.
    lam = Composition((2, 2, 1))
    parts, pd = enumerate_partitions(lam), random_pdyn(rng, 3)
    z = random_points(rng, lam.n, mp.q)
    cases = [(mu, random_t(rng, shape_of(mu, N)), random_points(rng, len(mu), mp.q),
              random_pdyn(rng, N)) for N, mu in [(2, (2, 1, 1)), (3, (3, 1, 2)), (3, (1, 2, 3, 2))]]
    stacks = [[(I, point, None) for point in [(random_t(rng, lam), zr, p)]
               + [(TVariables.specialization(at, zr), zr, p) for at in parts[::7]] for I in parts]
              for zr in _resonant_points(rng, lam.n, mp.q) for p in (pd, DynamicalParams((0.0, 0.0)))]

    def outcomes():
        vectors = [sorted((k, v.real.hex(), v.imag.hex()) for k, v in state.terms.items())
                   for state in gt_vectors(parts, z, pd, mp)]
        residuals = [[x.hex() for x in row] for row in transition_residuals(cases, mp)]
        return vectors, residuals, [_outcome_bits(_item_outcomes(items, mp, modified))
                                    for items in stacks for modified in (False, True)]

    want, passes = outcomes(), []
    chunked = weightfn._passes
    monkeypatch.setattr(weightfn, "_BATCH_ENTRIES", 64)
    monkeypatch.setattr(weightfn, "_passes", lambda *a: passes.append(chunked(*a)) or passes[-1])
    assert outcomes() == want
    assert max(map(len, passes)) > 10
    assert any(isinstance(o[-1][0], type) for o in want[2])  # a resonant stack raises


# ------------------------------------------- batch paths against single calls --

def _recorded(monkeypatch, call, seen):
    """``call()``, with each item it evaluates through ``weightfn._outcomes``
    appended to ``seen`` as (label, t, z as the label reads it, Pdyn, value,
    pruned)."""
    outcomes = weightfn._outcomes

    def recording(points, mp, modified=False):
        out = outcomes(points, mp, modified)
        for (t, z, pd, labels, perms, _), outcome in zip(points, out):
            if isinstance(outcome, EllqgError):
                break
            for k, I in enumerate(labels):
                perm = perms[k] if perms else None
                zk = EvaluationPoints(tuple(z.z[s] for s in perm), z.q) if perm else z
                seen.append((I, t, zk, pd, outcome[0][k], outcome[1][k]))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(weightfn, "_outcomes", recording)
        return call()


def _hex(x):
    return complex(x).real.hex(), complex(x).imag.hex()


def test_batch_paths_equal_item_by_item_calls_bitwise(mp, rng, monkeypatch):
    # gt_vectors, triangularity_violations, stab_matrix and transition_residuals
    # at two shapes each: every item they evaluate has the value bits and the
    # pruned count of w_tilde alone (specialize is w_tilde at t = z_at), and
    # every number they return is the one item-by-item calls give.
    seen: list = []
    mp0 = replace(mp, k=0.0)
    pd2, pd3 = random_pdyn(rng, 2), random_pdyn(rng, 3)
    z = random_points(rng, 3, mp.q)
    labels = enumerate_partitions(Composition((2, 1))) + enumerate_partitions(Composition((1, 2)))
    zinv = EvaluationPoints(tuple(1.0 / x for x in z.z), z.q)
    for I, state in zip(labels, _recorded(monkeypatch, lambda: gt_vectors(labels, z, pd2, mp0),
                                          seen)):
        shifted = pd2.shifted_by_colors(I.colors(), sign=1)
        want = {J.colors(): specialize(J, I, zinv, shifted, mp0).value
                for J in enumerate_partitions(I.shape())}
        assert {k: _hex(v) for k, v in state.terms.items()} == \
            {k: _hex(v) for k, v in want.items() if v != 0}, I
    for sizes in [(2, 1, 1), (1, 2, 1)]:
        lam = Composition(sizes)
        z4, parts = random_points(rng, 4, mp.q), enumerate_partitions(lam)
        want = 0.0
        for at, I in product(parts, parts):
            if not leq(at, I):
                want = np.maximum(want, abs(specialize(I, at, z4, pd3, mp).value))
        got = _recorded(monkeypatch, lambda: triangularity_violations(lam, z4, pd3, mp), seen)
        assert got.hex() == float(want).hex(), sizes
    for sizes, pd in [((2, 1), pd2), ((1, 1, 1), pd3)]:
        lam = Composition(sizes)
        zo, parts = _ordered_points(rng, lam.n, mp.q), enumerate_partitions(lam)
        mat = _recorded(monkeypatch, lambda: stab_matrix(lam, zo, pd, mp), seen)
        for I, J in product(parts, parts):
            assert _hex(mat[I][J]) == _hex(stable_envelope_restriction(I, J, zo, pd, mp)), (I, J)
    cases = [(mu, random_t(rng, shape_of(mu, 2)), random_points(rng, len(mu), mp.q), pd2)
             for mu in [(1, 2, 1), (2, 1, 1), (1, 2, 2), (2, 1, 2)]]
    for case, residuals in zip(cases, _recorded(monkeypatch,
                                                lambda: transition_residuals(cases, mp), seen)):
        assert [x.hex() for x in residuals] == \
            [x.hex() for x in _sequential_residuals(*case, mp)], case[0]
    assert len(seen) > 200
    for I, t, zk, pd, value, pruned in seen:
        alone = w_tilde(I, t, zk, pd, mp)
        assert (_hex(value), pruned) == (_hex(alone.value), alone.terms_pruned), (I, zk)
    assert any(pruned for *_, pruned in seen)


def _one_by_one_triangularity(lam, z, pd, mp):
    parts = enumerate_partitions(lam)
    return max((abs(specialize(I, at, z, pd, mp).value) for at in parts for I in parts
                if not leq(at, I)), default=0.0)


def test_batch_paths_raise_the_first_item_by_item_pole_error():
    # A resonant z in the middle of the list: labels after a label that
    # returns, and a resonant case between generic ones.
    mp, z, pd = _fixed_resonant_point(3)
    labels = [PartitionIndex.from_colors(c, 2) for c in ((2, 1, 1), (1, 2, 1), (1, 1, 2))]
    want = _outcome(lambda: [gt_vector(I, z, pd, mp) for I in labels])
    assert want == (PoleError, "[v^2_2 - v^1_1 + 1] vanished")
    assert _outcome(lambda: gt_vectors(labels, z, pd, mp)) == want
    for sizes in [(2, 1), (1, 2)]:
        lam = Composition(sizes)
        want = _outcome(lambda: _one_by_one_triangularity(lam, z, pd, mp))
        assert want[0] is PoleError
        assert _outcome(lambda: triangularity_violations(lam, z, pd, mp)) == want
    rng = np.random.default_rng(3)
    generic = [(mu, random_t(rng, shape_of(mu, 2)), random_points(rng, len(mu), mp.q), pd)
               for mu in [(2, 1, 1), (1, 2)]]
    cases = generic[:1] + [((1, 2), *_resonant_case((1, 2), 1, None)[:3])] + generic[1:]
    want = _outcome(lambda: [_sequential_residuals(*case, mp) for case in cases])
    assert want[0] is PoleError
    assert _outcome(lambda: transition_residuals(cases, mp)) == want


def _failing_kernel(monkeypatch, bad):
    """Make the bracket kernel raise FloatRangeError on any call that holds
    ``bad``, its text naming the size of the call."""
    kernel = ellfn.jacobi_brackets

    def failing(u, mp):
        if np.isin(bad, u):
            raise FloatRangeError(f"[{bad:.6g}] overflows in a call of {u.size}")
        return kernel(u, mp)

    monkeypatch.setattr(ellfn, "jacobi_brackets", failing)


def test_batch_paths_raise_the_first_item_by_item_error_of_a_failed_shared_call(mp, rng,
                                                                               monkeypatch):
    # The kernel fails on one argument that the middle label (case) brings: the
    # stack that holds it raises in its shared bracket call and is replayed,
    # and the error is the one of the item-by-item loop, down to the size of
    # the bracket call that names it.
    mp0 = replace(mp, k=0.0)
    pd = random_pdyn(rng, 2)
    z = random_points(rng, 3, mp.q)
    labels = enumerate_partitions(Composition((2, 1))) + enumerate_partitions(Composition((1, 2)))
    k = len(labels) // 2
    firsts = [_first_kernel_call(monkeypatch, lambda: gt_vector(I, z, pd, mp0)) for I in labels]
    bad = np.setdiff1d(firsts[k], np.concatenate(firsts[:k]))[0]
    _failing_kernel(monkeypatch, bad)
    zinv = EvaluationPoints(tuple(1.0 / x for x in z.z), z.q)
    want = _outcome(lambda: [specialize(J, I, zinv, pd.shifted_by_colors(I.colors()), mp0)
                             for I in labels for J in enumerate_partitions(I.shape())])
    assert want[0] is FloatRangeError
    assert _outcome(lambda: gt_vectors(labels, z, pd, mp0)) == want
    monkeypatch.undo()
    cases = [(mu, random_t(rng, shape_of(mu, 2)), random_points(rng, len(mu), mp.q), pd)
             for mu in [(1, 2, 1), (2, 1, 1), (1, 2), (2, 1, 2), (1, 1, 2)]]
    stacks = [weightfn._transition_items([case], mp)[0] for case in cases]
    firsts = [_first_kernel_call(monkeypatch, lambda: weightfn._sym_sums(points, mp))
              for points in stacks]
    bad = np.setdiff1d(firsts[2], np.concatenate(firsts[:2]))[0]
    _failing_kernel(monkeypatch, bad)
    want = _outcome(lambda: [_sequential_residuals(*case, mp) for case in cases])
    assert want[0] is FloatRangeError
    assert _outcome(lambda: transition_residuals(cases, mp)) == want


def _refusal_args():
    """label (1,2), points and packs of a lambda=(1,1) call at q=0.5, r=3.1."""
    return (PartitionIndex.from_colors((1, 2), 2), EvaluationPoints((0.5, 0.6j), 0.5),
            DynamicalParams((1.2,)), ModularParams(q=0.5, r=3.1))


def _w_at(levels, **kw):
    I, z, pd, mp = _refusal_args()
    return w_tilde(I, TVariables(levels), z, pd, mp, **kw)


# Refusals no other test reaches: (call, error class, text fragment).
REFUSALS = [
    pytest.param(lambda: TVariables(((0.5, 0.0),)), ParameterError,
                 "t variables must be nonzero", id="t = 0"),
    pytest.param(lambda: _w_at(((0.3,), (0.4,))), ShapeError, "need 1 t-levels, got 2",
                 id="t-level count"),
    pytest.param(lambda: _w_at(((0.3, 0.4),)), ShapeError, "level 1 needs 1 entries, got 2",
                 id="t-level size"),
    pytest.param(lambda: specialize(*_refusal_args()[:1], PartitionIndex.from_colors((1, 1), 2),
                                    *_refusal_args()[1:]),
                 ShapeError, "specialization point and label must share a shape",
                 id="specialization shape"),
    pytest.param(lambda: modified_w(_refusal_args()[0], TVariables(((0.3,),)),
                                    *_refusal_args()[1:], route="x"),
                 ParameterError, "unknown route 'x'", id="route x"),
]


@pytest.mark.parametrize("call, error, text", REFUSALS)
def test_refusals(call, error, text):
    with pytest.raises(error, match=re.escape(text)):
        call()
