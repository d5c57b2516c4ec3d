import cmath
import math
from itertools import permutations, product
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import random_pdyn, random_points, random_t, shape_of
from ellqg.ellfn import ModularParams, jacobi_bracket
from ellqg import weightfn
from ellqg.errors import EllqgError, FloatRangeError, ParameterError, PoleError
from ellqg.gtrep import gt_vector
from ellqg.suites import _compositions as all_compositions
from ellqg.suites import _wf_cases
from ellqg.tensorspace import (Composition, DynamicalParams, EvaluationPoints,
                               PartitionIndex, enumerate_partitions, leq)
from ellqg.weightfn import (TVariables, diagonal_value, e_lambda,
                            modified_w, specialize, specialize_labels, stab_matrix,
                            stable_envelope_restriction, transition_check,
                            triangularity_violations, u_mod, u_tilde, w_tilde)


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


def test_u_tilde_all_colors_last_is_one(mp, rng):
    I = PartitionIndex.from_colors((2, 2, 2), 2)
    z = random_points(rng, 3, mp.q)
    t = TVariables(((),))
    pd = random_pdyn(rng, 2)
    assert u_tilde(I, t, z, pd, mp) == 1.0


def test_u_tilde_single_site_oracle(mp, rng):
    I = PartitionIndex.from_colors((1,), 2)
    z = random_points(rng, 1, mp.q)
    pd = random_pdyn(rng, 2)
    tval = 0.7 * cmath.exp(0.9j)
    got = u_tilde(I, TVariables(((tval,),)), z, pd, mp)
    ref = _u_ref_n1_color1(tval, z.z[0], pd.value(1, 2), mp)
    assert abs(got - ref) < 1e-12 * max(1.0, abs(ref))


def test_u_tilde_two_site_oracle(mp, rng):
    I = PartitionIndex.from_colors((1, 2), 2)
    z = random_points(rng, 2, mp.q)
    pd = random_pdyn(rng, 2)
    tval = 0.6 * cmath.exp(-0.4j)
    got = u_tilde(I, TVariables(((tval,),)), z, pd, mp)
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
    assert abs(res.value - u_tilde(I, t, z, pd, mp)) < 1e-14


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
    monkeypatch.setattr("ellqg.weightfn.specialize_labels",
                        lambda labels, *a: [SimpleNamespace(value=complex("nan"))] * len(labels))
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
    """One u_tilde (with ``modified``, u_mod) term from its docstring formula,
    on scalar brackets; ``memo`` shares bracket values between terms."""
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
            ref = _term_ref(I, t, z, pd, mp)
            assert abs(u_tilde(I, t, z, pd, mp) - ref) <= 1e-12 * max(1.0, abs(ref)), (lam, I)
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
            ref = _term_ref(I, t, z, pd, mp, modified=True)
            assert abs(u_mod(I, t, z, pd, mp) - ref) <= 1e-12 * max(1.0, abs(ref)), (lam, I)
            ref = _brute_force_sum(I, t, z, pd, mp, modified=True)
            val = modified_w(I, t, z, pd, mp, route="sym")
            assert abs(val - ref) <= 1e-12 * max(1.0, abs(ref)), (lam, I)


def _outcome(f):
    """``f()``, or the type and text of the library error it raises."""
    try:
        return f()
    except EllqgError as exc:
        return type(exc), str(exc)


def _assert_batch_is_single_calls(parts, at, z, pd, mp):
    """specialize_labels equals one specialize per label, or raises the first
    label's error; returns whether it raised."""
    singles = [_outcome(lambda: specialize(I, at, z, pd, mp)) for I in parts]
    got = _outcome(lambda: specialize_labels(parts, at, z, pd, mp))
    errors = [s for s in singles if isinstance(s, tuple)]
    assert got == (errors[0] if errors else singles), (parts, at)
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
    raised = 0
    for N, lam in _wf_cases():
        pd = random_pdyn(rng, N)
        parts = enumerate_partitions(lam)
        for z in _resonant_points(rng, lam.n, mp.q):
            for at in parts:
                raised += _assert_batch_is_single_calls(parts, at, z, pd, mp)
    assert raised > 0  # the resonant points reach the first-error rule


def _first_kernel_call(monkeypatch, labels, *point):
    """The arguments of the first bracket call of ``specialize_labels(labels, *point)``."""
    kernel, calls = weightfn.jacobi_brackets, []
    monkeypatch.setattr(weightfn, "jacobi_brackets",
                        lambda u, mp, starred=False: calls.append(u) or kernel(u, mp, starred))
    _outcome(lambda: specialize_labels(labels, *point))
    monkeypatch.setattr(weightfn, "jacobi_brackets", kernel)
    return calls[0]


def test_failed_shared_call_raises_the_first_labels_error(mp, rng, monkeypatch):
    # The kernel fails on one argument that label 5 brings; at a resonant
    # point earlier labels may fail first, on their own.
    lam = Composition((1, 1, 2))
    parts = enumerate_partitions(lam)
    pd = random_pdyn(rng, 3)
    kernel = weightfn.jacobi_brackets
    for z in _resonant_points(rng, lam.n, mp.q):
        for at in parts:
            point = (at, z, pd, mp)
            bad = np.setdiff1d(_first_kernel_call(monkeypatch, parts[5:6], *point),
                               _first_kernel_call(monkeypatch, parts[:5], *point))[0]

            def failing(u, mp, starred=False):
                if np.isin(bad, u):
                    raise FloatRangeError(f"[{bad:.6g}] overflows")
                return kernel(u, mp, starred)

            monkeypatch.setattr(weightfn, "jacobi_brackets", failing)
            assert _assert_batch_is_single_calls(parts, *point)
            monkeypatch.setattr(weightfn, "jacobi_brackets", kernel)


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
                for i in range(1, n):
                    assert transition_check(mu, i, t, z, pd, mp) < 1e-9


def test_transition_equal_colors_is_z_symmetry(mp, rng):
    mu = (1, 1)
    lam = shape_of(mu, 2)
    z = random_points(rng, 2, mp.q)
    pd = random_pdyn(rng, 2)
    t = random_t(rng, lam)
    assert transition_check(mu, 1, t, z, pd, mp) < 1e-10


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
    ((2, 1), -1, (1, 1, 2)): "[v^2_1 - v^1_1 + 1] vanished",
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


def test_u_tilde_pole_error_names_bracket(mp, rng):
    I = PartitionIndex.from_colors((1, 2), 2)
    z = random_points(rng, 2, mp.q)
    pd = random_pdyn(rng, 2)
    # t at q^2 z_1 makes the matched-site denominator [v - u_1 + 1] vanish
    t = TVariables(((mp.q ** 2 * z.z[0],),))
    with pytest.raises(PoleError):
        u_tilde(I, t, z, pd, mp)
