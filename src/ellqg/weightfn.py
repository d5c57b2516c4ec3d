"""Elliptic weight functions, their modified form, and stable envelopes.

A weight function is a symmetrized product of theta-bracket ratios indexed
by a partition I.  ``Sym`` is the plain sum over permutations of each
integration-variable block, with no 1/lambda! prefactor; this normalisation
is the one that reproduces the closed-form diagonal value and is asserted by
the tests.

Brackets are always the unstarred [.] built on the nome carried by the
ModularParams argument (so substituting a different nome, as the q-KZ cycle
insertion does, is just a parameter change).

Every symmetrized sum is one depth-first walk, ``_sym_sum``, over the block
permutations from level N-1 (tied to z) down to level 1, one level factor
per step; ``u_tilde``/``u_mod`` are the identity-order term.  Brackets go
through a per-call memo, as their arguments are only the O(n^2) values
v_x - v_y + c, c in {0, +-1, A}.  A u_tilde branch whose partial product is
exactly 0 (as at t = z_J) is cut, unless a denominator value that a cut could
skip (one of levels 1..N-2; the level-(N-1) factor is always evaluated whole)
is below _DEN_TOL: then every term is finished and meets its pole checks.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import combinations, permutations, product

from .ellfn import ModularParams, jacobi_bracket
from .errors import ParameterError, PoleError, ShapeError
from .rmat import rbar
from .tensorspace import (Composition, DynamicalParams, EvaluationPoints,
                          PartitionIndex, enumerate_partitions, eps_pairing, leq)

_DEN_TOL = 1e-12


@dataclass(frozen=True)
class TVariables:
    """Integration variables: level l = 1..N-1 holds lambda^(l) entries.

    Level N is implicit and always equals the spectral points z.
    """

    levels: tuple[tuple[complex, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels",
                           tuple(tuple(complex(x) for x in lvl) for lvl in self.levels))
        for lvl in self.levels:
            if any(x == 0 for x in lvl):
                raise ParameterError("t variables must be nonzero")

    @classmethod
    def specialization(cls, at: PartitionIndex, z: EvaluationPoints) -> "TVariables":
        """t = z_at: t^(l)_a = z_{i^(l)_a} with sites read from ``at``."""
        return cls(tuple(tuple(z.z[site - 1] for site in at.union(l))
                         for l in range(1, at.N)))

    def scaled(self, factor: complex) -> "TVariables":
        return TVariables(tuple(tuple(factor * x for x in lvl) for lvl in self.levels))

    def permuted(self, perms) -> "TVariables":
        return TVariables(tuple(tuple(lvl[i] for i in perm)
                                for lvl, perm in zip(self.levels, perms)))

    def check_shape(self, lam: Composition) -> None:
        if len(self.levels) != lam.N - 1:
            raise ShapeError(f"need {lam.N - 1} t-levels, got {len(self.levels)}")
        for l, lvl in enumerate(self.levels, 1):
            if len(lvl) != lam.prefix(l):
                raise ShapeError(
                    f"level {l} needs {lam.prefix(l)} entries, got {len(lvl)}")


@dataclass(frozen=True)
class WeightFunctionEval:
    """Value plus bookkeeping of the symmetrization that produced it."""

    value: complex
    terms_evaluated: int
    skipped_singular: int = 0
    terms_pruned: int = 0  # of terms_evaluated: cut at an exactly-zero factor


def _vees(t: TVariables, z: EvaluationPoints, mp: ModularParams):
    """Additive coordinates per level; index [l-1] is level l, [N-1] is z-level."""
    lq = 2.0 * math.log(mp.q)
    vs = [tuple(cmath.log(x) / lq for x in lvl) for lvl in t.levels]
    vs.append(z.u)
    return vs


def _c_offset(colors, s: int, mu_s: int, lplus: int) -> int:
    """C_{mu_s, l+1}(s) = #(j > s : mu_j = mu_s) - #(j > s : mu_j = l+1)."""
    return sum(eps_pairing(colors[j], mu_s, lplus) for j in range(s, len(colors)))


class _Brackets(dict):
    """Memo of one call's brackets [x], keyed by the argument x."""

    def __init__(self, mp: ModularParams) -> None:
        self.mp = mp

    def __missing__(self, x):
        self[x] = val = jacobi_bracket(x, self.mp)
        return val


def _level_factors(I: PartitionIndex, t: TVariables, z: EvaluationPoints,
                   Pdyn: DynamicalParams, mp: ModularParams, modified: bool = False):
    """``(factor, dens)`` for the u_tilde (with ``modified``, u_mod) terms of a sum.

    ``factor(l, p, pn)`` is the level-l factor of the term whose level-l and
    level-(l+1) variables are in the orders p and pn (as in TVariables.permuted;
    level N is z).  ``dens()`` yields every u_tilde denominator value that a
    cut branch could skip; [A] divides every term and is checked here.
    """
    lam = I.shape()
    t.check_shape(lam)
    colors = I.colors()
    vs = _vees(t, z, mp)
    br = _Brackets(mp).__getitem__
    slots = []  # per level: (matched slot b, A, [A], later and earlier slots of l+1)
    for l in range(1, lam.N):
        nxt = I.union(l + 1)
        level = []
        for s in I.union(l):
            A = Pdyn.value(colors[s - 1], l + 1) - _c_offset(colors, s, colors[s - 1], l + 1)
            if abs(br(A)) < _DEN_TOL:  # in every term
                raise PoleError(f"[(P+h) - C] vanished at level {l}, slot {len(level)+1}")
            level.append((nxt.index(s), A, br(A), [b for b, s2 in enumerate(nxt) if s2 > s],
                          [b for b, s2 in enumerate(nxt) if s2 < s]))
        slots.append(level)

    def tilde(l, p, pn):
        v_l, v_n = vs[l - 1], vs[l]
        total = 1.0 + 0.0j
        for a, (b, A, den_b, later, _) in enumerate(slots[l - 1]):
            va = v_l[p[a]]
            for bp in (b, *later):
                den = br(v_n[pn[bp]] - va + 1.0)
                if abs(den) < _DEN_TOL:
                    raise PoleError(f"[v^{l+1}_{bp+1} - v^{l}_{a+1} + 1] vanished")
                total *= (br(v_n[pn[bp]] - va + A) * br(1.0) / den_b if bp == b
                          else br(v_n[pn[bp]] - va)) / den
            for ap in range(a + 1, len(p)):
                den = br(va - v_l[p[ap]])
                if abs(den) < _DEN_TOL:
                    raise PoleError(f"[v^{l}_{a+1} - v^{l}_{ap+1}] vanished")
                total *= br(va - v_l[p[ap]] - 1.0) / den
        return total

    def mod(l, p, pn):
        v_l, v_n = vs[l - 1], vs[l]
        total = 1.0 + 0.0j
        for a, (b, A, den_b, later, earlier) in enumerate(slots[l - 1]):
            va = v_l[p[a]]
            total *= (br(v_n[pn[b]] - va + A) / den_b
                      * math.prod(br(v_n[pn[bp]] - va) for bp in later)
                      * math.prod(br(v_n[pn[bp]] - va + 1.0) for bp in earlier))
        for a, b in combinations(range(len(p)), 2):
            den = br(v_l[p[a]] - v_l[p[b]]) * br(v_l[p[b]] - v_l[p[a]] - 1.0)
            if abs(den) < _DEN_TOL:
                raise PoleError(f"level-{l} denominator vanished")
            total /= den
        return total

    def dens():  # levels 1..N-2; the level-(N-1) factor is never cut
        for v_l, v_n in zip(vs, vs[1:-1]):
            yield from (br(x - y) for x, y in permutations(v_l, 2))
            yield from (br(vb - va + 1.0) for va in v_l for vb in v_n)

    return (mod if modified else tilde), dens


def _identity_term(factor, lam: Composition) -> complex:
    """The unpermuted term, prod_l factor(l, id, id)."""
    return math.prod((factor(l, range(lam.prefix(l)), range(lam.prefix(l + 1)))
                      for l in range(1, lam.N)), start=1.0 + 0.0j)


def u_tilde(I: PartitionIndex, t: TVariables, z: EvaluationPoints,
            Pdyn: DynamicalParams, mp: ModularParams) -> complex:
    """Single pre-symmetrization term of the weight function.

    Per level l and slot a (site s = i^(l)_a, color mu_s, matched slot b at
    level l+1 with i^(l+1)_b = s, A = (P+h)_{mu_s,l+1} - C_{mu_s,l+1}(s)):

        [v'_b - v_a + A][1] / ([v'_b - v_a + 1][A])
        * prod_{b' : i^(l+1)_{b'} > s}  [v'_{b'} - v_a] / [v'_{b'} - v_a + 1]
        * prod_{a' > a}                 [v_a - v_{a'} - 1] / [v_a - v_{a'}]
    """
    return _identity_term(_level_factors(I, t, z, Pdyn, mp)[0], I.shape())


def _sym_sum(I: PartitionIndex, t: TVariables, z: EvaluationPoints,
             Pdyn: DynamicalParams, mp: ModularParams, modified: bool = False,
             on_pole=None) -> WeightFunctionEval:
    """Plain sum of the u_tilde (u_mod, not pruned) terms over block permutations.

    A PoleError propagates or, with ``on_pole``, each term of the branch that
    raised it is taken as ``on_pole(perms)`` and counted as skipped.
    """
    factor, dens = _level_factors(I, t, z, Pdyn, mp, modified)
    prune = not modified and all(abs(d) >= _DEN_TOL for d in dens())
    lam = I.shape()
    blocks = [list(permutations(range(lam.prefix(l)))) for l in range(1, lam.N)]
    acc = [0.0 + 0.0j, 0, 0]  # value, skipped, pruned

    def walk(l, partial, chosen):  # chosen: the orders of levels l+1..N-1, then z
        if l == 0:
            acc[0] += partial
            return
        for p in blocks[l - 1]:
            try:
                value = partial * factor(l, p, chosen[0])
            except PoleError:
                if on_pole is None:
                    raise
                for rest in product(*blocks[:l - 1]):
                    acc[0] += on_pole(rest + (p,) + chosen[:-1])
                acc[1] += math.prod(map(len, blocks[:l - 1]))
                continue
            if prune and value == 0:
                acc[2] += math.prod(map(len, blocks[:l - 1]))
            else:
                walk(l - 1, value, (p,) + chosen)

    walk(len(blocks), 1.0 + 0.0j, (range(lam.n),))
    return WeightFunctionEval(acc[0], math.prod(map(len, blocks)) - acc[1],
                              skipped_singular=acc[1], terms_pruned=acc[2])


def w_tilde(I: PartitionIndex, t: TVariables, z: EvaluationPoints,
            Pdyn: DynamicalParams, mp: ModularParams) -> WeightFunctionEval:
    """Weight function: plain sum of u_tilde over block permutations of t.

    Summed by ``_sym_sum``, exactly-zero branches pruned (module docstring);
    a vanishing denominator raises PoleError.
    """
    return _sym_sum(I, t, z, Pdyn, mp)


def specialize(I: PartitionIndex, at: PartitionIndex, z: EvaluationPoints,
               Pdyn: DynamicalParams, mp: ModularParams) -> WeightFunctionEval:
    """w_tilde of label I evaluated at the specialization t = z_at.

    Zero unless at <= I in the partial order.  Exactly-zero branches are pruned
    unless a denominator value a cut could skip is below _DEN_TOL; then
    summands that hit a vanishing denominator are evaluated by the limit rule:
    the specialization point is moved to z_at * (1 + eps) for eps in
    {1e-5, 1e-6} and Richardson extrapolated; a summand that keeps growing
    under refinement is a genuine pole and raises.
    """
    if I.shape() != at.shape():
        raise ShapeError("specialization point and label must share a shape")
    z.require_distinct()
    t = TVariables.specialization(at, z)

    def limit(perms):
        tp = t.permuted(perms)
        eps1, eps2 = 1e-5, 1e-6
        v1 = u_tilde(I, tp.scaled(1.0 + eps1), z, Pdyn, mp)
        v2 = u_tilde(I, tp.scaled(1.0 + eps2), z, Pdyn, mp)
        if abs(v2) > 4.0 * abs(v1) + 1e-9:
            raise PoleError(
                "genuine pole at specialization: summand diverges under refinement")
        return (eps1 * v2 - eps2 * v1) / (eps1 - eps2)

    return _sym_sum(I, t, z, Pdyn, mp, on_pole=limit)


def diagonal_value(I: PartitionIndex, z: EvaluationPoints, mp: ModularParams) -> complex:
    """Closed product form of the diagonal specialization w_tilde_I(z_I):

    prod_{k<l} prod_{a in I_k} prod_{b in I_l, a<b} [u_b - u_a] / [u_b - u_a + 1].
    """
    br = lambda x: jacobi_bracket(x, mp)
    u = z.u
    total = 1.0 + 0.0j
    for k in range(1, I.N + 1):
        for l in range(k + 1, I.N + 1):
            for a in I.parts[k - 1]:
                for b in I.parts[l - 1]:
                    if a < b:
                        total *= br(u[b - 1] - u[a - 1]) / br(u[b - 1] - u[a - 1] + 1.0)
    return total


def transition_check(mu, i: int, t: TVariables, z: EvaluationPoints,
                     Pdyn: DynamicalParams, mp: ModularParams) -> float:
    """|LHS - RHS| of the adjacent-swap transition identity at position i.

    LHS: the weight function labeled by mu with colors i, i+1 swapped,
    evaluated at spectral points with z_i, z_{i+1} swapped.  RHS: the
    R-bar(z_i/z_{i+1}) weighted sum, with Pi shifted by
    -sum_{j>=i} of the color weights, of the unswapped-argument functions.
    The R entry used maps in-pair (mu'_i, mu'_{i+1}) [summed] to out-pair
    (mu_i, mu_{i+1}); this orientation is normative for the package.
    """
    mu = tuple(mu)
    n = len(mu)
    if not 1 <= i <= n - 1:
        raise ShapeError(f"swap position must lie in 1..{n-1}")
    N = Pdyn.N
    mu_sw = list(mu)
    mu_sw[i - 1], mu_sw[i] = mu_sw[i], mu_sw[i - 1]
    lhs = w_tilde(PartitionIndex.from_colors(mu_sw, N), t, z.swapped(i),
                  Pdyn, mp).value
    shift = Pdyn.shifted_by_colors(mu[i - 1:], sign=-1)
    R = rbar(z.z[i - 1] / z.z[i], shift, mp, u=z.u[i - 1] - z.u[i])
    out_pair = (mu[i - 1], mu[i])
    rhs = 0.0 + 0.0j
    in_pairs = [out_pair] if mu[i - 1] == mu[i] else [out_pair, (mu[i], mu[i - 1])]
    for cin in in_pairs:
        coeff = R.entry(cin, out_pair)
        if coeff == 0:
            continue
        mu_p = list(mu)
        mu_p[i - 1], mu_p[i] = cin
        rhs += coeff * w_tilde(PartitionIndex.from_colors(mu_p, N), t, z,
                               Pdyn, mp).value
    return abs(lhs - rhs)


def h_lambda(lam: Composition, t: TVariables, z: EvaluationPoints,
             mp: ModularParams) -> complex:
    """H factor: prod_l prod_{a,b} [v^(l+1)_b - v^(l)_a + 1]."""
    vs, br = _vees(t, z, mp), _Brackets(mp).__getitem__
    return math.prod((br(vb - va + 1.0) for l in range(1, lam.N)
                      for va in vs[l - 1] for vb in vs[l]), start=1.0 + 0.0j)


def e_lambda(lam: Composition, t: TVariables, z: EvaluationPoints,
             mp: ModularParams) -> complex:
    """E factor: prod_l prod_{a,b} [v^(l)_b - v^(l)_a + 1], diagonal included.

    The double product runs over all (a, b) pairs of the same level, so each
    level contributes one [1] factor per variable.  This literal reading is
    the one under which the two modified-weight-function routes coincide.
    """
    vs, br = _vees(t, z, mp), _Brackets(mp).__getitem__
    return math.prod((br(vb - va + 1.0) for l in range(1, lam.N)
                      for va in vs[l - 1] for vb in vs[l - 1]), start=1.0 + 0.0j)


def u_mod(I: PartitionIndex, t: TVariables, z: EvaluationPoints,
          Pdyn: DynamicalParams, mp: ModularParams) -> complex:
    """Pre-symmetrization term of the modified weight function.

    Per level l: the product over slots a of

        [v'_b - v_a + A] / [A]  (at the matched slot b)
        * prod_{b' : i'_{b'} > s} [v'_{b'} - v_a]
        * prod_{b' : i'_{b'} < s} [v'_{b'} - v_a + 1]

    divided by prod_{a<b} [v_a - v_b][v_b - v_a - 1].
    """
    return _identity_term(_level_factors(I, t, z, Pdyn, mp, modified=True)[0],
                          I.shape())


def modified_w(I: PartitionIndex, t: TVariables, z: EvaluationPoints,
               Pdyn: DynamicalParams, mp: ModularParams,
               route: str = "ratio") -> complex:
    """Modified weight function, by either of two equivalent routes.

    route="ratio": H * w_tilde / E.  route="sym": plain symmetrization sum of
    the u_mod terms, by the same enumerator as w_tilde.  The two agree
    identically; both are kept as a cross check.
    """
    lam = I.shape()
    t.check_shape(lam)
    if route == "ratio":
        wt = w_tilde(I, t, z, Pdyn, mp).value
        return h_lambda(lam, t, z, mp) * wt / e_lambda(lam, t, z, mp)
    if route == "sym":
        return _sym_sum(I, t, z, Pdyn, mp, modified=True).value
    raise ParameterError(f"unknown route {route!r}")


def _reversed_colors(I: PartitionIndex) -> PartitionIndex:
    return PartitionIndex.from_colors(tuple(reversed(I.colors())), I.N)


def stable_envelope_restriction(I: PartitionIndex, J: PartitionIndex,
                                z: EvaluationPoints, Pdyn: DynamicalParams,
                                mp: ModularParams,
                                chamber: str = "increasing") -> complex:
    """Restriction of the stable envelope of fixed point I to fixed point J.

    Computed as the modified weight function with the longest-permutation
    reindexing: reversed color strings, reversed-and-inverted spectral
    points, inverted dynamical parameters, specialized at t = z_J^(-1).
    Only the chamber |z_1| < ... < |z_n| is implemented.
    """
    if chamber != "increasing":
        raise ParameterError("only the increasing-modulus chamber is implemented")
    mods = [abs(x) for x in z.z]
    if any(a >= b for a, b in zip(mods, mods[1:])):
        raise ParameterError("chamber requires |z_1| < ... < |z_n|")
    if I.shape() != J.shape():
        raise ShapeError("restriction requires equal shapes")
    lam = I.shape()
    I_rev = _reversed_colors(I)
    J_rev = _reversed_colors(J)
    z_rev = z.inverted_reversed()
    P_inv = Pdyn.inverted()
    t = TVariables.specialization(J_rev, z_rev)
    wt = specialize(I_rev, J_rev, z_rev, P_inv, mp).value
    return h_lambda(lam, t, z_rev, mp) * wt / e_lambda(lam, t, z_rev, mp)


def stab_matrix(lam: Composition, z: EvaluationPoints, Pdyn: DynamicalParams,
                mp: ModularParams):
    """All stable-envelope restrictions for a shape, as a nested dict.

    This doubles as the numeric probe for orthogonality-type experiments:
    the diagonal-normalized Gram data can be formed from it, but no specific
    identity is asserted because the localization normalisation is left
    unspecified.
    """
    parts = enumerate_partitions(lam)
    return {I: {J: stable_envelope_restriction(I, J, z, Pdyn, mp)
                for J in parts} for I in parts}


def triangularity_violations(lam: Composition, z: EvaluationPoints,
                             Pdyn: DynamicalParams, mp: ModularParams) -> float:
    """Max |w_tilde_I(z_at)| over pairs with NOT at <= I (should be ~0)."""
    parts = enumerate_partitions(lam)
    worst = 0.0
    for I in parts:
        for at in parts:
            if not leq(at, I):
                worst = max(worst, abs(specialize(I, at, z, Pdyn, mp).value))
    return worst
