"""Elliptic weight functions, their modified form, and stable envelopes.

A weight function is a symmetrized product of theta-bracket ratios indexed
by a partition I.  ``Sym`` is the plain sum over permutations of each
integration-variable block, with no 1/lambda! prefactor; this normalisation
is the one that reproduces the closed-form diagonal value and is asserted by
the tests.

Brackets are always the unstarred [.] built on the nome carried by the
ModularParams argument (so substituting a different nome, as the q-KZ cycle
insertion does, is just a parameter change).

Every symmetrized sum is one chain of per-level matrices, ``_sym_sum``: the
level-l factor F_l[p, p'] of the terms whose level-l and level-(l+1)
variables are in the orders p and p' is gathered from tables of brackets
with index arrays cached per slot pattern, and the sum is
F_1 @ ... @ F_{N-1}[:, id] summed; ``u_tilde``/``u_mod`` are the identity
entries.  The bracket arguments are only the O(n^2) values
v_x - v_y + c, c in {0, +-1, A}, so one ``jacobi_brackets`` pass evaluates
the tables of a call, or of every label ``specialize_labels`` takes at one
point t = z_at.  A column of F_l whose every term already has an
exactly-zero factor (as at t = z_J) is skipped and its terms count as
pruned, unless a denominator of levels 1..N-2 meets the pole test
``ellfn.pole_tol`` (the level-(N-1) factor is always evaluated whole): then
every entry is evaluated and meets its pole test.  A term through a vanishing
denominator raises PoleError, at a specialization t = z_at as anywhere else:
at resonant points z_j = q^(+-2) z_i a specialization with a finite limit in
z raises rather than returning a value.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product
from typing import NamedTuple

import numpy as np

from .ellfn import (ModularParams, jacobi_bracket, jacobi_brackets, pole_tol,
                    require_finite, require_normal)
from .errors import EllqgError, ParameterError, PoleError, ShapeError
from .rmat import rbar
from .tensorspace import (Composition, DynamicalParams, EvaluationPoints,
                          PartitionIndex, enumerate_partitions, eps_pairing, leq)


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
    skipped_singular: int = 0  # always 0: a vanishing denominator raises; bench/tracer.py reads it
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


class _Level(NamedTuple):
    """One level's factor tables: ratio values, flattened, and pole flags."""

    l: int
    modified: bool
    pattern: tuple  # per slot a: (matched slot b, later slots of level l+1)
    Y: int          # size of level l+1
    values: np.ndarray
    bad: np.ndarray  # entries with a denominator that meets the pole test
    poles: bool      # bad.any()


class _Plan(NamedTuple):
    """Where each bracket and each table entry of a label's terms comes from."""

    levels: tuple      # per level: (slot pattern, size of level l+1, entries start, stop)
    slots: tuple       # per [A] bracket: (level, slot, color, C offset)
    args: np.ndarray   # (3, brackets): argument = v[i] - v[j] + const[c]
    ratio: np.ndarray  # (4, entries): value = [n1][n2] / ([d1][d2])


class _Gather(NamedTuple):
    """Index arrays that gather a level factor F[p, p'] from its tables.

    Entry (p, p') of term k of the cross product is ``rows[p, k] + cols[p', k]``;
    ``same[p]`` indexes the same-level product.  ``terms`` lists (cross?,
    column, a, j) in the order the factor is defined, which is the order its
    denominators are tested in.
    """

    orders: list  # the level-l orders p, as lists
    rows: np.ndarray
    cols: np.ndarray
    same: np.ndarray
    terms: tuple


@lru_cache(maxsize=256)
def _gather(modified: bool, pattern: tuple, Y: int, top: bool) -> _Gather:
    """Index arrays of one level, cached by the integer slot pattern.

    Rows run over every order of the level (identity first), columns over
    every order of level l+1, or only its identity at the top level.  Value
    layout (X slots, Y variables at level l+1, row x of each table is v_x):
    the matched-slot ratio of each slot a (X tables, X x Y), the later-slot
    ratio (X x Y), the earlier-slot factor of u_mod (X x Y, unused by
    u_tilde), then the same-level ratio (X x X).
    """
    X = len(pattern)
    rows = np.array(list(permutations(range(X))), dtype=np.intp)
    cols = np.arange(Y)[None] if top else np.array(list(permutations(range(Y))), dtype=np.intp)
    off_later, off_earlier, off_same = X * X * Y, X * X * Y + X * Y, X * X * Y + 2 * X * Y
    cross, same, terms = [], [], []
    for a, (b, later) in enumerate(pattern):
        slot = [(a * X * Y, b)] + [(off_later, bp) for bp in later]
        if modified:
            slot += [(off_earlier, bp) for bp in range(Y) if bp != b and bp not in later]
        for off, j in slot:
            terms.append((True, len(cross), a, j))
            cross.append((off, a, j))
        for ap in range(a + 1, X):
            terms.append((False, len(same), a, ap))
            same.append((a, ap))
    out = _Gather(rows.tolist(), np.empty((len(rows), len(cross)), np.intp),
                  np.empty((len(cols), len(cross)), np.intp),
                  np.empty((len(rows), len(same)), np.intp), tuple(terms))
    for k, (off, a, j) in enumerate(cross):
        out.rows[:, k] = off + rows[:, a] * Y
        out.cols[:, k] = cols[:, j]
    for k, (a, ap) in enumerate(same):
        out.same[:, k] = off_same + rows[:, a] * X + rows[:, ap]
    for arr in out[1:4]:
        arr.flags.writeable = False
    return out


# Holds every label of a shape: gt_vector specializes all of them at each I,
# in the same order, so a smaller cache evicts each plan before its reuse
# ((3,3,2) has 560 labels).
@lru_cache(maxsize=4096)
def _plan(I: PartitionIndex, modified: bool) -> _Plan:
    """The bracket arguments and table layout of label I's terms.

    Variables are numbered level by level (level N is z), then one spare
    variable (0); constants are 0, 1, -1 and the A of each slot.  Brackets
    [1] and [A_a] come first; level l then tabulates [v'_y - v_x],
    [v'_y - v_x + 1], [v'_y - v_x + A_a] per slot a, [v_x - v_x'] and
    [v_x - v_x' - 1].  Bracket index -1 stands for an exact 1.  The ratios a
    term multiplies are laid out per level as ``_gather`` reads them.
    """
    lam = I.shape()
    colors = I.colors()
    sizes = [lam.prefix(l) for l in range(1, lam.N + 1)]
    start = np.cumsum([0] + sizes)
    spare, one = start[-1], -1
    patterns, slots = [], []
    for l in range(1, lam.N):
        nxt = I.union(l + 1)
        patterns.append(tuple((nxt.index(s), tuple(b for b, s2 in enumerate(nxt) if s2 > s))
                              for s in I.union(l)))
        slots += [(l, a + 1, colors[s - 1], _c_offset(colors, s, colors[s - 1], l + 1))
                  for a, s in enumerate(I.union(l))]
    args, ratio, levels = [], [], []

    def put(i, j, c):
        """Brackets [v_i - v_j + const_c] (broadcast); returns their indices."""
        i, j, c = np.broadcast_arrays(i, j, c)
        first = sum(x.shape[1] for x in args)
        args.append(np.stack([i.ravel(), j.ravel(), c.ravel()]))
        return first + np.arange(i.size).reshape(i.shape)

    b1 = put(spare, spare, 1)
    bA = put(spare, spare, 3 + np.arange(len(slots)))
    for l, pattern in enumerate(patterns, 1):
        X, Y = sizes[l - 1], sizes[l]
        v, w = start[l - 1] + np.arange(X), start[l] + np.arange(Y)
        k = start[l - 1] + np.arange(X)  # the slots of level l
        A = bA[k]
        T0, T1 = put(w, v[:, None], 0), put(w, v[:, None], 1)
        TA = put(w, v[:, None], 3 + k[:, None, None])
        D, Dm = put(v[:, None], v, 0), put(v[:, None], v, 2)
        eye = np.eye(X, dtype=bool)
        if modified:  # [.+A]/[A]; [v'-v]; [v'-v+1]; 1/([v_x - v_x'][v_x' - v_x - 1])
            blocks = [(TA, one, A[:, None, None], one), (T0, one, one, one),
                      (T1, one, one, one), (one, one, np.where(eye, one, D),
                                            np.where(eye, one, Dm.T))]
        else:  # [.+A][1]/([.+1][A]); [v'-v]/[v'-v+1]; unused; [v-v'-1]/[v-v']
            blocks = [(TA, b1, T1, A[:, None, None]), (T0, one, T1, one),
                      (np.full((X, Y), one), one, one, one),
                      (np.where(eye, one, Dm), one, np.where(eye, one, D), one)]
        lo = sum(x.shape[1] for x in ratio)
        ratio += [np.stack([x.ravel() for x in np.broadcast_arrays(*block)])
                  for block in blocks]
        levels.append((pattern, Y, lo, lo + X * X * Y + 2 * X * Y + X * X))
    plan = _Plan(tuple(levels), tuple(slots), np.concatenate(args, axis=1),
                 np.concatenate(ratio, axis=1))
    plan.args.flags.writeable = plan.ratio.flags.writeable = False
    return plan


def _brackets(plans: list, t: TVariables, z: EvaluationPoints, Pdyn: DynamicalParams,
              mp: ModularParams) -> list[np.ndarray]:
    """Each plan's brackets [v_i - v_j + const_c] (layout in ``_plan``) at t, from one
    ``jacobi_brackets`` call: in plan order for one plan, each distinct argument once
    for several.  A constant is keyed by its formula, so equal keys are the same
    operations on the same values and each bracket is bitwise that of a lone plan's."""
    v = np.array([x for level in _vees(t, z, mp) for x in level] + [0.0], dtype=complex)
    ids = {0: 0, 1: 1, 2: 2}  # constant keys: 0, 1, -1 by place, a slot's A by (l, color, C)
    cids = [np.array([0, 1, 2] + [ids.setdefault((l, color, C), len(ids))
                                  for l, _, color, C in plan.slots]) for plan in plans]
    const = np.array([0.0, 1.0, -1.0] + [Pdyn.value(color, l + 1) - C
                                         for l, color, C in list(ids)[3:]], dtype=complex)
    if len(plans) == 1:
        i, j, c = plans[0].args
        return [jacobi_brackets(v[i] - v[j] + const[cids[0][c]], mp)]
    i, j, _ = np.concatenate([plan.args for plan in plans], axis=1)
    c = np.concatenate([cid[plan.args[2]] for cid, plan in zip(cids, plans)])
    keys = (i * v.size + j) * len(ids) + c
    rank = (np.cumsum(np.bincount(keys) > 0) - 1)[keys]  # place among the distinct keys
    args = np.empty(rank.max() + 1, dtype=complex)
    args[rank] = v[i] - v[j] + const[c]  # equal keys, bitwise equal values
    br = jacobi_brackets(args, mp)[rank]
    return np.split(br, np.cumsum([plan.args.shape[1] for plan in plans[:-1]]))


def _tables(plan: _Plan, brackets: np.ndarray, modified: bool) -> list[_Level]:
    """The factor tables of every level of a plan's terms, from its brackets; [A]
    divides every term and is checked here, against [1] (bracket 0)."""
    br = np.append(brackets, 1.0)
    small = np.abs(br) < pole_tol(br[0])
    small[-1] = False  # the exact 1
    hit = np.flatnonzero(small[1:1 + len(plan.slots)])
    if hit.size:
        l, a = plan.slots[hit[0]][:2]
        raise PoleError(f"[(P+h) - C] vanished at level {l}, slot {a}")
    n1, n2, d1, d2 = br[plan.ratio]
    bad = small[plan.ratio[2]] | small[plan.ratio[3]]
    values = n1 * n2 / np.where(bad, 1.0, d1 * d2)
    return [_Level(l, modified, pattern, Y, values[lo:hi], bad[lo:hi], bool(bad[lo:hi].any()))
            for l, (pattern, Y, lo, hi) in enumerate(plan.levels, 1)]


def _level_factors(labels, t: TVariables, z: EvaluationPoints, Pdyn: DynamicalParams,
                   mp: ModularParams, modified: bool = False):
    """The factor tables of each label's u_tilde (with ``modified``, u_mod) terms
    at t, label by label, from one bracket call (``_brackets``); if it raises,
    each label makes its own call, so the first label's error is raised."""
    for I in labels:
        t.check_shape(I.shape())
    plans = [_plan(I, modified) for I in labels]
    try:
        shared = _brackets(plans, t, z, Pdyn, mp) if plans else []
    except EllqgError:
        if len(plans) == 1:
            raise
        shared = (_brackets([plan], t, z, Pdyn, mp)[0] for plan in plans)
    return (_tables(plan, br, modified) for plan, br in zip(plans, shared))


def _factor(lv: _Level, top: bool, cols=slice(None)):
    """``(gather, F, marks)``: the level factor F[p, p'] over every order p and
    the orders p' in ``cols``, and the entries that use a vanishing
    denominator (None when there are none)."""
    g = _gather(lv.modified, lv.pattern, lv.Y, top)
    idx = g.rows[:, None, :] + g.cols[cols][None]
    F = lv.values[idx].prod(axis=-1) * lv.values[g.same].prod(axis=-1)[:, None]
    marks = None
    if lv.poles:
        marks = lv.bad[idx].any(axis=-1) | lv.bad[g.same].any(axis=-1)[:, None]
        if not marks.any():
            marks = None
    return g, F, marks


def _pole_message(lv: _Level, g: _Gather, p: int, pn: int) -> str:
    """The PoleError text of the first vanishing denominator of F[p, pn]."""
    l = lv.l
    for is_cross, k, a, j in g.terms:
        if lv.bad[g.rows[p, k] + g.cols[pn, k] if is_cross else g.same[p, k]]:
            if lv.modified:
                return f"level-{l} denominator vanished"
            if is_cross:
                return f"[v^{l+1}_{j+1} - v^{l}_{a+1} + 1] vanished"
            return f"[v^{l}_{a+1} - v^{l}_{j+1}] vanished"
    raise AssertionError("no vanishing denominator in a marked entry")


def _identity_term(levels: list[_Level]) -> complex:
    """The unpermuted term, prod_l F_l[id, id]; levels are tested from 1 up."""
    total = 1.0 + 0.0j
    for lv in levels:
        g, F, marks = _factor(lv, lv is levels[-1], [0])
        if marks is not None and marks[0, 0]:
            raise PoleError(_pole_message(lv, g, 0, 0))
        total *= complex(F[0, 0])
    return require_finite(total, "weight-function term")


def u_tilde(I: PartitionIndex, t: TVariables, z: EvaluationPoints,
            Pdyn: DynamicalParams, mp: ModularParams) -> complex:
    """Single pre-symmetrization term of the weight function.

    Per level l and slot a (site s = i^(l)_a, color mu_s, matched slot b at
    level l+1 with i^(l+1)_b = s, A = (P+h)_{mu_s,l+1} - C_{mu_s,l+1}(s)):

        [v'_b - v_a + A][1] / ([v'_b - v_a + 1][A])
        * prod_{b' : i^(l+1)_{b'} > s}  [v'_{b'} - v_a] / [v'_{b'} - v_a + 1]
        * prod_{a' > a}                 [v_a - v_{a'} - 1] / [v_a - v_{a'}]
    """
    return _identity_term(next(_level_factors([I], t, z, Pdyn, mp)))


def _sym_sum(levels: list[_Level]) -> WeightFunctionEval:
    """Plain sum of the u_tilde (u_mod) terms of ``levels`` over block permutations.

    The sum is a chain of per-level matrices F_l[p, p'] (orders p of level l,
    p' of level l+1): vec = F_{N-1}[:, id], then vec = F_l @ vec for
    l = N-2, ..., 1, and the value is sum(vec).  Without vanishing
    denominators at levels 1..N-2 (and not ``modified``), a column whose every
    term has an exactly-zero factor is not gathered, and those terms count as
    pruned.  An entry with a vanishing denominator raises the PoleError the
    depth-first order of terms meets first.  A sum beyond the float range
    raises FloatRangeError.
    """
    prune = not any(lv.modified for lv in levels) and not any(lv.poles for lv in levels[:-1])
    vec = nz = np.ones(1)  # over the orders of the level above: z has one
    gathers, marks = [], []
    for lv in reversed(levels):
        cols = np.flatnonzero(nz) if prune else slice(None)
        g, F, mk = _factor(lv, lv is levels[-1], cols)
        vec = F @ vec[cols]
        if prune:
            nz = (F != 0) @ nz[cols]
        gathers.insert(0, g)
        marks.insert(0, mk)
    sizes = [len(g.orders) for g in gathers]
    if any(m is not None for m in marks):
        for idx in product(*map(range, reversed(sizes))):  # the walk's order: top level slowest
            path = idx[::-1] + (0,)
            hit = [i for i, m in enumerate(marks) if m is not None and m[path[i], path[i + 1]]]
            if hit:  # the walk meets the highest marked level of this term first
                i = hit[-1]
                raise PoleError(_pole_message(levels[i], gathers[i], path[i], path[i + 1]))
    total = math.prod(sizes)
    return WeightFunctionEval(require_finite(complex(vec.sum()), "weight-function sum"), total,
                              terms_pruned=total - int(nz.sum()) if prune else 0)


def w_tilde(I: PartitionIndex, t: TVariables, z: EvaluationPoints,
            Pdyn: DynamicalParams, mp: ModularParams) -> WeightFunctionEval:
    """Weight function: plain sum of u_tilde over block permutations of t.

    Summed by ``_sym_sum``, exactly-zero branches pruned (module docstring);
    a vanishing denominator raises PoleError.
    """
    return _sym_sum(next(_level_factors([I], t, z, Pdyn, mp)))


def specialize_labels(labels, at: PartitionIndex, z: EvaluationPoints,
                      Pdyn: DynamicalParams, mp: ModularParams) -> list[WeightFunctionEval]:
    """w_tilde of each label I at the specialization t = z_at, zero unless at <= I.

    The labels share one bracket call; if it raises, the first label's error
    is raised.  Each value is w_tilde's at t = z_at, by the same code: a term
    through a vanishing denominator (at resonant points z_j = q^(+-2) z_i)
    raises PoleError naming the bracket, even where the limit in z is finite.
    """
    if any(I.shape() != at.shape() for I in labels):
        raise ShapeError("specialization point and label must share a shape")
    z.require_distinct()
    t = TVariables.specialization(at, z)
    return [_sym_sum(levels) for levels in _level_factors(labels, t, z, Pdyn, mp)]


def specialize(I: PartitionIndex, at: PartitionIndex, z: EvaluationPoints,
               Pdyn: DynamicalParams, mp: ModularParams) -> WeightFunctionEval:
    """w_tilde of label I at the specialization t = z_at (``specialize_labels``)."""
    return specialize_labels([I], at, z, Pdyn, mp)[0]


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
    vs = _vees(t, z, mp)
    args = [vb - va + 1.0 for l in range(1, lam.N) for va in vs[l - 1] for vb in vs[l]]
    return require_finite(complex(jacobi_brackets(args, mp).prod()), "H factor")


def e_lambda(lam: Composition, t: TVariables, z: EvaluationPoints,
             mp: ModularParams) -> complex:
    """E factor: prod_l prod_{a,b} [v^(l)_b - v^(l)_a + 1], diagonal included.

    The double product runs over all (a, b) pairs of the same level, so each
    level contributes one [1] factor per variable.  This literal reading is
    the one under which the two modified-weight-function routes coincide.
    """
    vs = _vees(t, z, mp)
    args = [vb - va + 1.0 for l in range(1, lam.N) for va in vs[l - 1] for vb in vs[l - 1]]
    return require_finite(complex(jacobi_brackets(args, mp).prod()), "E factor")


def u_mod(I: PartitionIndex, t: TVariables, z: EvaluationPoints,
          Pdyn: DynamicalParams, mp: ModularParams) -> complex:
    """Pre-symmetrization term of the modified weight function.

    Per level l: the product over slots a of

        [v'_b - v_a + A] / [A]  (at the matched slot b)
        * prod_{b' : i'_{b'} > s} [v'_{b'} - v_a]
        * prod_{b' : i'_{b'} < s} [v'_{b'} - v_a + 1]

    divided by prod_{a<b} [v_a - v_b][v_b - v_a - 1].
    """
    return _identity_term(next(_level_factors([I], t, z, Pdyn, mp, modified=True)))


def modified_w(I: PartitionIndex, t: TVariables, z: EvaluationPoints,
               Pdyn: DynamicalParams, mp: ModularParams,
               route: str = "ratio") -> complex:
    """Modified weight function, by either of two equivalent routes.

    route="ratio": H * w_tilde / E.  route="sym": plain symmetrization sum of
    the u_mod terms, by the same enumerator as w_tilde.  The two agree
    identically; both are kept as a cross check.  A value beyond the float
    range raises FloatRangeError.
    """
    lam = I.shape()
    t.check_shape(lam)
    if route == "ratio":
        wt = w_tilde(I, t, z, Pdyn, mp).value
        e = require_normal(e_lambda(lam, t, z, mp), "E factor")
        return require_finite(h_lambda(lam, t, z, mp) * wt / e, "modified weight function")
    if route == "sym":
        return _sym_sum(next(_level_factors([I], t, z, Pdyn, mp, modified=True))).value
    raise ParameterError(f"unknown route {route!r}")


def _reversed_colors(I: PartitionIndex) -> PartitionIndex:
    return PartitionIndex.from_colors(tuple(reversed(I.colors())), I.N)


def stable_envelope_restriction(I: PartitionIndex, J: PartitionIndex,
                                z: EvaluationPoints, Pdyn: DynamicalParams,
                                mp: ModularParams) -> complex:
    """Restriction of the stable envelope of fixed point I to fixed point J.

    Computed as the modified weight function with the longest-permutation
    reindexing: reversed color strings, reversed-and-inverted spectral
    points, inverted dynamical parameters, specialized at t = z_J^(-1).
    Only the chamber |z_1| < ... < |z_n| is implemented.
    """
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
    e = require_normal(e_lambda(lam, t, z_rev, mp), "E factor")
    return require_finite(h_lambda(lam, t, z_rev, mp) * wt / e, "stable envelope")


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
    for at in parts:
        for res in specialize_labels([I for I in parts if not leq(at, I)], at, z, Pdyn, mp):
            worst = np.maximum(worst, abs(res.value))
    return float(worst)
