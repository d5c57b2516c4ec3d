"""Elliptic weight functions, their modified form, and stable envelopes.

A weight function is a symmetrized product of theta-bracket ratios indexed
by a partition I.  ``Sym`` is the plain sum over permutations of each
integration-variable block, with no 1/lambda! prefactor; this normalisation
is the one that reproduces the closed-form diagonal value and is asserted by
the tests.

Brackets are always the [.] of the ModularParams argument (so the starred
pair (p*, r*), or the nome Q of the q-KZ cycle insertion, is just another
pack with the same q, ``dataclasses.replace(mp, r=..., k=0)``).

Every symmetrized sum is one chain of per-level matrices: the level-l factor
F_l[p, p'] of the terms whose level-l and level-(l+1) variables are in the
orders p and p' is gathered from the ratio tables of ``_layout``, and the sum
is F_1 @ ... @ F_{N-1}[:, id] summed; the term U_I of ``w_tilde`` (of
``modified_w``) is the identity entry.  A label gathers F_l by its slot
pattern, the positions its level-l sites take among its level-(l+1) sites;
``_layout`` holds one index table per shape and level, a column per pattern.
``_sym_sums``, the only code that multiplies table entries, evaluates a list
of points, each (t, z, Pdyn, labels, perms): a tuple of labels of one shape
at (t, z, Pdyn), each label optionally reading z through its site
permutation.  An item is one label of a point; its value and pruned term
count come back in per-point lists, with no object per item.  The points of
one shape are summed as stacks of whole points within ``_STACK_ENTRIES``
table entries, a point over that alone being a stack of its own.  A bracket
argument v_x - v_y + c, c in {0, +-1, A}, is only ever shared between items
of one point, one ``divisor_brackets`` pass gives every item's tables, and
every item of a level gathers in one index operation.

A stack is evaluated in two parts.  Its plan (``_plan``) is its value-free
index work (its distinct brackets, each item's pattern columns and its
top-level gather index), built once per structure (per point its labels and
site permutations, never a point's values) and kept in a cache of 16
read-only plans.  The value pass (``_stack``) is all a new point pays for:
one ``divisor_brackets`` call over the distinct arguments, pole test
included, the ratio tables and the contraction, whose pruning below the top
level depends on the values.  Every value is bitwise that of the item alone
(``w_tilde`` at the permuted points), and an error is the one evaluating the
items one by one meets first.  So ``specialize_points``,
``triangularity_violations``, ``stab_matrix``, ``gtrep.gt_vectors`` and
``transition_residuals`` each evaluate a whole shape, or a whole list of
transition cases, in one call, and read the values directly; only the public
one-label calls and ``specialize_all`` build a ``WeightFunctionEval`` per
item.  A column of a label's F_l whose every term already has an
exactly-zero factor (as at t = z_J) is not gathered and its terms count as
pruned (the level-(N-1) factor is always evaluated whole).  A term through a
vanishing denominator raises PoleError,
at a specialization t = z_at as anywhere else: at resonant points
z_j = q^(+-2) z_i a specialization with a finite limit in z raises rather
than returning a value.
The text names the bracket by its variables, v^l_a being variable a of level
l (level N is z), e.g. "[v^2_1 - v^1_2 + 1] vanished" (``_first_pole``).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations, groupby, permutations, product
from typing import NamedTuple

import numpy as np

from .ellfn import (_BATCH_ENTRIES, ModularParams, divisor_brackets, jacobi_bracket,
                    require_finite, require_normal)
from .errors import (EllqgError, FloatRangeError, ParameterError, PoleError, ShapeError,
                     in_order, settle)
from .rmat import rbars
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

    def check_shape(self, lam: Composition, z: EvaluationPoints) -> None:
        """Shape lam needs these t-levels and one spectral point per site."""
        if z.n != lam.n:
            raise ShapeError(f"need {lam.n} spectral points, got {z.n}")
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
    z.require_q(mp.q)
    lq = 2.0 * math.log(mp.q)
    vs = [tuple(cmath.log(x) / lq for x in lvl) for lvl in t.levels]
    vs.append(z.u)
    return vs


class _Level(NamedTuple):
    """One level of ``_layout``: its X slots, the Y variables of level l+1
    and the first entry of each of its blocks."""

    X: int
    Y: int
    matched: int
    later: int
    same: int
    earlier: int | None = None  # modified layouts only


class _Gather(NamedTuple):
    """Index arrays that gather a level factor F[p, p'] from its tables, one
    column per slot pattern: factor k of entry (p, p') of pattern s is table
    entry ``rows[k, s, p] + cols[k, s, p']``, the first ``cross`` cross-level
    ratios, then the same-level ones."""

    rows: np.ndarray
    cols: np.ndarray
    cross: int


@lru_cache(maxsize=64)
def _layout(lam: Composition, modified: bool) -> tuple:
    """Where each bracket and table entry of the terms of every label of shape
    ``lam`` comes from, and how each slot pattern gathers them: (levels, args,
    ratio, gathers).

    Variables are numbered level by level (level N is z), then a spare 0;
    constants are 0, 1, -1, then the A of each slot in ``_label``'s order.
    Bracket b is [v_i - v_j + const_c] with (i, j, c) = args[:, b]: [1] and
    [A_a] first, then per level l [v'_y - v_x], [v'_y - v_x + 1],
    [v'_y - v_x + A_a] per slot a, [v_x - v_x'] and [v_x - v_x' - 1].  Entry
    e of the tables is [n1][n2] / ([d1][d2]) with brackets (n1, n2, d1, d2) =
    ratio[:, e] (-1: an exact 1).  Per level l, ``levels`` holds a ``_Level``
    with the first entry of each block and ``gathers`` the ``_gather`` of
    every slot pattern.  A block is row-major over slot x of level l (v =
    v_x), then variable y of level l+1 (v' = v'_y), or slot x' of level l in
    the same-level block (v' = v_x'); the matched block holds one such table
    per slot a.  Only the same-level diagonal is an exact 1:

        block     plain entry                    modified entry
        matched   [v'-v+A_a][1]/([v'-v+1][A_a])  [v'-v+A_a]/[A_a]
        later     [v'-v]/[v'-v+1]                [v'-v]
        same      [v-v'-1]/[v-v']                1/([v-v'][v'-v-1])
        earlier   (none)                         [v'-v+1]
    """
    sizes = [lam.prefix(l) for l in range(1, lam.N + 1)]
    start = np.cumsum([0] + sizes)
    spare, one = start[-1], -1
    args, ratio, levels = [], [], []

    def rows(*parts) -> np.ndarray:
        """The parts broadcast together, one row each."""
        out = np.empty((len(parts),) + np.broadcast(*parts).shape, np.intp)
        for k, part in enumerate(parts):
            out[k] = part
        return out.reshape(len(parts), -1)

    def put(i, j, c):
        """Brackets [v_i - v_j + const_c] (broadcast); returns their indices."""
        first = sum(x.shape[1] for x in args)
        args.append(rows(i, j, c))
        return first + np.arange(args[-1].shape[1]).reshape(np.broadcast(i, j, c).shape)

    b1 = put(spare, spare, 1)
    bA = put(spare, spare, 3 + np.arange(start[-2]))
    for l in range(1, len(sizes)):
        X, Y = sizes[l - 1], sizes[l]
        v = k = start[l - 1] + np.arange(X)  # the variables and slots of level l
        w, A = start[l] + np.arange(Y), bA[k]
        T0, T1 = put(w, v[:, None], 0), put(w, v[:, None], 1)
        TA = put(w, v[:, None], 3 + k[:, None, None])
        D, Dm = put(v[:, None], v, 0), put(v[:, None], v, 2)
        eye = np.eye(X, dtype=bool)
        if modified:  # matched, later, same, earlier
            blocks = [(TA, one, A[:, None, None], one), (T0, one, one, one),
                      (one, one, np.where(eye, one, D), np.where(eye, one, Dm.T)),
                      (T1, one, one, one)]
        else:  # matched, later, same
            blocks = [(TA, b1, T1, A[:, None, None]), (T0, one, T1, one),
                      (np.where(eye, one, Dm), one, np.where(eye, one, D), one)]
        first = [sum(x.shape[1] for x in ratio)]
        for block in blocks:
            ratio.append(rows(*block))
            first.append(first[-1] + ratio[-1].shape[1])
        levels.append(_Level(X, Y, *first[:-1]))
    args, ratio = np.concatenate(args, axis=1), np.concatenate(ratio, axis=1)
    args.flags.writeable = ratio.flags.writeable = False
    return tuple(levels), args, ratio, tuple(_gather(lv, lv is levels[-1]) for lv in levels)


def _gather(level: _Level, top: bool) -> _Gather:
    """Index arrays of every slot pattern of a level into its ``_layout``
    blocks, stacked in the order of ``combinations``.  Pattern S places slot
    a at S[a] among the variables of level l+1; its cross-level ratios are
    its matched slot's (S[a]), then its later slots' (those after S[a]),
    then (modified layouts) its earlier slots' (the rest).  Those of fewer
    cross-level factors are padded in front with the exact-1 entry
    ``level.same`` (column 0): ``_factor``'s products start from an exact 1,
    so they stay bit for bit.  Rows run over every order of the level
    (identity first), columns over every order of level l+1, or only its
    identity at the top level."""
    X, Y = level.X, level.Y
    rows = np.array(list(permutations(range(X))), dtype=np.intp)
    cols = np.arange(Y)[None] if top else np.array(list(permutations(range(Y))), dtype=np.intp)
    same = [(level.same + rows[:, a] * X + rows[:, ap], 0) for a in range(X) for ap in range(a + 1, X)]
    patterns = []  # per pattern: its cross-level factors, each (rows, cols)
    for S in combinations(range(Y), X):
        slots = [[(level.matched + a * X * Y, b)] + [(level.later, j) for j in range(b + 1, Y)]
                 + [(level.earlier, j) for j in range(b) if level.earlier is not None]
                 for a, b in enumerate(S)]
        patterns.append([(off + rows[:, a] * Y, cols[:, j])
                         for a, slot in enumerate(slots) for off, j in slot])
    cross = max(len(p) for p in patterns)
    out = _Gather(np.full((cross + len(same), len(patterns), len(rows)), level.same, np.intp),
                  np.zeros((cross + len(same), len(patterns), len(cols)), np.intp), cross)
    for s, factors in enumerate(patterns):
        for k, (r, c) in enumerate(factors + same, cross - len(factors)):
            out.rows[k, s], out.cols[k, s] = r, c
    out.rows.flags.writeable = out.cols.flags.writeable = False
    return out


# Holds every label of a shape ((3,3,2) has 560): gt_vector specializes all of
# them at each I, in one order, so a smaller cache evicts each before its reuse.
@lru_cache(maxsize=4096)
def _label(I: PartitionIndex) -> tuple:
    """Label I's shape, slot pattern per level (its place among ``_gather``'s:
    the positions of the sites of level l among those of level l+1) and, per
    slot in ``_layout``'s order, (level, slot, color, C_{mu_s,l+1}(s) =
    #(j > s : mu_j = mu_s) - #(j > s : mu_j = l+1))."""
    lam, colors = I.shape(), I.colors()
    if lam.N < 2:
        raise ShapeError("a weight function needs N >= 2 colors")
    patterns, slots = [], []
    for l in range(1, lam.N):
        nxt = I.union(l + 1)
        S = tuple(nxt.index(s) for s in I.union(l))
        patterns.append(_pattern_index(len(nxt), len(S))[S])
        slots += [(l, a + 1, colors[s - 1], sum(eps_pairing(colors[j], colors[s - 1], l + 1)
                                                for j in range(s, len(colors))))
                  for a, s in enumerate(I.union(l))]
    return lam, tuple(patterns), tuple(slots)


@lru_cache(maxsize=64)
def _pattern_index(Y: int, X: int) -> dict:
    """The place of each slot pattern of X slots among Y variables in the
    order of ``combinations``, ``_gather``'s column order."""
    return {S: s for s, S in enumerate(combinations(range(Y), X))}


class _Plan(NamedTuple):
    """The value-free part of a stack of points of one shape: everything that
    depends only on its structure (per point: its labels and their site
    permutations).  Its items are the labels of its points in order.  A bracket reads
    one row per call: each point's coordinates (its variables level by level,
    z last, then a spare 0), then each point's constants (0, 1, -1, then one
    A per distinct (level, color, C) of the stack)."""

    lam: Composition
    modified: bool
    levels: tuple          # per level, as ``_layout``'s
    ratio: np.ndarray      # (4, entries): the brackets of each table entry, ``_layout``'s
    consts: tuple          # per A constant: (color, level l+1, C)
    args: np.ndarray       # (3, distinct): each distinct bracket [row[i] - row[j] + row[c]]
    rank: np.ndarray       # (brackets + 1, items): 1 + the distinct bracket of each, then 0
    slots: tuple           # per [A]: its (level, slot)
    gathers: tuple         # per level: ``_layout``'s, less the leading rows every item pads
    kinds: np.ndarray      # (levels, items): each item's slot pattern, its column in ``gathers``
    top: np.ndarray        # (factors, items, orders): every item's gather index at the top level


# Measured at seed 0, with stacks of whole points: a verify run makes 259
# stacks and builds 220 plans (39 hits), a qkz_trace run hits 998 of 1,000 and
# a gt_basis run 29 of 30; more plans kept add memory, not reuse.
@lru_cache(maxsize=16)
def _plan(modified: bool, structure: tuple) -> _Plan:
    """The plan of a stack of points, each (labels, site permutations or
    None).  A bracket is keyed by (point, variables, constant): equal keys
    are the same operations on the same values, so each distinct one is
    evaluated once.  Table entry e of item k is entry e * items + k of the
    stack's tables."""
    labels = [I for point, _ in structure for I in point]
    at = [p for p, (point, _) in enumerate(structure) for _ in point]
    perms = [perm for point, perms in structure for perm in perms or [None] * len(point)]
    lam, patterns, slots = zip(*(_label(I) for I in labels))
    if lam.count(lam[0]) != len(lam):
        raise ShapeError("the items of a stack must share a shape")
    lam, L = lam[0], len(labels)
    levels, (i, j, c), ratio, gathers = _layout(lam, modified)
    ids = {0: 0, 1: 1, 2: 2}  # constant keys: 0, 1, -1 by place, a slot's A by (l, color, C)
    cids = np.array([[0, 1, 2] + [ids.setdefault((l, color, C), len(ids))
                                  for l, _, color, C in sl] for sl in slots])
    V, W = sum(lam.prefix(l) for l in range(1, lam.N + 1)) + 1, len(ids)
    c = cids.T[c]  # (brackets, items): constant ids within the item's point's constants
    at = np.array(at)
    var = np.arange(V) + V * at[:, None]  # (items, V): each item's own variables
    z0 = V - 1 - lam.n
    for k, perm in enumerate(perms):
        if perm is not None:  # site s+1 reads z[perm[s]]
            var[k, z0:-1] = var[k, z0 + np.array(perm)]
    i, j = var[:, i].T, var[:, j].T  # (brackets, items); i carries the point
    keys = ((i * V + j % V) * W + c).ravel()
    rank = (np.cumsum(np.bincount(keys) > 0) - 1)[keys]  # place among the distinct keys
    first = np.empty(rank.max() + 1, np.intp)
    first[rank] = np.arange(rank.size)  # a use of each, any: equal keys read equal indices
    args = np.stack([i, j, c + W * at + V * (at.max() + 1)]).reshape(3, -1)[:, first]
    rank = np.vstack([rank.reshape(i.shape) + 1, np.zeros(L, np.intp)])
    kinds = np.array(patterns, np.intp).T
    # The leading rows every item pads: a pad reads ``level.same`` in the identity order, no factor does.
    pads = [int((g.rows[:, kind, 0] == lv.same).all(axis=1).sum())
            for g, lv, kind in zip(gathers, levels, kinds)]
    gathers = tuple(_Gather(g.rows[d:], g.cols[d:], g.cross - d) for g, d in zip(gathers, pads))
    top = (gathers[-1].rows * L)[:, kinds[-1]]  # built in place: at (3,2,2) it is megabytes
    top += (gathers[-1].cols[:, kinds[-1], 0] * L + np.arange(L))[:, :, None]
    return _Plan(lam, modified, levels, ratio, tuple((color, l + 1, C) for l, color, C in list(ids)[3:]),
                 _frozen(args), _frozen(rank), tuple(sl[:2] for sl in slots[0]),
                 gathers, _frozen(kinds), _frozen(top))


def _frozen(index) -> np.ndarray:
    """``index`` (a list or a new array) as a read-only intp array."""
    out = np.asarray(index, dtype=np.intp)
    out.flags.writeable = False
    return out


class _Stack(NamedTuple):
    """The factor tables of a stack of items of one shape, one column per item."""

    plan: _Plan
    values: np.ndarray  # (entries, items): the ratios, laid out by ``_layout``
    bad: np.ndarray     # (entries, items): a denominator meets the pole test
    small: np.ndarray   # (brackets + 1, items): a bracket meets the pole test


def _stack(points: list, mp: ModularParams, modified: bool) -> _Stack:
    """The factor tables of the terms of the points' items (with
    ``modified``, the modified terms): the value pass over the stack's plan,
    with one ``divisor_brackets`` call over its distinct brackets.

    Point (t, z, Pdyn, labels, perms) holds each label of ``labels`` at
    (t, z, Pdyn); with perms, one site permutation or None per label, site
    s+1 of a label with a permutation reads the spectral point
    ``z.z[perm[s]]``, as if z were permuted."""
    plan = _plan(modified, tuple((labels, perms) for _, _, _, labels, perms in points))
    row = []
    for t, z, _, _, _ in points:
        t.check_shape(plan.lam, z)
        row += [x for level in _vees(t, z, mp) for x in level] + [0.0]
    for _, _, Pdyn, _, _ in points:
        row += [0.0, 1.0, -1.0] + [Pdyn.value(color, l) - C for color, l, C in plan.consts]
    vi, vj, const = np.array(row, dtype=complex)[plan.args]
    args = vi - vj + const
    try:
        br, small = divisor_brackets(args, mp)
    except FloatRangeError:
        if plan.rank.shape[1] == 1:  # name the item's first overflowing bracket, in its order
            divisor_brackets(args[plan.rank[:-1, 0] - 1], mp)
        raise
    br[0] = 1.0  # [1] is tested and its mask False: its place is the tables' exact 1
    br, small = br[plan.rank], small[plan.rank]
    n1, n2, d1, d2 = br[plan.ratio]
    bad = small[plan.ratio[2]] | small[plan.ratio[3]]
    return _Stack(plan, n1 * n2 / np.where(bad, 1.0, d1 * d2), bad, small)


def _a_pole(st: _Stack, k: int) -> str | None:
    """The PoleError text of item k's first vanishing [A], or None: [A]
    divides every term."""
    small = st.small[1:1 + len(st.plan.slots), k]
    if small.any():
        return "[(P+h) - C] vanished at level {}, slot {}".format(*st.plan.slots[small.argmax()])
    return None


def _first_pole(st: _Stack, k: int) -> str | None:
    """The PoleError text of item k, or None if no table entry its gathers read
    has a denominator that meets the pole test: of the flagged entries read at
    the highest level that reads one, the first entry's first such
    denominator, named by its variables (v^l_a: variable a of level l, level N
    being z)."""
    plan, bad = st.plan, st.bad[:, k]
    for g, kind in zip(plan.gathers[::-1], plan.kinds[::-1, k]):
        read = g.rows[:, kind, :, None] + g.cols[:, kind, None]
        read = read[bad[read]]
        if read.size:
            break
    else:
        return None
    b = next(b for b in plan.ratio[2:, read.min()] if st.small[b, k])
    _, args, _, _ = _layout(plan.lam, plan.modified)
    start = np.cumsum([0] + [plan.lam.prefix(l) for l in range(1, plan.lam.N + 1)])
    x, y = (f"v^{l}_{v - start[l - 1] + 1}"
            for v, l in zip(args[:2, b], np.searchsorted(start, args[:2, b], side="right")))
    return f"[{x} - {y}{('', ' + 1', ' - 1')[args[2, b]]}] vanished"


def _factor(cross: int, f: np.ndarray) -> np.ndarray:
    """Level factor of gathered entries f, ``cross`` cross-level ones first: elementwise products,
    as numpy rounds a one-element reduction otherwise and no value may depend on its stack."""
    one = np.ones(f.shape[1:], complex)
    return reduce(np.multiply, f[:cross], one) * reduce(np.multiply, f[cross:], one)


def _passes(n: int, width: int) -> list:
    """Slices of range(n) whose rows of ``width`` entries fit ``_BATCH_ENTRIES``; [:] if all do."""
    step = max(1, _BATCH_ENTRIES // max(width, 1))
    return [slice(None)] if n <= step else [slice(lo, lo + step) for lo in range(0, n, step)]


def _sums(points: list, mp: ModularParams, modified: bool) -> list:
    """The outcomes of one stack, in point order: per point the lists of its
    items' plain sums of their terms (modified terms) over block permutations
    and of their pruned term counts, and the number of terms of an item, up
    to the first point with an item that raises, whose EllqgError (that of
    its first such item) ends the list.
    An item raises for a vanishing [A], a term through a vanishing
    denominator (``_first_pole``) or a sum beyond the float range
    (FloatRangeError).  An error of the shared ``_stack`` call, such as its
    bracket call's, is raised.  Each level is one gather, cut into
    ``_passes``."""
    st = _stack(points, mp, modified)
    plan, L, levels = st.plan, st.values.shape[1], st.plan.levels
    values = st.values.ravel()  # entry-major
    # A product beyond the float range raises FloatRangeError below.
    with np.errstate(over="ignore", invalid="ignore"):
        vec = np.concatenate([_factor(plan.gathers[-1].cross, np.take(values, plan.top[:, s]))
                              for s in _passes(L, plan.top[:, 0].size)])  # F_{N-1}[:, id]
        nz = vec != 0  # per order: the number of its terms without an exactly-zero factor
        # vec[k] = F_l @ vec[k] over the live columns, for l = N-2, ..., 1
        for g, kinds, level in list(zip(plan.gathers, plan.kinds, levels))[-2::-1]:
            out, count = (np.zeros((L, math.factorial(level.X)), dtype)
                          for dtype in (complex, np.intp))
            lab, col = nz.nonzero()
            for s in _passes(lab.size, g.rows[:, 0].size):
                rows, cols, kind = lab[s], col[s], kinds[lab[s]]
                F = _factor(g.cross, np.take(values, g.rows[:, kind] * L
                                             + (g.cols[:, kind, cols] * L + rows)[:, :, None]))
                np.add.at(count, rows, (F != 0) * nz[rows, cols, None])
                np.add.at(out, rows, F * vec[rows, cols, None])
            vec, nz = out, count
        sums = vec.sum(axis=1)
    total = math.prod(math.factorial(level.X) for level in levels)
    first, error = L, None  # the first item that raises, and its error
    for k in np.flatnonzero(st.bad.any(axis=0) | ~np.isfinite(sums)):
        text = _a_pole(st, k) or _first_pole(st, k)
        try:
            if text:
                raise PoleError(text)
            require_finite(complex(sums[k]), "weight-function sum")
        except EllqgError as exc:
            first, error = k, exc
            break
    sums, pruned, out, lo = sums.tolist(), [total - n for n in nz.sum(axis=1).tolist()], [], 0
    for _, _, _, labels, _ in points:
        hi = lo + len(labels)
        if hi > first:
            return out + [error]
        out.append((sums[lo:hi], pruned[lo:hi], total))
        lo = hi
    return out


# Most items x ``_layout`` table entries one stack holds: a stack takes whole
# points while it stays within this, or one point that exceeds it alone.
_STACK_ENTRIES = 4096


def _stacks(points: list, modified: bool) -> list[list[int]]:
    """The point indices of each stack, ordered by their first: per shape (of
    a point's first label), the points in order, as many whole points per
    stack as fit ``_STACK_ENTRIES``."""
    shapes: dict = {}  # shape -> its points
    for p, (_, _, _, labels, _) in enumerate(points):
        shapes.setdefault(_label(labels[0])[0], []).append(p)
    out = []
    for lam, ps in shapes.items():
        entries, stack, items = _layout(lam, modified)[2].shape[1], [], 0
        for p in ps:
            size = len(points[p][3])
            if stack and (items + size) * entries > _STACK_ENTRIES:
                out.append(stack)
                stack, items = [], 0
            stack.append(p)
            items += size
        out.append(stack)
    return sorted(out)


def _outcomes(points: list, mp: ModularParams, modified: bool = False) -> list:
    """The outcomes of ``points`` in order, each (t, z, Pdyn, labels, perms)
    as in ``_stack``: per point its values, pruned term counts and terms (``_sums``),
    up to the first point with a label that raises, whose EllqgError ends the
    list.  The points are summed by ``in_order`` in the stacks of ``_stacks``
    (one point is its own), and a point of several labels whose own stack
    raises is replayed label by label; values and the error are those of the
    labels one by one."""
    def evaluate(group: list) -> list:
        try:
            return _sums(group, mp, modified)
        except EllqgError:
            t, z, Pdyn, labels, perms = group[0]
            if len(group) == 1 and len(labels) > 1:
                alone = in_order([(t, z, Pdyn, (I,), perms and perms[k:k + 1])
                                  for k, I in enumerate(labels)],
                                 [[k] for k in range(len(labels))], evaluate)
                if isinstance(alone[-1], EllqgError):
                    return alone[-1:]
            raise

    groups = [[0]] if len(points) == 1 else _stacks(points, modified)
    return in_order(points, groups, evaluate)


def _sym_sums(points: list, mp: ModularParams, modified: bool = False) -> list:
    """Each point's values, pruned term counts and terms (``_outcomes``), or
    the first error raised."""
    return settle(_outcomes(points, mp, modified))


def _evaluations(outcome: tuple) -> list[WeightFunctionEval]:
    """A WeightFunctionEval per label of a point from its (values, pruned, terms)."""
    values, pruned, terms = outcome
    return [WeightFunctionEval(value, terms, terms_pruned=n) for value, n in zip(values, pruned)]


def w_tilde(I: PartitionIndex, t: TVariables, z: EvaluationPoints,
            Pdyn: DynamicalParams, mp: ModularParams) -> WeightFunctionEval:
    """Weight function: plain sum of the term U_I over block permutations of t.

    U_I, per level l and slot a (site s = i^(l)_a, color mu_s, matched slot b
    at level l+1 with i^(l+1)_b = s, A = (P+h)_{mu_s,l+1} - C_{mu_s,l+1}(s)):

        [v'_b - v_a + A][1] / ([v'_b - v_a + 1][A])
        * prod_{b' : i^(l+1)_{b'} > s}  [v'_{b'} - v_a] / [v'_{b'} - v_a + 1]
        * prod_{a' > a}                 [v_a - v_{a'} - 1] / [v_a - v_{a'}]

    Summed by ``_sym_sums`` as a stack of one item, exactly-zero branches
    pruned (module docstring); a vanishing denominator raises PoleError.
    """
    return _evaluations(_sym_sums([(t, z, Pdyn, (I,), None)], mp)[0])[0]


def _specializations(points, z: EvaluationPoints) -> list:
    """The stack points of specialization points (at, Pdyn, labels): each
    its labels at t = z_at; checks the shapes and that z is distinct first."""
    points = list(points)
    lams: dict = {}  # labels -> their one shape or None, by identity within the call
    for at, _, labels in points:
        if id(labels) not in lams:
            shapes = {_label(I)[0] for I in labels}
            lams[id(labels)] = shapes.pop() if len(shapes) == 1 else None
        if lams[id(labels)] != at.shape():
            raise ShapeError("specialization point and label must share a shape")
    z.require_distinct()
    return [(TVariables.specialization(at, z), z, Pdyn, labels, None)
            for at, Pdyn, labels in points]


def specialize_points(points, z: EvaluationPoints, mp: ModularParams) -> list[list[complex]]:
    """Per point (at, Pdyn, labels), w_tilde of each label of the tuple
    ``labels`` at the specialization t = z_at of the shared z, zero unless
    at <= I; the labels of a point share its shape, and points may share one
    tuple.

    The points are summed by ``_sym_sums``, the labels of a point sharing its
    bracket arguments; if one raises, the first such label's error is
    raised, as evaluating the labels one by one would.  Each value is
    w_tilde's at t = z_at, by the same code: a term through a vanishing
    denominator (at resonant points z_j = q^(+-2) z_i) raises PoleError
    naming the bracket, even where the limit in z is finite.
    """
    return [outcome[0] for outcome in _sym_sums(_specializations(points, z), mp)]


def specialize_all(items, z: EvaluationPoints, mp: ModularParams) -> list[WeightFunctionEval]:
    """w_tilde of each (label I, point at, Pdyn) item at the specialization
    t = z_at of the shared z, each a WeightFunctionEval: ``specialize_points``
    with each run of items at one (at, Pdyn) a point."""
    points = [(at, Pdyn, tuple(I for I, _, _ in run))
              for (at, Pdyn), run in groupby(items, key=lambda item: item[1:])]
    return [res for outcome in _sym_sums(_specializations(points, z), mp)
            for res in _evaluations(outcome)]


def specialize(I: PartitionIndex, at: PartitionIndex, z: EvaluationPoints,
               Pdyn: DynamicalParams, mp: ModularParams) -> WeightFunctionEval:
    """w_tilde of label I at the specialization t = z_at (``specialize_all``)."""
    return specialize_all([(I, at, Pdyn)], z, mp)[0]


def diagonal_value(I: PartitionIndex, z: EvaluationPoints, mp: ModularParams) -> complex:
    """Closed product form of the diagonal specialization w_tilde_I(z_I):

    prod_{k<l} prod_{a in I_k} prod_{b in I_l, a<b} [u_b - u_a] / [u_b - u_a + 1].
    """
    z.require_q(mp.q)
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


def transition_residuals(cases, mp: ModularParams) -> list[list[float]]:
    """Per case (mu, t, z, Pdyn): |LHS - RHS| of the adjacent-swap transition
    identity at each position i = 1..n-1, in order.

    LHS: the weight function labeled by mu with colors i, i+1 swapped,
    evaluated at spectral points with z_i, z_{i+1} swapped.  RHS: the
    R-bar(z_i/z_{i+1}) weighted sum, with Pi shifted by
    -sum_{j>=i} of the color weights, of the unswapped-argument functions.
    The R entry used maps in-pair (mu'_i, mu'_{i+1}) [summed] to out-pair
    (mu_i, mu_{i+1}); this orientation is normative for the package.

    Every R-bar of the call comes from one ``rbars`` call, and every weight
    function is a label of one ``_sym_sums`` call, a case being a point and
    the swapped spectral points a site permutation of the label, so each value
    is bitwise the one ``w_tilde`` gives at ``z.swapped(i)``.  Items are taken
    in the order of the case-by-case, position-by-position evaluation (per i:
    LHS, then each RHS function whose R entry is nonzero, each item of a case
    once), and an error is the one that order meets first: a case's shape,
    the first raising item, or the R-bar of a position whose items before it
    evaluate.
    """
    points, terms, stop = _transition_items(cases, mp)
    w = [value for outcome in _sym_sums(points, mp) for value in outcome[0]]
    if stop is not None:  # met after every item before it evaluated
        raise stop
    return [[abs(w[lhs] - sum((coeff * w[k] for coeff, k in rhs), 0.0 + 0.0j))
             for lhs, rhs in case] for case in terms]


def _transition_items(cases, mp: ModularParams) -> tuple:
    """The stack points of ``transition_residuals``, one per case with an
    item, in order; per case and position the LHS item and the (R entry,
    item) pairs of the RHS, each item its place in the points' items; and
    the error that stops the order after those items (a case's shape or an
    R-bar), or None.  The R-bars are dropped once their entries are read."""
    cases, stop = [(tuple(mu), t, z, Pdyn) for mu, t, z, Pdyn in cases], None
    positions, requests = [], []  # per position of the cases before a bad one: (case, i), R-bar
    for c, (mu, _, z, Pdyn) in enumerate(cases):
        try:  # a site permutation must cover every spectral point
            if len(mu) != z.n:
                raise ShapeError(f"{len(mu)} colors need {len(mu)} spectral points, got {z.n}")
            if len(mu) > 1:
                PartitionIndex.from_colors(mu, Pdyn.N)
        except ShapeError as exc:
            cases, stop = cases[:c], exc
            break
        u = z.u
        positions += [(c, i) for i in range(1, len(mu))]
        requests += [(z.z[i - 1] / z.z[i], Pdyn.shifted_by_colors(mu[i - 1:], sign=-1),
                      u[i - 1] - u[i]) for i in range(1, len(mu))]
    Rs = rbars(requests, mp)
    if Rs and isinstance(Rs[-1], EllqgError):
        stop = Rs.pop()  # met after the LHS item of its position
    places: list = [{} for _ in cases]  # per case: (colors, perm) -> its item
    terms: list = [[] for _ in cases]
    items = 0

    def item(c, colors, perm=None) -> int:
        nonlocal items
        if (colors, perm) not in places[c]:
            places[c][colors, perm], items = items, items + 1
        return places[c][colors, perm]

    for n, (c, i) in enumerate(positions):
        mu = cases[c][0]
        swap = list(range(len(mu)))
        swap[i - 1], swap[i] = i, i - 1
        lhs = item(c, tuple(mu[s] for s in swap), tuple(swap))
        if n == len(Rs):  # this position's R-bar raises
            break
        out_pair, rhs = mu[i - 1:i + 1], []
        for cin in [out_pair] if mu[i - 1] == mu[i] else [out_pair, out_pair[::-1]]:
            coeff = Rs[n].entry(cin, out_pair)
            if coeff != 0:
                rhs.append((coeff, item(c, mu[:i - 1] + cin + mu[i + 1:])))
        terms[c].append((lhs, rhs))
    points, labels = [], {}  # labels: (colors, N) -> the label, one object for every case
    for (_, t, z, Pdyn), place in zip(cases, places):
        if place:
            for colors, _ in place:
                if (colors, Pdyn.N) not in labels:
                    labels[colors, Pdyn.N] = PartitionIndex.from_colors(colors, Pdyn.N)
            points.append((t, z, Pdyn, tuple(labels[colors, Pdyn.N] for colors, _ in place),
                           tuple(perm for _, perm in place)))
    return points, terms, stop


def h_lambda(lam: Composition, t: TVariables, z: EvaluationPoints,
             mp: ModularParams) -> complex:
    """H factor: prod_l prod_{a,b} [v^(l+1)_b - v^(l)_a + 1], a numerator (no pole test)."""
    vs = _vees(t, z, mp)
    args = [vb - va + 1.0 for l in range(1, lam.N) for va in vs[l - 1] for vb in vs[l]]
    with np.errstate(over="ignore", invalid="ignore"):  # beyond the float range: FloatRangeError
        return require_finite(complex(divisor_brackets(args, mp)[0][1:].prod()), "H factor")


def e_lambda(lam: Composition, t: TVariables, z: EvaluationPoints,
             mp: ModularParams) -> complex:
    """E factor: prod_l prod_{a,b} [v^(l)_b - v^(l)_a + 1], diagonal included.

    The double product runs over all (a, b) pairs of the same level, so each
    level contributes one [1] factor per variable.  This literal reading is
    the one under which the two modified-weight-function routes coincide.
    E divides: its first bracket that meets the pole test raises PoleError.
    """
    vs = _vees(t, z, mp)
    pairs = [(l, a, b) for l in range(1, lam.N)
             for a, b in product(range(len(vs[l - 1])), repeat=2)]
    br, pole = divisor_brackets([vs[l - 1][b] - vs[l - 1][a] + 1.0 for l, a, b in pairs], mp)
    if pole.any():
        l, a, b = pairs[pole.argmax() - 1]
        raise PoleError(f"[v^{l}_{b + 1} - v^{l}_{a + 1} + 1] vanished")
    with np.errstate(over="ignore", invalid="ignore"):
        return require_finite(complex(br[1:].prod()), "E factor")


def modified_w(I: PartitionIndex, t: TVariables, z: EvaluationPoints,
               Pdyn: DynamicalParams, mp: ModularParams,
               route: str = "ratio") -> complex:
    """Modified weight function, by either of two equivalent routes.

    route="ratio": H * w_tilde / E.  route="sym": plain symmetrization sum of
    the modified terms, by the same enumerator as w_tilde.  The two agree
    identically; both are kept as a cross check.  A value beyond the float
    range raises FloatRangeError.

    The modified term, per level l: the product over slots a of

        [v'_b - v_a + A] / [A]  (at the matched slot b)
        * prod_{b' : i'_{b'} > s} [v'_{b'} - v_a]
        * prod_{b' : i'_{b'} < s} [v'_{b'} - v_a + 1]

    divided by prod_{a<b} [v_a - v_b][v_b - v_a - 1].
    """
    if route == "ratio":
        lam = I.shape()
        wt = w_tilde(I, t, z, Pdyn, mp).value
        e = require_normal(e_lambda(lam, t, z, mp), "E factor")
        return require_finite(h_lambda(lam, t, z, mp) * wt / e, "modified weight function")
    if route == "sym":
        return _sym_sums([(t, z, Pdyn, (I,), None)], mp, modified=True)[0][0][0]
    raise ParameterError(f"unknown route {route!r}")


def _reversed_colors(I: PartitionIndex) -> PartitionIndex:
    return PartitionIndex.from_colors(tuple(reversed(I.colors())), I.N)


def _stab_columns(labels, Js, z: EvaluationPoints, Pdyn: DynamicalParams,
                  mp: ModularParams) -> list[list[complex]]:
    """Per fixed point J of ``Js``, the restrictions of the stable envelopes of
    ``labels`` to J, from one ``_outcomes`` call with each J a point of every
    label and one H and E factor per J; an error is the first that J by J
    meets."""
    if any(abs(a) >= abs(b) for a, b in zip(z.z, z.z[1:])):
        raise ParameterError("chamber requires |z_1| < ... < |z_n|")
    z_rev, P_inv = z.inverted_reversed(), Pdyn.inverted()
    rev = tuple(_reversed_colors(I) for I in labels)
    Js = [(J.shape(), _reversed_colors(J)) for J in Js]
    outcomes = _outcomes(_specializations([(J_rev, P_inv, rev) for _, J_rev in Js], z_rev), mp)
    cols = []
    for (lam, J_rev), outcome in zip(Js, outcomes):
        values = settle([outcome])[0][0]
        t = TVariables.specialization(J_rev, z_rev)
        e = require_normal(e_lambda(lam, t, z_rev, mp), "E factor")
        h = h_lambda(lam, t, z_rev, mp)
        cols.append([require_finite(h * wt / e, "stable envelope") for wt in values])
    return cols


def stable_envelope_restriction(I: PartitionIndex, J: PartitionIndex,
                                z: EvaluationPoints, Pdyn: DynamicalParams,
                                mp: ModularParams) -> complex:
    """Restriction of the stable envelope of fixed point I to fixed point J.

    Computed as the modified weight function with the longest-permutation
    reindexing: reversed color strings, reversed-and-inverted spectral
    points, inverted dynamical parameters, specialized at t = z_J^(-1).
    Only the chamber |z_1| < ... < |z_n| is implemented.
    """
    return _stab_columns([I], [J], z, Pdyn, mp)[0][0]


def stab_matrix(lam: Composition, z: EvaluationPoints, Pdyn: DynamicalParams,
                mp: ModularParams):
    """All stable-envelope restrictions for a shape, as a nested dict [I][J],
    from one ``_stab_columns`` call.

    This doubles as the numeric probe for orthogonality-type experiments:
    the diagonal-normalized Gram data can be formed from it, but no specific
    identity is asserted because the localization normalisation is left
    unspecified.
    """
    parts = enumerate_partitions(lam)
    cols = _stab_columns(parts, parts, z, Pdyn, mp)
    return {I: {J: col[k] for J, col in zip(parts, cols)} for k, I in enumerate(parts)}


def triangularity_violations(lam: Composition, z: EvaluationPoints,
                             Pdyn: DynamicalParams, mp: ModularParams) -> float:
    """Max |w_tilde_I(z_at)| over pairs with NOT at <= I (should be ~0), from
    one ``specialize_points`` call."""
    parts = enumerate_partitions(lam)
    points = [(at, Pdyn, tuple(I for I in parts if not leq(at, I))) for at in parts]
    worst = 0.0
    for values in specialize_points([point for point in points if point[2]], z, mp):
        for value in values:
            worst = np.maximum(worst, abs(value))
    return float(worst)
