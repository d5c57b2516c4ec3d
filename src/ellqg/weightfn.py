"""Elliptic weight functions, their modified form, and stable envelopes.

A weight function is a symmetrized product of theta-bracket ratios indexed
by a partition I.  ``Sym`` is the plain sum over permutations of each
integration-variable block, with no 1/lambda! prefactor; this normalisation
is the one that reproduces the closed-form diagonal value and is asserted by
the tests.

Brackets are always the unstarred [.] built on the nome carried by the
ModularParams argument (so substituting a different nome, as the q-KZ cycle
insertion does, is just a parameter change).

Every symmetrized sum is one chain of per-level matrices: the level-l factor
F_l[p, p'] of the terms whose level-l and level-(l+1) variables are in the
orders p and p' is gathered from tables of bracket ratios with index arrays
cached per slot pattern, and the sum is F_1 @ ... @ F_{N-1}[:, id] summed;
``u_tilde``/``u_mod`` are the identity entries.  ``_sym_sums`` evaluates
the labels of a call as one stack (one for ``w_tilde``, every label at
t = z_at for ``specialize_labels``): the bracket arguments are only the
O(n^2) values v_x - v_y + c, c in {0, +-1, A}, so one ``jacobi_brackets``
pass gives every label's tables, and per level the labels that share a slot
pattern gather their entries in one index operation.  A column of a label's
F_l whose every term already has an exactly-zero factor (as at t = z_J) is
not gathered and its terms count as pruned, unless the label is a u_mod sum
or has a denominator of levels 1..N-2 that meets the pole test
``ellfn.pole_tol`` (the level-(N-1) factor is always evaluated whole).  A
term through a vanishing denominator raises PoleError, at a specialization
t = z_at as anywhere else: at resonant points z_j = q^(+-2) z_i a
specialization with a finite limit in z raises rather than returning a value.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache, reduce
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


@lru_cache(maxsize=64)
def _layout(lam: Composition, modified: bool) -> tuple:
    """Where each bracket and table entry of the terms of every label of shape
    ``lam`` comes from: (levels, args, ratio).

    Variables are numbered level by level (level N is z), then a spare 0;
    constants are 0, 1, -1, then the A of each slot in ``_label``'s order.
    Bracket b is [v_i - v_j + const_c] with (i, j, c) = args[:, b]: [1] and
    [A_a] first, then per level l [v'_y - v_x], [v'_y - v_x + 1],
    [v'_y - v_x + A_a] per slot a, [v_x - v_x'] and [v_x - v_x' - 1].  Entry
    e of the tables is [n1][n2] / ([d1][d2]) with brackets (n1, n2, d1, d2) =
    ratio[:, e] (-1: an exact 1), laid out per level as ``_gather`` reads
    them; levels holds per level (its size, size of level l+1, first and end
    entries).
    """
    sizes = [lam.prefix(l) for l in range(1, lam.N + 1)]
    start = np.cumsum([0] + sizes)
    spare, one = start[-1], -1
    args, ratio, levels = [], [], []

    def put(i, j, c):
        """Brackets [v_i - v_j + const_c] (broadcast); returns their indices."""
        i, j, c = np.broadcast_arrays(i, j, c)
        first = sum(x.shape[1] for x in args)
        args.append(np.stack([i.ravel(), j.ravel(), c.ravel()]))
        return first + np.arange(i.size).reshape(i.shape)

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
        levels.append((X, Y, lo, lo + X * X * Y + 2 * X * Y + X * X))
    args, ratio = np.concatenate(args, axis=1), np.concatenate(ratio, axis=1)
    args.flags.writeable = ratio.flags.writeable = False
    return tuple(levels), args, ratio


# Holds every label of a shape ((3,3,2) has 560): gt_vector specializes all of
# them at each I, in one order, so a smaller cache evicts each before its reuse.
@lru_cache(maxsize=4096)
def _label(I: PartitionIndex) -> tuple:
    """Label I's shape, slot pattern per level (per slot a: matched slot b, later
    slots of level l+1) and, per slot in ``_layout``'s order, (level, slot,
    color, C_{mu_s,l+1}(s) = #(j > s : mu_j = mu_s) - #(j > s : mu_j = l+1))."""
    lam, colors = I.shape(), I.colors()
    patterns, slots = [], []
    for l in range(1, lam.N):
        nxt = I.union(l + 1)
        patterns.append(tuple((nxt.index(s), tuple(b for b, s2 in enumerate(nxt) if s2 > s))
                              for s in I.union(l)))
        slots += [(l, a + 1, colors[s - 1], sum(eps_pairing(colors[j], colors[s - 1], l + 1)
                                                for j in range(s, len(colors))))
                  for a, s in enumerate(I.union(l))]
    return lam, tuple(patterns), tuple(slots)


class _Gather(NamedTuple):
    """Index arrays that gather a level factor F[p, p'] from its tables: factor
    k of entry (p, p') is table entry ``rows[k, p] + cols[k, p']``, the first
    ``cross`` cross-level ratios, then the same-level ones.  ``terms`` lists
    (k, cross?, a, j) per ratio of slot a and slot j of level l+1 or of level
    l, in the order its denominators are tested in."""

    rows: np.ndarray
    cols: np.ndarray
    cross: int
    terms: tuple


@lru_cache(maxsize=256)
def _gather(modified: bool, pattern: tuple, Y: int, top: bool, lo: int) -> _Gather:
    """Index arrays of one level whose tables start at entry ``lo``, cached by
    the integer slot pattern.  Rows run over every order of the level
    (identity first), columns over every order of level l+1, or only its
    identity at the top level.  Tables (X slots, Y variables at level l+1, row
    x is v_x): the matched-slot ratio of each slot a (X tables, X x Y), the
    later-slot ratio (X x Y), the earlier-slot factor of u_mod (X x Y, unused
    by u_tilde), then the same-level ratio (X x X)."""
    X = len(pattern)
    rows = np.array(list(permutations(range(X))), dtype=np.intp)
    cols = np.arange(Y)[None] if top else np.array(list(permutations(range(Y))), dtype=np.intp)
    off_later, off_earlier, off_same = (lo + X * X * Y + k * X * Y for k in range(3))
    cross, same, terms = [], [], []  # per factor: its rows, its columns
    for a, (b, later) in enumerate(pattern):
        slot = [(lo + a * X * Y, b)] + [(off_later, bp) for bp in later]
        if modified:
            slot += [(off_earlier, bp) for bp in range(Y) if bp != b and bp not in later]
        terms += [(len(cross) + k, True, a, j) for k, (_, j) in enumerate(slot)]
        terms += [(len(same) + k, False, a, a + 1 + k) for k in range(X - a - 1)]
        cross += [(off + rows[:, a] * Y, cols[:, j]) for off, j in slot]
        same += [(off_same + rows[:, a] * X + rows[:, ap], 0 * cols[:, 0])
                 for ap in range(a + 1, X)]
    out = _Gather(np.array([r for r, _ in cross + same], np.intp).reshape(-1, len(rows)),
                  np.array([c for _, c in cross + same], np.intp).reshape(-1, len(cols)),
                  len(cross), tuple((k if c else len(cross) + k, c, a, j) for k, c, a, j in terms))
    out.rows.flags.writeable = out.cols.flags.writeable = False
    return out


class _Stack(NamedTuple):
    """The factor tables of a stack of labels of one shape, one row per label."""

    modified: bool
    levels: tuple       # per level, as ``_layout``'s
    patterns: tuple     # per label: its slot pattern of each level
    values: np.ndarray  # (labels, entries): the ratios, laid out by ``_layout``
    bad: np.ndarray     # (entries, labels): a denominator meets the pole test
    a_pole: dict        # label -> the PoleError text of its vanishing [A]


def _stack(labels: list, t: TVariables, z: EvaluationPoints, Pdyn: DynamicalParams,
           mp: ModularParams, modified: bool) -> _Stack:
    """The factor tables of the labels' u_tilde (with ``modified``, u_mod) terms
    at t, from one ``jacobi_brackets`` call, over the distinct arguments of a
    stack of several (a constant is keyed by its formula, so equal keys are the
    same operations on the same values); [A] divides every term and is tested
    here, against [1]."""
    lam, patterns, slots = zip(*map(_label, labels))
    t.check_shape(lam[0])
    levels, (i, j, c), ratio = _layout(lam[0], modified)
    v = np.array([x for level in _vees(t, z, mp) for x in level] + [0.0], dtype=complex)
    ids = {0: 0, 1: 1, 2: 2}  # constant keys: 0, 1, -1 by place, a slot's A by (l, color, C)
    cids = np.array([[0, 1, 2] + [ids.setdefault((l, color, C), len(ids))
                                  for l, _, color, C in sl] for sl in slots])
    const = np.array([0.0, 1.0, -1.0] + [Pdyn.value(color, l + 1) - C
                                         for l, color, C in list(ids)[3:]], dtype=complex)
    c = cids.T[c]  # (brackets, labels)
    args = (v[i] - v[j])[:, None] + const[c]  # equal keys, bitwise equal arguments
    br = np.ones((len(i) + 1, len(labels)), complex)  # the last row: an exact 1
    if len(labels) > 1:  # each distinct argument once
        keys = ((i * v.size + j) * len(ids))[:, None] + c
        rank = (np.cumsum(np.bincount(keys.ravel()) > 0) - 1)[keys]  # place among the keys
        distinct = np.empty(rank.max() + 1, dtype=complex)
        distinct[rank] = args
        br[:-1] = jacobi_brackets(distinct, mp)[rank]
    else:
        br[:-1, 0] = jacobi_brackets(args[:, 0], mp)
    small = np.abs(br) < pole_tol(br[0, 0])
    small[-1] = False
    a_small = small[1:1 + len(slots[0])]
    a_pole = {k: "[(P+h) - C] vanished at level {}, slot {}".format(
        *slots[k][a_small[:, k].argmax()][:2]) for k in np.flatnonzero(a_small.any(axis=0))}
    n1, n2, d1, d2 = br[ratio]
    bad = small[ratio[2]] | small[ratio[3]]
    values = n1 * n2 / np.where(bad, 1.0, d1 * d2)
    return _Stack(modified, levels, patterns, values.T.copy(), bad, a_pole)


def _label_levels(st: _Stack, k: int) -> list:
    """Per level l of label k of a stack: (l, ``_gather``, table values, flags)."""
    return [(l, _gather(st.modified, p, Y, l == len(st.levels), lo), st.values[k], st.bad[:, k])
            for l, ((_, Y, lo, _), p) in enumerate(zip(st.levels, st.patterns[k]), 1)]


def _pole_message(l: int, bad: np.ndarray, modified: bool, g: _Gather, p: int, pn: int) -> str:
    """The PoleError text of the first vanishing denominator of F_l[p, pn]."""
    for k, is_cross, a, j in g.terms:
        if bad[g.rows[k, p] + g.cols[k, pn]]:
            if modified:
                return f"level-{l} denominator vanished"
            if is_cross:
                return f"[v^{l+1}_{j+1} - v^{l}_{a+1} + 1] vanished"
            return f"[v^{l}_{a+1} - v^{l}_{j+1}] vanished"
    raise AssertionError("no vanishing denominator in a marked entry")


def _first_pole(st: _Stack, k: int) -> str | None:
    """The PoleError text of label k's first term, in depth-first order (top level
    slowest), that uses a vanishing denominator, or None if none does."""
    levels = _label_levels(st, k)
    marks = [bad[g.rows[:, :, None] + g.cols[:, None]].any(axis=0)  # F_l[p, p'] uses a flag
             for _, g, _, bad in levels]
    if not any(m.any() for m in marks):
        return None
    for idx in product(*(range(g.rows.shape[1]) for _, g, _, _ in reversed(levels))):
        path = idx[::-1] + (0,)
        hit = [l for l, m in enumerate(marks, 1) if m[path[l - 1], path[l]]]
        if hit:  # the walk meets the highest marked level of this term first
            l, g, _, bad = levels[hit[-1] - 1]
            return _pole_message(l, bad, st.modified, g, path[l - 1], path[l])


def _identity_term(I: PartitionIndex, t: TVariables, z: EvaluationPoints,
                   Pdyn: DynamicalParams, mp: ModularParams, modified: bool) -> complex:
    """The unpermuted term of label I, prod_l F_l[id, id], from a stack of one
    label; levels are tested from 1 up."""
    st = _stack([I], t, z, Pdyn, mp, modified)
    if st.a_pole:
        raise PoleError(st.a_pole[0])
    total = 1.0 + 0.0j
    for l, g, values, bad in _label_levels(st, 0):
        entries = g.rows[:, 0] + g.cols[:, 0]
        if bad[entries].any():
            raise PoleError(_pole_message(l, bad, modified, g, 0, 0))
        with np.errstate(over="ignore", invalid="ignore"):  # require_finite raises
            total *= complex(values[entries[:g.cross]].prod() * values[entries[g.cross:]].prod())
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
    return _identity_term(I, t, z, Pdyn, mp, modified=False)


def _sym_sums(labels: list, t: TVariables, z: EvaluationPoints, Pdyn: DynamicalParams,
              mp: ModularParams, modified: bool = False) -> list[WeightFunctionEval]:
    """Each label's plain sum of its u_tilde (u_mod) terms over block
    permutations, the labels as one stack (module docstring).  Then, label by
    label in order, a vanishing [A], a term through a vanishing denominator
    (the PoleError the depth-first order of terms meets first) and a sum
    beyond the float range (FloatRangeError) raise.  If the shared bracket
    call raises, each label makes its own, so the first label's error is
    raised."""
    try:
        st = _stack(labels, t, z, Pdyn, mp, modified)
    except EllqgError:
        if len(labels) == 1:
            raise
        return [_sym_sums([I], t, z, Pdyn, mp, modified)[0] for I in labels]
    levels, L = st.levels, len(labels)
    values, width = st.values.ravel(), st.values.shape[1]  # label-major
    groups: list = [{} for _ in levels]  # per level: the labels by slot pattern
    for k, patterns in enumerate(st.patterns):
        for group, pattern in zip(groups, patterns):
            group.setdefault(pattern, []).append(k)

    def factor(l, pattern, rows, col):
        """F_l[:, col[m]] of label rows[m]; elementwise products, since numpy rounds
        a one-element reduction otherwise and no value may depend on its stack."""
        g = _gather(modified, pattern, levels[l - 1][1], l == len(levels), levels[l - 1][2])
        f = np.take(values, g.rows[:, None] + (g.cols[:, col] + rows * width)[:, :, None])
        one = np.ones(f.shape[1:], complex)
        return reduce(np.multiply, f[:g.cross], one) * reduce(np.multiply, f[g.cross:], one)

    # A product beyond the float range raises FloatRangeError below.
    with np.errstate(over="ignore", invalid="ignore"):
        vec = np.empty((L, math.factorial(levels[-1][0])), complex)  # F_{N-1}[:, id]
        for pattern, ks in groups[-1].items():  # the top level has one column
            ks = np.array(ks)
            vec[ks] = factor(len(levels), pattern, ks, slice(None))
        nz = vec != 0  # per order: the number of its terms without an exactly-zero factor
        unpruned = st.bad[:levels[-1][2]].any(axis=0) | modified  # flags at levels 1..N-2
        for l in range(len(levels) - 1, 0, -1):  # vec[k] = F_l @ vec[k] over the live columns
            live = (nz != 0) | unpruned[:, None]
            out, count = (np.zeros((L, math.factorial(levels[l - 1][0])), dtype)
                          for dtype in (complex, np.intp))
            for pattern, ks in groups[l - 1].items():
                lab, col = live[ks].nonzero()
                rows = np.array(ks)[lab]
                F = factor(l, pattern, rows, col)
                np.add.at(count, rows, (F != 0) * nz[rows, col, None])
                np.add.at(out, rows, F * vec[rows, col, None])
            vec, nz = out, count
        sums = vec.sum(axis=1)
    total = math.prod(math.factorial(X) for X, *_ in levels)
    for k in np.flatnonzero(st.bad.any(axis=0) | ~np.isfinite(sums)):
        error = st.a_pole.get(k) or _first_pole(st, k)
        if error:
            raise PoleError(error)
        require_finite(complex(sums[k]), "weight-function sum")
    return [WeightFunctionEval(value, total, terms_pruned=0 if u else total - n)
            for value, n, u in zip(sums.tolist(), nz.sum(axis=1).tolist(), unpruned.tolist())]


def w_tilde(I: PartitionIndex, t: TVariables, z: EvaluationPoints,
            Pdyn: DynamicalParams, mp: ModularParams) -> WeightFunctionEval:
    """Weight function: plain sum of u_tilde over block permutations of t.

    Summed by ``_sym_sums`` as a stack of one label, exactly-zero branches
    pruned (module docstring); a vanishing denominator raises PoleError.
    """
    return _sym_sums([I], t, z, Pdyn, mp)[0]


def specialize_labels(labels, at: PartitionIndex, z: EvaluationPoints,
                      Pdyn: DynamicalParams, mp: ModularParams) -> list[WeightFunctionEval]:
    """w_tilde of each label I at the specialization t = z_at, zero unless at <= I.

    The labels are summed as one stack (``_sym_sums``); if one raises, the
    first such label's error is raised.  Each value is w_tilde's at t = z_at,
    by the same code: a term through a vanishing denominator (at resonant
    points z_j = q^(+-2) z_i) raises PoleError naming the bracket, even where
    the limit in z is finite.
    """
    labels, shape = list(labels), at.shape()
    if any(_label(I)[0] != shape for I in labels):
        raise ShapeError("specialization point and label must share a shape")
    z.require_distinct()
    return _sym_sums(labels, TVariables.specialization(at, z), z, Pdyn, mp) if labels else []


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


def _bracket_product(args, mp: ModularParams, label: str) -> complex:
    """prod [x] over args from one bracket call; beyond the float range it
    raises FloatRangeError."""
    with np.errstate(over="ignore", invalid="ignore"):
        return require_finite(complex(jacobi_brackets(args, mp).prod()), label)


def h_lambda(lam: Composition, t: TVariables, z: EvaluationPoints,
             mp: ModularParams) -> complex:
    """H factor: prod_l prod_{a,b} [v^(l+1)_b - v^(l)_a + 1]."""
    vs = _vees(t, z, mp)
    args = [vb - va + 1.0 for l in range(1, lam.N) for va in vs[l - 1] for vb in vs[l]]
    return _bracket_product(args, mp, "H factor")


def e_lambda(lam: Composition, t: TVariables, z: EvaluationPoints,
             mp: ModularParams) -> complex:
    """E factor: prod_l prod_{a,b} [v^(l)_b - v^(l)_a + 1], diagonal included.

    The double product runs over all (a, b) pairs of the same level, so each
    level contributes one [1] factor per variable.  This literal reading is
    the one under which the two modified-weight-function routes coincide.
    """
    vs = _vees(t, z, mp)
    args = [vb - va + 1.0 for l in range(1, lam.N) for va in vs[l - 1] for vb in vs[l - 1]]
    return _bracket_product(args, mp, "E factor")


def u_mod(I: PartitionIndex, t: TVariables, z: EvaluationPoints,
          Pdyn: DynamicalParams, mp: ModularParams) -> complex:
    """Pre-symmetrization term of the modified weight function.

    Per level l: the product over slots a of

        [v'_b - v_a + A] / [A]  (at the matched slot b)
        * prod_{b' : i'_{b'} > s} [v'_{b'} - v_a]
        * prod_{b' : i'_{b'} < s} [v'_{b'} - v_a + 1]

    divided by prod_{a<b} [v_a - v_b][v_b - v_a - 1].
    """
    return _identity_term(I, t, z, Pdyn, mp, modified=True)


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
        return _sym_sums([I], t, z, Pdyn, mp, modified=True)[0].value
    raise ParameterError(f"unknown route {route!r}")


def _reversed_colors(I: PartitionIndex) -> PartitionIndex:
    return PartitionIndex.from_colors(tuple(reversed(I.colors())), I.N)


def _stab_column(labels, J: PartitionIndex, z: EvaluationPoints, Pdyn: DynamicalParams,
                 mp: ModularParams) -> list[complex]:
    """The restrictions of the stable envelopes of ``labels`` to fixed point J,
    from one ``specialize_labels`` call and one H and E factor."""
    if any(abs(a) >= abs(b) for a, b in zip(z.z, z.z[1:])):
        raise ParameterError("chamber requires |z_1| < ... < |z_n|")
    lam = J.shape()
    J_rev, z_rev = _reversed_colors(J), z.inverted_reversed()
    t = TVariables.specialization(J_rev, z_rev)
    wts = specialize_labels([_reversed_colors(I) for I in labels], J_rev, z_rev,
                            Pdyn.inverted(), mp)
    e = require_normal(e_lambda(lam, t, z_rev, mp), "E factor")
    h = h_lambda(lam, t, z_rev, mp)
    return [require_finite(h * wt.value / e, "stable envelope") for wt in wts]


def stable_envelope_restriction(I: PartitionIndex, J: PartitionIndex,
                                z: EvaluationPoints, Pdyn: DynamicalParams,
                                mp: ModularParams) -> complex:
    """Restriction of the stable envelope of fixed point I to fixed point J.

    Computed as the modified weight function with the longest-permutation
    reindexing: reversed color strings, reversed-and-inverted spectral
    points, inverted dynamical parameters, specialized at t = z_J^(-1).
    Only the chamber |z_1| < ... < |z_n| is implemented.
    """
    return _stab_column([I], J, z, Pdyn, mp)[0]


def stab_matrix(lam: Composition, z: EvaluationPoints, Pdyn: DynamicalParams,
                mp: ModularParams):
    """All stable-envelope restrictions for a shape, as a nested dict [I][J],
    one ``specialize_labels`` call per column J.

    This doubles as the numeric probe for orthogonality-type experiments:
    the diagonal-normalized Gram data can be formed from it, but no specific
    identity is asserted because the localization normalisation is left
    unspecified.
    """
    parts = enumerate_partitions(lam)
    cols = {J: _stab_column(parts, J, z, Pdyn, mp) for J in parts}
    return {I: {J: cols[J][k] for J in parts} for k, I in enumerate(parts)}


def triangularity_violations(lam: Composition, z: EvaluationPoints,
                             Pdyn: DynamicalParams, mp: ModularParams) -> float:
    """Max |w_tilde_I(z_at)| over pairs with NOT at <= I (should be ~0)."""
    parts = enumerate_partitions(lam)
    worst = 0.0
    for at in parts:
        for res in specialize_labels([I for I in parts if not leq(at, I)], at, z, Pdyn, mp):
            worst = np.maximum(worst, abs(res.value))
    return float(worst)
