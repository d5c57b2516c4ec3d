"""Level-0 evaluation representation and the Gelfand-Tsetlin basis action.

Everything here works at level 0, where the two nomes coincide (p* = p); the
ModularParams must have k = 0.  States are finite linear combinations of
standard basis vectors labeled by color strings; each term carries an exact
integer tag vector counting the accumulated dynamical shift operators, one
slot per simple root.

A tag tau makes every *later* power of a dynamical parameter see

    P_j  ->  P_j - sum_i A_{ji} tau_i        (A = Cartan matrix)

which is exactly what the exchange-relation checks exercise; running them
with the shift disabled is the package's negative control.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .ellfn import ModularParams, jacobi_bracket, bracket_derivative_at_zero, qpoch, theta
from .errors import ParameterError, PoleError, ShapeError
from .rmat import rbar
from .tensorspace import (Composition, DynamicalParams, EvaluationPoints,
                          PartitionIndex, color_weight, enumerate_partitions)
from .weightfn import specialize

PRUNE_TOL = 1e-14


def require_level_zero(mp: ModularParams) -> None:
    if mp.k != 0.0:
        raise ParameterError("the Gelfand-Tsetlin layer works at level 0 (k = 0)")


def cartan_matrix(N: int) -> np.ndarray:
    A = 2 * np.eye(N - 1, dtype=int)
    for i in range(N - 2):
        A[i, i + 1] = A[i + 1, i] = -1
    return A


def tag_p_offset(tau, N: int) -> tuple[int, ...]:
    """Integer offset of P induced by the tag vector: -A tau."""
    A = cartan_matrix(N)
    tau = np.asarray(tau, dtype=int)
    return tuple(int(x) for x in -(A @ tau))


def _unit_tag(j: int, N: int) -> tuple[int, ...]:
    return tuple(1 if i == j else 0 for i in range(1, N))


@dataclass
class TensorState:
    """Finite combination of standard basis vectors with per-term tags."""

    N: int
    terms: dict = field(default_factory=dict)  # colors -> (coeff, tau)

    def add(self, colors, coeff: complex, tau) -> None:
        colors = tuple(colors)
        tau = tuple(tau)
        old = self.terms.get(colors)
        if old is not None and old[1] != tau:
            raise ShapeError("conflicting tags on one basis vector")
        acc = coeff + (old[0] if old else 0.0)
        if abs(acc) < PRUNE_TOL:
            self.terms.pop(colors, None)
        else:
            self.terms[colors] = (acc, tau)

    def coefficient(self, colors) -> complex:
        entry = self.terms.get(tuple(colors))
        return entry[0] if entry else 0.0 + 0.0j

    def items_sorted(self):
        return sorted(self.terms.items())


@dataclass(frozen=True)
class CurrentTerm:
    """One delta-supported output of a current action."""

    site: int                    # support at z_site
    coeff: complex               # bracket product including the gauge constant
    target: PartitionIndex
    tag: tuple[int, ...]         # dynamical shift tag added by this action


@dataclass(frozen=True)
class CurrentActionResult:
    terms: tuple[CurrentTerm, ...]


def gauge_constants(mp: ModularParams) -> tuple[complex, complex]:
    """(a, a*) with a = 1; the product is -[0]'/((q - 1/q)[1])."""
    require_level_zero(mp)
    prod = -bracket_derivative_at_zero(mp) / (
        (mp.q - 1.0 / mp.q) * jacobi_bracket(1.0, mp))
    return 1.0 + 0.0j, prod


def eval_rep_single(op: str, j: int, z: complex, mp: ModularParams, N: int,
                    w: complex | None = None, m: int | None = None):
    """Single-site evaluation-representation matrix of one generator.

    op in {"e", "f", "phi+", "phi-", "alpha"}.  For "e"/"f" the delta factor
    is handled structurally: the returned matrix is the coefficient at the
    support point w = q^(j-N+1) z.  Returns (matrix, tag) where tag is the
    dynamical shift vector attached by the generator (all zeros for f and
    alpha).
    """
    require_level_zero(mp)
    if not 1 <= j <= N - 1:
        raise ShapeError(f"generator index must lie in 1..{N-1}")
    p, q = mp.p, mp.q
    M = np.zeros((N, N), dtype=complex)
    zero = (0,) * (N - 1)
    if op == "e":
        M[j - 1, j] = qpoch(p * q ** 2, p) / qpoch(p, p)
        return M, _unit_tag(j, N)
    if op == "f":
        M[j, j - 1] = qpoch(p * q ** -2, p) / qpoch(p, p)
        return M, zero
    if op == "alpha":
        if m is None or m == 0:
            raise ParameterError("alpha requires a nonzero mode index m")
        c = (q ** m - q ** -m) / (q - 1.0 / q) / m * (q ** (j - N + 1) * z) ** m
        M[j - 1, j - 1] = c * q ** -m
        M[j, j] = -c * q ** m
        return M, zero
    if op in ("phi+", "phi-"):
        if w is None:
            raise ParameterError("phi needs the current argument w")
        for col in range(1, N + 1):
            h = (1 if col == j else 0) - (1 if col == j + 1 else 0)
            if op == "phi+":
                den = theta(q ** (-j + N - 1) * w / z, p)
                num = theta(q ** (-j + N - 1 + 2 * h) * w / z, p)
                pref = q ** -h
            else:
                den = theta(q ** (j - N + 1) * z / w, p)
                num = theta(q ** (j - N + 1 - 2 * h) * z / w, p)
                pref = q ** h
            if den == 0:
                raise PoleError(f"theta ratio pole of the diagonal current at w={w}")
            M[col - 1, col - 1] = pref * num / den
        return M, _unit_tag(j, N)
    raise ParameterError(f"unknown generator {op!r}")


def lplus_tensor(w: complex, z: EvaluationPoints, Pdyn: DynamicalParams,
                 mp: ModularParams) -> np.ndarray:
    """Tensor action of the L+ operator row on slot 0 x chain, as a dense matrix.

    Ordered product of dynamically shifted R-bar factors: the factor tying
    slot 0 to chain slot i carries Pi* shifted by the weights of the colors
    in slots 1..i-1; factors apply in order i = 1, ..., n.  Basis index order
    is (slot0, slot1, ..., slotn), slot0 slowest.
    """
    require_level_zero(mp)
    N = Pdyn.N
    n = z.n
    dim = N ** (n + 1)
    uw = mp.u_of(w)
    mat = np.eye(dim, dtype=complex)
    for i in range(1, n + 1):
        F = np.zeros((dim, dim), dtype=complex)
        cache: dict = {}
        ui = z.u[i - 1] - uw
        for col in range(dim):
            digits = []
            c = col
            for _ in range(n + 1):
                digits.append(c % N + 1)
                c //= N
            digits.reverse()          # digits[0] = slot 0 color
            key = tuple(digits[1:i])  # spectator chain colors left of i
            if key not in cache:
                pd = Pdyn.shifted_by_colors(key, sign=1) if key else Pdyn
                cache[key] = rbar(z.z[i - 1] / w, pd, mp, starred=True, u=ui)
            R = cache[key]
            for (a2, b2), coeff in R.apply(digits[0], digits[i]):
                out = list(digits)
                out[0], out[i] = a2, b2
                row = 0
                for d in out:
                    row = row * N + (d - 1)
                F[row, col] += coeff
        mat = F @ mat
    return mat


def gt_vector(I: PartitionIndex, z: EvaluationPoints, Pdyn: DynamicalParams,
              mp: ModularParams) -> TensorState:
    """Gelfand-Tsetlin vector expanded over the standard basis.

    Coefficients are the weight functions specialized at the inverted
    spectral points, with the dynamical parameters shifted by the total
    weight of the color string; the expansion is triangular with respect to
    the partial order on partitions.
    """
    require_level_zero(mp)
    z.require_distinct()
    lam = I.shape()
    zinv = EvaluationPoints(tuple(1.0 / x for x in z.z), z.q)
    shifted = Pdyn.shifted_by_colors(I.colors(), sign=1)
    state = TensorState(N=lam.N)
    zero = (0,) * (lam.N - 1)
    for J in enumerate_partitions(lam):
        val = specialize(J, I, zinv, shifted, mp).value
        if abs(val) >= PRUNE_TOL:
            state.add(J.colors(), val, zero)
    return state


def phi_on_gt(j: int, v: complex, I: PartitionIndex, z: EvaluationPoints,
              mp: ModularParams, sign: int = +1):
    """Eigenvalue of the diagonal current on a GT vector, plus its tag.

    prod_{a in I_j} [u_a - v + 1]/[u_a - v] *
    prod_{b in I_{j+1}} [u_b - v - 1]/[u_b - v]

    The two expansion directions share this meromorphic value; ``sign`` is
    recorded metadata only and does not change the number.
    """
    require_level_zero(mp)
    if sign not in (+1, -1):
        raise ParameterError("sign must be +1 or -1")
    br = lambda x: jacobi_bracket(x, mp)
    u = z.u
    val = 1.0 + 0.0j
    for a in I.parts[j - 1]:
        den = br(u[a - 1] - v)
        if abs(den) < 1e-12:
            raise PoleError(f"[u_{a} - v] vanished")
        val *= br(u[a - 1] - v + 1.0) / den
    for b in I.parts[j]:
        den = br(u[b - 1] - v)
        if abs(den) < 1e-12:
            raise PoleError(f"[u_{b} - v] vanished")
        val *= br(u[b - 1] - v - 1.0) / den
    return val, _unit_tag(j, I.N)


def _move(I: PartitionIndex, i: int, src: int, dst: int) -> PartitionIndex:
    parts = [list(p) for p in I.parts]
    parts[src - 1].remove(i)
    parts[dst - 1] = sorted(parts[dst - 1] + [i])
    return PartitionIndex(tuple(tuple(p) for p in parts))


def e_on_gt(j: int, I: PartitionIndex, z: EvaluationPoints,
            mp: ModularParams) -> CurrentActionResult:
    """Raising current on a GT vector: supports at z_i for i in I_{j+1}.

    Coefficient a* prod_{k in I_{j+1}, k != i} [u_k - u_i + 1]/[u_k - u_i];
    the site i moves from I_{j+1} to I_j and the term is tagged with the
    shift of the j-th simple root.
    """
    require_level_zero(mp)
    z.require_distinct()
    _, astar = gauge_constants(mp)
    br = lambda x: jacobi_bracket(x, mp)
    u = z.u
    out = []
    for i in I.parts[j]:
        coeff = astar
        for k in I.parts[j]:
            if k == i:
                continue
            den = br(u[k - 1] - u[i - 1])
            if abs(den) < 1e-12:
                raise PoleError(f"[u_{k} - u_{i}] vanished")
            coeff *= br(u[k - 1] - u[i - 1] + 1.0) / den
        out.append(CurrentTerm(site=i, coeff=coeff,
                               target=_move(I, i, j + 1, j),
                               tag=_unit_tag(j, I.N)))
    return CurrentActionResult(terms=tuple(out))


def f_on_gt(j: int, I: PartitionIndex, z: EvaluationPoints,
            mp: ModularParams) -> CurrentActionResult:
    """Lowering current on a GT vector: supports at z_i for i in I_j.

    Coefficient a prod_{k in I_j, k != i} [u_i - u_k + 1]/[u_i - u_k]; the
    site i moves from I_j to I_{j+1}; no dynamical tag is attached.
    """
    require_level_zero(mp)
    z.require_distinct()
    a, _ = gauge_constants(mp)
    br = lambda x: jacobi_bracket(x, mp)
    u = z.u
    zero = (0,) * (I.N - 1)
    out = []
    for i in I.parts[j - 1]:
        coeff = a
        for k in I.parts[j - 1]:
            if k == i:
                continue
            den = br(u[i - 1] - u[k - 1])
            if abs(den) < 1e-12:
                raise PoleError(f"[u_{i} - u_{k}] vanished")
            coeff *= br(u[i - 1] - u[k - 1] + 1.0) / den
        out.append(CurrentTerm(site=i, coeff=coeff,
                               target=_move(I, i, j, j + 1), tag=zero))
    return CurrentActionResult(terms=tuple(out))


def _b_sym(i: int, j: int, N: int) -> int:
    """Symmetrized Cartan pairing b_{ij} for the A-type root system."""
    return int(cartan_matrix(N)[i - 1, j - 1])


def _small_power(site: int, j: int, shape: Composition, tau,
                 z: EvaluationPoints, Pdyn: DynamicalParams,
                 mp: ModularParams, current: str) -> complex:
    """Spectral-parameter power converting the bare action to the small current.

    e_j carries w^(+(P_j - 1)/r*) and f_j carries w^(-((P+h)_j - 1)/r), with
    P_j read through the accumulated tags and h_j from the current weight.
    The current argument at the support is w = q^(j-N+1) z_site (the
    generator-dependent rescaling of the evaluation representation), so the
    coherent additive coordinate is u_site + (j-N+1)/2.
    """
    N = Pdyn.N
    off = tag_p_offset(tau, N)[j - 1]
    pj = Pdyn.value(j, j + 1) + off
    uu = z.u[site - 1] + 0.5 * (j - N + 1)
    if current == "e":
        expo = (pj - 1.0) / mp.rstar
    else:
        hj = shape.sizes[j - 1] - shape.sizes[j]
        expo = -(pj + hj - 1.0) / mp.r
    return cmath.exp(2.0 * expo * uu * math.log(mp.q))


def exchange_check(j1: int, j2: int, I: PartitionIndex, z: EvaluationPoints,
                   Pdyn: DynamicalParams, mp: ModularParams,
                   current: str = "f", tag_shift: bool = True) -> float:
    """Residual of the two-current exchange relation at separated supports.

    Composes the current action twice and matches delta-coefficients of

        x theta(q^(+-b) y/x) X_{j1}(x) X_{j2}(y)
          = -y theta(q^(+-b) x/y) X_{j2}(y) X_{j1}(x)

    (+b and nome p* for raising currents, -b and nome p for lowering ones)
    over all support pairs and basis targets.  Residuals are normalized by
    the larger side.  ``tag_shift=False`` disables the dynamical-shift
    bookkeeping and is the negative control: with it the raising-current
    relation must fail.
    """
    require_level_zero(mp)
    if current not in ("e", "f"):
        raise ParameterError("current must be 'e' or 'f'")
    act = e_on_gt if current == "e" else f_on_gt
    N = Pdyn.N
    b12 = _b_sym(j1, j2, N)
    nome = mp.pstar if current == "e" else mp.p
    qb = mp.q ** (b12 if current == "e" else -b12)
    zero = (0,) * (N - 1)

    def composite(first_j: int, second_j: int):
        """(site_first, site_second, target colors) -> small-current coefficient."""
        table: dict = {}
        for t1 in act(first_j, I, z, mp).terms:
            pw1 = _small_power(t1.site, first_j, I.shape(), zero, z, Pdyn, mp, current)
            tau1 = t1.tag if tag_shift else zero
            for t2 in act(second_j, t1.target, z, mp).terms:
                if t2.site == t1.site:
                    continue
                pw2 = _small_power(t2.site, second_j, t1.target.shape(), tau1,
                                   z, Pdyn, mp, current)
                key = (t1.site, t2.site, t2.target.colors())
                table[key] = table.get(key, 0.0) + t1.coeff * pw1 * t2.coeff * pw2
        return table

    lhs_tab = composite(j2, j1)   # j2 acts first
    rhs_tab = composite(j1, j2)   # j1 acts first
    scale1 = mp.q ** (j1 - N + 1)
    scale2 = mp.q ** (j2 - N + 1)
    worst = 0.0
    for (sb, sa, target), val in lhs_tab.items():
        za = scale1 * z.z[sa - 1]   # true argument of the j1 current
        zb = scale2 * z.z[sb - 1]   # true argument of the j2 current
        L = za * theta(qb * zb / za, nome) * val
        R = -zb * theta(qb * za / zb, nome) * rhs_tab.get((sa, sb, target), 0.0)
        worst = max(worst, abs(L - R) / max(1.0, abs(L), abs(R)))
    return worst


def phi_move_ratio_check(j: int, I: PartitionIndex, z: EvaluationPoints,
                         v: complex, mp: ModularParams) -> float:
    """Shadow of the raising/diagonal compatibility: moving a site i from
    I_{j+1} to I_j multiplies the diagonal eigenvalue by
    [u_i - v + 1]/[u_i - v - 1].  Returns the worst relative mismatch."""
    require_level_zero(mp)
    br = lambda x: jacobi_bracket(x, mp)
    base, _ = phi_on_gt(j, v, I, z, mp)
    worst = 0.0
    for i in I.parts[j]:
        moved, _ = phi_on_gt(j, v, _move(I, i, j + 1, j), z, mp)
        ui = z.u[i - 1]
        predicted = base * br(ui - v + 1.0) / br(ui - v - 1.0)
        worst = max(worst, abs(moved - predicted) / max(1.0, abs(moved)))
    return worst
