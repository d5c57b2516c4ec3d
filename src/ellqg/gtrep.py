"""The level-0 Gelfand-Tsetlin basis and the current action on it.

Everything here works at level 0, where the two nomes coincide (p* = p); the
ModularParams must have k = 0.  A GT vector is a finite linear combination of
standard basis vectors labeled by color strings.  Each term of a current
action carries an exact integer tag vector counting the dynamical shift
operators it adds, one slot per simple root.

A tag tau makes every *later* power of a dynamical parameter see

    P_j  ->  P_j - sum_i A_{ji} tau_i        (A = Cartan matrix)

which is exactly what the exchange-relation checks exercise; running them
with the shift disabled is the package's negative control.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .ellfn import (ModularParams, bracket_derivative_at_zero, jacobi_bracket,
                    jacobi_brackets, pole_tol, require_normal, theta)
from .errors import FloatRangeError, ParameterError, PoleError
from .tensorspace import (Composition, DynamicalParams, EvaluationPoints,
                          PartitionIndex, enumerate_partitions)
from .weightfn import specialize_labels


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


@dataclass(frozen=True)
class TensorState:
    """Finite combination of standard basis vectors."""

    terms: dict  # colors -> nonzero coeff

    def coefficient(self, colors) -> complex:
        return self.terms.get(tuple(colors), 0.0 + 0.0j)

    def items_sorted(self):
        return sorted(self.terms.items())


@dataclass(frozen=True)
class CurrentTerm:
    """One delta-supported output of a current action."""

    site: int                    # support at z_site
    coeff: complex               # bracket product including the gauge constant
    target: PartitionIndex
    tag: tuple[int, ...]         # dynamical shift tag added by this action


def gauge_constants(mp: ModularParams) -> tuple[complex, complex]:
    """(a, a*) with a = 1; the product is -[0]'/((q - 1/q)[1])."""
    require_level_zero(mp)
    prod = -bracket_derivative_at_zero(mp) / (
        (mp.q - 1.0 / mp.q) * require_normal(jacobi_bracket(1.0, mp), "[1]"))
    return 1.0 + 0.0j, prod


def gt_vector(I: PartitionIndex, z: EvaluationPoints, Pdyn: DynamicalParams,
              mp: ModularParams) -> TensorState:
    """Gelfand-Tsetlin vector expanded over the standard basis.

    Coefficients are the weight functions specialized at the inverted
    spectral points, with the dynamical parameters shifted by the total
    weight of the color string; the expansion is triangular with respect to
    the partial order on partitions.  Exactly-zero coefficients are left out;
    every other one is kept, however small.
    """
    require_level_zero(mp)
    z.require_distinct()
    zinv = EvaluationPoints(tuple(1.0 / x for x in z.z), z.q)
    shifted = Pdyn.shifted_by_colors(I.colors(), sign=1)
    labels = enumerate_partitions(I.shape())
    return TensorState({J.colors(): res.value for J, res in
                        zip(labels, specialize_labels(labels, I, zinv, shifted, mp))
                        if res.value != 0})


def _bracket_ratios(val: complex, factors, mp: ModularParams) -> complex:
    """val * prod [x + c]/[x] over (x, c, label) in order, all brackets and [1]
    in one ``jacobi_brackets`` call; PoleError names the first [x] that meets
    the pole test ``pole_tol``."""
    x, c = (np.array([f[k] for f in factors], dtype=complex) for k in (0, 1))
    try:
        br = jacobi_brackets(np.concatenate(([1.0], x, x + c)), mp).tolist()
    except FloatRangeError:     # the pole test reads [1] first: an underflow of it wins
        pole_tol(jacobi_brackets([1.0], mp)[0])
        raise
    tol = pole_tol(br[0])
    for (_, _, label), den, num in zip(factors, br[1:], br[1 + len(factors):]):
        if abs(den) < tol:
            raise PoleError(f"[{label}] vanished")
        val *= num / den
    return val


def phi_on_gt(j: int, v: complex, I: PartitionIndex, z: EvaluationPoints,
              mp: ModularParams):
    """Eigenvalue of the diagonal current on a GT vector, plus its tag.

    prod_{a in I_j} [u_a - v + 1]/[u_a - v] *
    prod_{b in I_{j+1}} [u_b - v - 1]/[u_b - v]

    The two expansion directions share this meromorphic value.
    """
    require_level_zero(mp)
    u = z.u
    factors = ([(u[a - 1] - v, 1.0, f"u_{a} - v") for a in I.parts[j - 1]]
               + [(u[b - 1] - v, -1.0, f"u_{b} - v") for b in I.parts[j]])
    return _bracket_ratios(1.0 + 0.0j, factors, mp), _unit_tag(j, I.N)


def _move(I: PartitionIndex, i: int, src: int, dst: int) -> PartitionIndex:
    parts = [list(p) for p in I.parts]
    parts[src - 1].remove(i)
    parts[dst - 1] = sorted(parts[dst - 1] + [i])
    return PartitionIndex(tuple(tuple(p) for p in parts))


def e_on_gt(j: int, I: PartitionIndex, z: EvaluationPoints,
            mp: ModularParams) -> tuple[CurrentTerm, ...]:
    """Raising current on a GT vector: supports at z_i for i in I_{j+1}.

    Coefficient a* prod_{k in I_{j+1}, k != i} [u_k - u_i + 1]/[u_k - u_i];
    the site i moves from I_{j+1} to I_j and the term is tagged with the
    shift of the j-th simple root.
    """
    require_level_zero(mp)
    z.require_distinct()
    _, astar = gauge_constants(mp)
    u = z.u
    out = []
    for i in I.parts[j]:
        coeff = _bracket_ratios(astar, [(u[k - 1] - u[i - 1], 1.0, f"u_{k} - u_{i}")
                                        for k in I.parts[j] if k != i], mp)
        out.append(CurrentTerm(site=i, coeff=coeff,
                               target=_move(I, i, j + 1, j),
                               tag=_unit_tag(j, I.N)))
    return tuple(out)


def f_on_gt(j: int, I: PartitionIndex, z: EvaluationPoints,
            mp: ModularParams) -> tuple[CurrentTerm, ...]:
    """Lowering current on a GT vector: supports at z_i for i in I_j.

    Coefficient a prod_{k in I_j, k != i} [u_i - u_k + 1]/[u_i - u_k]; the
    site i moves from I_j to I_{j+1}; no dynamical tag is attached.
    """
    require_level_zero(mp)
    z.require_distinct()
    a, _ = gauge_constants(mp)
    u = z.u
    zero = (0,) * (I.N - 1)
    out = []
    for i in I.parts[j - 1]:
        coeff = _bracket_ratios(a, [(u[i - 1] - u[k - 1], 1.0, f"u_{i} - u_{k}")
                                    for k in I.parts[j - 1] if k != i], mp)
        out.append(CurrentTerm(site=i, coeff=coeff,
                               target=_move(I, i, j, j + 1), tag=zero))
    return tuple(out)


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
    b12 = int(cartan_matrix(N)[j1 - 1, j2 - 1])     # type A: symmetrized = Cartan
    nome = mp.pstar if current == "e" else mp.p
    qb = mp.q ** (b12 if current == "e" else -b12)
    zero = (0,) * (N - 1)

    def composite(first_j: int, second_j: int):
        """(site_first, site_second, target colors) -> small-current coefficient."""
        table: dict = {}
        for t1 in act(first_j, I, z, mp):
            pw1 = _small_power(t1.site, first_j, I.shape(), zero, z, Pdyn, mp, current)
            tau1 = t1.tag if tag_shift else zero
            for t2 in act(second_j, t1.target, z, mp):
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
        L = za * theta(qb * zb / za, nome, **mp.truncation) * val
        R = (-zb * theta(qb * za / zb, nome, **mp.truncation)
             * rhs_tab.get((sa, sb, target), 0.0))
        worst = np.maximum(worst, abs(L - R) / max(1.0, abs(L), abs(R)))
    return float(worst)


def phi_move_ratio_check(j: int, I: PartitionIndex, z: EvaluationPoints,
                         v: complex, mp: ModularParams) -> float:
    """Shadow of the raising/diagonal compatibility: moving a site i from
    I_{j+1} to I_j multiplies the diagonal eigenvalue by
    [u_i - v + 1]/[u_i - v - 1].  Returns the worst relative mismatch."""
    require_level_zero(mp)
    base, _ = phi_on_gt(j, v, I, z, mp)
    worst = 0.0
    for i in I.parts[j]:
        moved, _ = phi_on_gt(j, v, _move(I, i, j + 1, j), z, mp)
        predicted = _bracket_ratios(base, [(z.u[i - 1] - v - 1.0, 2.0, f"u_{i} - v - 1")], mp)
        worst = np.maximum(worst, abs(moved - predicted) / max(1.0, abs(moved)))
    return float(worst)
