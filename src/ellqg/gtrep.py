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

from .ellfn import (ModularParams, bracket_derivative_at_zero, divisor_brackets,
                    jacobi_bracket, require_normal, theta)
from .errors import ParameterError, PoleError
from .tensorspace import (Composition, DynamicalParams, EvaluationPoints,
                          PartitionIndex, enumerate_partitions, partition_colors)
from .weightfn import specialize_points


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
    """Gelfand-Tsetlin vector expanded over the standard basis (``gt_vectors``)."""
    return gt_vectors([I], z, Pdyn, mp)[0]


def gt_vectors(labels, z: EvaluationPoints, Pdyn: DynamicalParams,
               mp: ModularParams) -> list[TensorState]:
    """The Gelfand-Tsetlin vector of each label, expanded over the standard basis.

    Coefficients are the weight functions specialized at the inverted
    spectral points, with the dynamical parameters shifted by the total
    weight of the color string; the expansion is triangular with respect to
    the partial order on partitions.  Exactly-zero coefficients are left out;
    every other one is kept, however small.  Every coefficient of the call
    comes from one ``specialize_points`` call, a label I being the point
    at = I of every label of its shape (one tuple per shape), and is read as
    a value; the color strings of a shape are built once.  An error is the
    first that label by label meets.

    At resonant points z_j = q^(+-2) z_i a coefficient is either a true pole
    or a removable case that raises.  Take lambda = (1, 1), q = 0.5,
    z_1 = 0.6 e^(0.3i), P = 1.2 + 0.3i:

    - at z_2 = q^2 z_1 (1 + h), the vector of I = (1, 2) grows like 1/h (its
      largest coefficient is 1.16e4, 1.16e6 and 1.16e8 at h = 1e-4, 1e-6 and
      1e-8): a true pole, the [u_b - u_a + 1] divisor of ``diagonal_value``
      at the inverted points.  At h = 0 it raises PoleError.
    - at z_2 = q^(-2) z_1 (1 + h), both vectors stay bounded and converge as
      h -> 0 (that of (1, 2) to a diagonal coefficient 0.94521...), but at
      h = 0 the vector of (2, 1) raises PoleError "[v^2_1 - v^1_1 + 1]
      vanished" where its limit {(2, 1): 1} is finite: a removable case, which
      a limit rule on the sum would return.
    """
    require_level_zero(mp)
    z.require_distinct()
    zinv = EvaluationPoints(tuple(1.0 / x for x in z.z), z.q)
    shapes = [I.shape() for I in labels]
    rows = specialize_points([(I, Pdyn.shifted_by_colors(I.colors(), sign=1),
                               enumerate_partitions(lam)) for I, lam in zip(labels, shapes)],
                             zinv, mp)
    return [TensorState({colors: value for colors, value in zip(partition_colors(lam), row)
                         if value != 0})
            for lam, row in zip(shapes, rows)]


def _bracket_ratios(val: complex, factors, mp: ModularParams) -> complex:
    """val * prod [x + c]/[x] over (x, c, label) in order, from one
    ``divisor_brackets`` call; PoleError names the first [x] its pole test marks."""
    x, c = (np.array([f[k] for f in factors], dtype=complex) for k in (0, 1))
    br, pole = (a.tolist() for a in divisor_brackets(np.concatenate((x, x + c)), mp))
    for (_, _, label), den, num, vanished in zip(factors, br[1:], br[1 + len(factors):], pole[1:]):
        if vanished:
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
    z.require_q(mp.q)
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
    return _current(j, I, z, mp, raising=True)


def f_on_gt(j: int, I: PartitionIndex, z: EvaluationPoints,
            mp: ModularParams) -> tuple[CurrentTerm, ...]:
    """Lowering current on a GT vector: supports at z_i for i in I_j.

    Coefficient a prod_{k in I_j, k != i} [u_i - u_k + 1]/[u_i - u_k], a = 1;
    the site i moves from I_j to I_{j+1}; no dynamical tag is attached.
    """
    return _current(j, I, z, mp, raising=False)


def _current(j: int, I: PartitionIndex, z: EvaluationPoints, mp: ModularParams,
             raising: bool) -> tuple[CurrentTerm, ...]:
    """The terms of ``e_on_gt`` (``raising``) or ``f_on_gt``: per site i of the
    source part, the coefficient (a* or a = 1) times [x + 1]/[x] over the
    other sites k of that part, x = u_k - u_i or u_i - u_k, then the label
    with i moved; the tag is the j-th unit vector or zero."""
    require_level_zero(mp)
    z.require_q(mp.q)
    z.require_distinct()
    src, dst = (j + 1, j) if raising else (j, j + 1)
    start = gauge_constants(mp)[1] if raising else 1.0 + 0.0j
    tag = _unit_tag(j, I.N) if raising else (0,) * (I.N - 1)
    u, part, out = z.u, I.parts[src - 1], []
    for i in part:
        pairs = [(k, i) if raising else (i, k) for k in part if k != i]
        coeff = _bracket_ratios(start, [(u[a - 1] - u[b - 1], 1.0, f"u_{a} - u_{b}")
                                        for a, b in pairs], mp)
        out.append(CurrentTerm(site=i, coeff=coeff, target=_move(I, i, src, dst), tag=tag))
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
    # Every term either order produces, keyed as the LHS keys it.
    keys = dict.fromkeys([*lhs_tab, *((sb, sa, target) for sa, sb, target in rhs_tab)])
    for sb, sa, target in keys:
        za = scale1 * z.z[sa - 1]   # true argument of the j1 current
        zb = scale2 * z.z[sb - 1]   # true argument of the j2 current
        L = za * theta(qb * zb / za, nome, **mp.truncation) * lhs_tab.get((sb, sa, target), 0.0)
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
