"""The elliptic dynamical R-matrix for the N-color vector representation.

Entry conventions: an entry maps an in-pair (a, b) to an out-pair (a', b'),
i.e.  R (v_a x v_b) = sum entry[(a,b),(a',b')] v_a' x v_b'.  Color content is
conserved (ice rule): entries vanish unless {a, b} = {a', b'} as multisets.
Dense matrices index the pair (a, b) as (a-1) * N + (b-1); ``embedded_rbar``
extends this order to a chain of sites, slot 1 slowest, and is the one place
that puts a two-site factor on a chain.

The dynamical Yang-Baxter convention used by ``check_dybe`` is

    R12(z1/z2, Pi q^(2 h3)) R13(z1/z3, Pi) R23(z2/z3, Pi q^(2 h1))
  = R23(z2/z3, Pi) R13(z1/z3, Pi q^(2 h2)) R12(z1/z2, Pi)

where q^(2 h_i) shifts (P+h)_{j,k} by the h-weight of the color in slot i.
This orientation is pinned by the weight-function transition identity (see
weightfn) and verified numerically by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .ellfn import ModularParams, jacobi_brackets, require_normal
from .errors import SingularityError
from .tensorspace import DynamicalParams

# Relative to [1] like ellfn.pole_tol but stricter: an entry divides by [s]^2.
_SING_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class DynRMatrix:
    """Sparse dynamical R-matrix: (in_pair, out_pair) -> nonzero entry."""

    N: int
    entries: dict

    def entry(self, in_pair, out_pair) -> complex:
        return self.entries.get((tuple(in_pair), tuple(out_pair)), 0.0 + 0.0j)

    def apply(self, a: int, b: int):
        """All (out_pair, coeff) reachable from the in-pair (a, b)."""
        out = []
        for pair in ((a, b), (b, a)) if a != b else ((a, a),):
            c = self.entries.get(((a, b), pair))
            if c is not None:
                out.append((pair, c))
        return out

    def dense(self) -> np.ndarray:
        dim = self.N * self.N
        M = np.zeros((dim, dim), dtype=complex)
        for ((a, b), (a2, b2)), coeff in self.entries.items():
            M[(a2 - 1) * self.N + (b2 - 1), (a - 1) * self.N + (b - 1)] = coeff
        return M


def rbar(z: complex, Pdyn: DynamicalParams, mp: ModularParams,
         starred: bool = False, u: complex | None = None) -> DynRMatrix:
    """The bare dynamical R-matrix R-bar(z, Pi).

    Diagonal 1 on equal-color pairs; for colors j1 < j2 with u = log z / (2 log q)
    and s = (P+h)_{j1,j2}:

        (j1,j2) -> (j1,j2): [s+1][s-1][u] / ([s]^2 [u+1])
        (j2,j1) -> (j2,j1): [u] / [u+1]
        (j2,j1) -> (j1,j2): [1][s+u] / ([s][u+1])
        (j1,j2) -> (j2,j1): [1][s-u] / ([s][u+1])

    With ``starred`` every bracket uses the (p*, r*) pair instead of (p, r).
    At z = 1 the matrix is the permutation operator.

    By default u comes from the principal logarithm of z.  The entries are
    only quasi-periodic in u, so when z is a ratio of spectral points the
    caller should pass the coherent difference of their u coordinates as
    ``u`` explicitly; all identity checks in this package do so.
    """
    N = Pdyn.N
    if u is None:
        u = mp.u_of(z)
    pairs = [(j1, j2) for j1 in range(1, N + 1) for j2 in range(j1 + 1, N + 1)]
    s = np.array([Pdyn.value(j1, j2) for j1, j2 in pairs], dtype=complex)
    br = jacobi_brackets(np.concatenate(([1.0, u, u + 1.0], s, s + 1, s - 1, s + u, s - u)),
                         mp, starred)
    b1, bu, bu1 = br[:3].tolist()
    scale = abs(b1)
    if abs(bu1) < _SING_TOL * scale:
        raise SingularityError(f"[u+1] ~ 0 at z={z}")
    entries: dict = {((j, j), (j, j)): 1.0 + 0.0j for j in range(1, N + 1)}
    for (j1, j2), bs, bsp, bsm, bspu, bsmu in zip(pairs, *br[3:].reshape(5, -1).tolist()):
        if abs(bs) < _SING_TOL * scale:
            raise SingularityError(
                f"resonant dynamical parameter: [s] ~ 0 for pair ({j1}, {j2})")
        dens = (bs * bs * bu1, bs * bu1)
        require_normal(min(dens, key=abs), f"[s]^2 [u+1] for pair ({j1}, {j2})")
        entries[((j1, j2), (j1, j2))] = bsp * bsm * bu / dens[0]
        entries[((j2, j1), (j2, j1))] = bu / bu1
        entries[((j2, j1), (j1, j2))] = b1 * bspu / dens[1]
        entries[((j1, j2), (j2, j1))] = b1 * bsmu / dens[1]
    return DynRMatrix(N=N, entries=entries)


def permutation_dense(N: int) -> np.ndarray:
    dim = N * N
    P = np.zeros((dim, dim), dtype=complex)
    for a in range(1, N + 1):
        for b in range(1, N + 1):
            P[(b - 1) * N + (a - 1), (a - 1) * N + (b - 1)] = 1.0
    return P


def embedded_rbar(z: complex, u: complex, Pdyn: DynamicalParams, mp: ModularParams,
                  n_slots: int, pair: tuple[int, int], spectators=()) -> np.ndarray:
    """Dense operator on ``n_slots`` sites applying R-bar(z, Pi) to the slots in ``pair``.

    Pi is shifted by the h-weights of the colors in the ``spectators`` slots,
    which the factor leaves untouched, so one R-bar is built per spectator
    color key.  Basis index order is (slot 1, ..., slot n_slots), slot 1
    slowest, as in ``DynRMatrix.dense``.
    """
    N = Pdyn.N
    dim = N ** n_slots
    M = np.zeros((dim, dim), dtype=complex)
    i, j = pair
    step_i, step_j = N ** (n_slots - i), N ** (n_slots - j)
    cache: dict = {}
    for col, colors in enumerate(product(range(1, N + 1), repeat=n_slots)):
        key = tuple(colors[s - 1] for s in spectators)
        if key not in cache:
            pd = Pdyn.shifted_by_colors(key) if key else Pdyn
            cache[key] = rbar(z, pd, mp, u=u)
        a, b = colors[i - 1], colors[j - 1]
        for (a2, b2), coeff in cache[key].apply(a, b):
            M[col + (a2 - a) * step_i + (b2 - b) * step_j, col] += coeff
    return M


def check_dybe(z1: complex, z2: complex, z3: complex, Pdyn: DynamicalParams,
               mp: ModularParams) -> float:
    """Max-norm residual of the dynamical Yang-Baxter equation on V x V x V."""
    zs = (z1, z2, z3)
    us = tuple(mp.u_of(x) for x in zs)

    def R(i: int, j: int, *spectators: int) -> np.ndarray:
        return embedded_rbar(zs[i - 1] / zs[j - 1], us[i - 1] - us[j - 1], Pdyn, mp,
                             3, (i, j), spectators)

    lhs = R(1, 2, 3) @ R(1, 3) @ R(2, 3, 1)
    rhs = R(2, 3) @ R(1, 3, 2) @ R(1, 2)
    return float(np.max(np.abs(lhs - rhs)))


def check_inversion(z: complex, Pdyn: DynamicalParams, mp: ModularParams) -> float:
    """Unitarity residual || R-bar(z, Pi) P R-bar(1/z, Pi) P - Id ||_max."""
    N = Pdyn.N
    A = rbar(z, Pdyn, mp).dense()
    B = rbar(1.0 / z, Pdyn, mp).dense()
    P = permutation_dense(N)
    return float(np.max(np.abs(A @ P @ B @ P - np.eye(N * N))))
