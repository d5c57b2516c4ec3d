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
from functools import lru_cache
from itertools import product

import numpy as np

from .ellfn import ModularParams, divisor_brackets, require_normal
from .errors import EllqgError, SingularityError, in_order, settle
from .tensorspace import DynamicalParams

# The R-bar's pole rule, relative to [1] like ellfn's but stricter: an entry divides by [s]^2.
_SING_TOL = 1e-10
# Most brackets one ``divisor_brackets`` call of ``rbars`` takes: the call's
# temporaries grow with its arguments, and the 374 R-bars of ``verify all`` in
# one call raised its peak memory by about 3 MB.
_RBAR_BRACKETS = 512


@dataclass(frozen=True, eq=False)
class DynRMatrix:
    """Sparse dynamical R-matrix: (in_pair, out_pair) -> nonzero entry."""

    N: int
    entries: dict

    def entry(self, in_pair, out_pair) -> complex:
        return self.entries.get((tuple(in_pair), tuple(out_pair)), 0.0 + 0.0j)

    def dense(self) -> np.ndarray:
        dim = self.N * self.N
        M = np.zeros((dim, dim), dtype=complex)
        for ((a, b), (a2, b2)), coeff in self.entries.items():
            M[(a2 - 1) * self.N + (b2 - 1), (a - 1) * self.N + (b - 1)] = coeff
        return M


def rbar(z: complex, Pdyn: DynamicalParams, mp: ModularParams,
         u: complex | None = None) -> DynRMatrix:
    """The bare dynamical R-matrix R-bar(z, Pi).

    Diagonal 1 on equal-color pairs; for colors j1 < j2 with u = log z / (2 log q)
    and s = (P+h)_{j1,j2}:

        (j1,j2) -> (j1,j2): [s+1][s-1][u] / ([s]^2 [u+1])
        (j2,j1) -> (j2,j1): [u] / [u+1]
        (j2,j1) -> (j1,j2): [1][s+u] / ([s][u+1])
        (j1,j2) -> (j2,j1): [1][s-u] / ([s][u+1])

    The R-bar on the starred pair (p*, r*) is the one of (q, r*, k = 0).
    At z = 1 the matrix is the permutation operator.

    By default u comes from the principal logarithm of z.  The entries are
    only quasi-periodic in u, so when z is a ratio of spectral points the
    caller should pass the coherent difference of their u coordinates as
    ``u`` explicitly; all identity checks in this package do so.
    """
    return settle(rbars([(z, Pdyn, u)], mp))[0]


def rbars(requests, mp: ModularParams) -> list:
    """``rbar`` of each (z, Pdyn, u) request, u None for the principal log:
    each DynRMatrix in order, up to the first request that raises, whose
    EllqgError ends the list.  The brackets of consecutive requests, up to
    ``_RBAR_BRACKETS`` of them, come from one ``divisor_brackets`` call
    (``errors.in_order``), and each entry is bitwise that of the request alone."""
    items, groups, size = [], [], _RBAR_BRACKETS
    for k, (z, Pdyn, u) in enumerate(requests):
        s = np.array([Pdyn.value(j1, j2) for (j1, j2), _ in _entry_keys(Pdyn.N)[1]], dtype=complex)
        if size + 2 + 5 * s.size > _RBAR_BRACKETS:
            groups.append([])
            size = 0
        groups[-1].append(k)
        size += 2 + 5 * s.size
        items.append((z, u, Pdyn.N, s))
    return in_order(items, groups, lambda group: _rbar_group(group, mp))


def _rbar_group(items: list, mp: ModularParams) -> list:
    """The outcomes of ``rbars`` for (z, u, N, pair values s) items whose brackets
    make one ``divisor_brackets`` call, which raises if that call or a ``u_of`` does."""
    args = [np.concatenate(([u, u + 1.0], s, s + 1, s - 1, s + u, s - u))
            for u, s in ((mp.u_of(z) if u is None else u, s) for z, u, _, s in items)]
    br, sing = divisor_brackets(np.concatenate(args), mp, rel=_SING_TOL)
    one, out, lo = complex(br[0]), [], 1
    for (z, _, N, _), a in zip(items, args):
        try:
            out.append(_rbar_entries(z, N, one, br[lo:lo + a.size], sing[lo:lo + a.size]))
        except EllqgError as exc:
            return out + [exc]
        lo += a.size
    return out


@lru_cache(maxsize=8)
def _entry_keys(N: int) -> tuple:
    """The (in_pair, out_pair) keys of an R-bar on N colors: the diagonal
    ones, then per pair j1 < j2 the pair and its four keys.  One copy per N
    is shared by every R-bar, so a list of R-bars holds only their values."""
    pairs = [(j1, j2) for j1 in range(1, N + 1) for j2 in range(j1 + 1, N + 1)]
    return (tuple(((j, j), (j, j)) for j in range(1, N + 1)),
            tuple(((j1, j2), (((j1, j2), (j1, j2)), ((j2, j1), (j2, j1)),
                              ((j2, j1), (j1, j2)), ((j1, j2), (j2, j1))))
                  for j1, j2 in pairs))


def _rbar_entries(z: complex, N: int, b1: complex, br: np.ndarray, sing: np.ndarray) -> DynRMatrix:
    """R-bar from [1] and its brackets [u], [u+1], then [s], [s+1], [s-1],
    [s+u], [s-u] per pair of ``_entry_keys``, with their pole marks ``sing``."""
    bu, bu1 = br[:2].tolist()
    if sing[1]:
        raise SingularityError(f"[u+1] ~ 0 at z={z}")
    diagonal, pairs = _entry_keys(N)
    entries: dict = dict.fromkeys(diagonal, 1.0 + 0.0j)
    for ((j1, j2), keys), bs, bsp, bsm, bspu, bsmu, resonant in zip(
            pairs, *br[2:].reshape(5, -1).tolist(), sing[2:]):
        if resonant:
            raise SingularityError(
                f"resonant dynamical parameter: [s] ~ 0 for pair ({j1}, {j2})")
        dens = (bs * bs * bu1, bs * bu1)
        require_normal(min(dens, key=abs), f"[s]^2 [u+1] for pair ({j1}, {j2})")
        entries.update(zip(keys, (bsp * bsm * bu / dens[0], bu / bu1, b1 * bspu / dens[1],
                                  b1 * bsmu / dens[1])))
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
    return _embedded(Pdyn, mp, n_slots, [(z, u, pair, spectators)])[0]


def _embedded(Pdyn: DynamicalParams, mp: ModularParams, n_slots: int, factors) -> list:
    """``embedded_rbar`` of each (z, u, pair, spectators) factor.  The R-bars
    of all of them come from one ``rbars`` call, requested factor by factor
    and per factor in ``product`` order of the spectator colors, so its first
    error is the one of building them one by one."""
    N = Pdyn.N
    keys = [list(product(range(1, N + 1), repeat=len(spectators))) for *_, spectators in factors]
    built = iter(settle(rbars([(z, Pdyn.shifted_by_colors(key) if key else Pdyn, u)
                               for (z, u, *_), ks in zip(factors, keys) for key in ks], mp)))
    out = []
    for (_, _, (i, j), spectators), ks in zip(factors, keys):
        by_key = {key: R.entries for key, R in zip(ks, built)}
        M = np.zeros((N ** n_slots, N ** n_slots), dtype=complex)
        swap = N ** (n_slots - i) - N ** (n_slots - j)  # index step of (a, b) -> (b, a) per b - a
        for col, colors in enumerate(product(range(1, N + 1), repeat=n_slots)):
            entries = by_key[tuple(colors[s - 1] for s in spectators)]
            a, b = colors[i - 1], colors[j - 1]
            M[col, col] += entries[(a, b), (a, b)]
            if a != b:
                M[col + (b - a) * swap, col] += entries[(a, b), (b, a)]
        out.append(M)
    return out


def check_dybe(z1: complex, z2: complex, z3: complex, Pdyn: DynamicalParams,
               mp: ModularParams) -> float:
    """Max-norm residual of the dynamical Yang-Baxter equation on V x V x V."""
    zs = (z1, z2, z3)
    us = tuple(mp.u_of(x) for x in zs)
    R123, R13, R231, R23, R132, R12 = _embedded(Pdyn, mp, 3, [
        (zs[i - 1] / zs[j - 1], us[i - 1] - us[j - 1], (i, j), spectators)
        for i, j, *spectators in ((1, 2, 3), (1, 3), (2, 3, 1), (2, 3), (1, 3, 2), (1, 2))])
    return float(np.max(np.abs(R123 @ R13 @ R231 - R23 @ R132 @ R12)))


def check_inversion(z: complex, Pdyn: DynamicalParams, mp: ModularParams) -> float:
    """Unitarity residual || R-bar(z, Pi) P R-bar(1/z, Pi) P - Id ||_max."""
    A, B = (R.dense() for R in settle(rbars([(z, Pdyn, None), (1.0 / z, Pdyn, None)], mp)))
    P = permutation_dense(Pdyn.N)
    return float(np.max(np.abs(A @ P @ B @ P - np.eye(Pdyn.N ** 2))))
