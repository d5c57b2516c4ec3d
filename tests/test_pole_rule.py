"""One pole rule for every bracket divisor: ``ellfn.divisor_brackets``.

Each site that divides by brackets (the GT currents, the R-bar, the weight
functions and the E factor) keeps its own error class and text, but takes
its brackets, its pole test and its error order from the one primitive.
"""

import ast
import cmath
import pathlib
import re

import numpy as np
import pytest

from ellqg import ellfn
from ellqg.ellfn import ModularParams, jacobi_bracket
from ellqg.errors import FloatRangeError, PoleError, SingularityError
from ellqg.gtrep import phi_on_gt
from ellqg.rmat import rbar
from ellqg.tensorspace import Composition, DynamicalParams, EvaluationPoints, PartitionIndex
from ellqg.weightfn import TVariables, e_lambda, specialize, w_tilde

P = DynamicalParams((1.2 + 0.3j,))
I12 = PartitionIndex.from_colors((1, 2), 2)
# At q = 0.999 the argument 2900j overflows its bracket; [1] underflows to 0.
Q999 = ModularParams(q=0.999, r=3.1, max_terms=40000)
OVERFLOW = 2900j


def _pair(mp, w):
    """(x, x q^(2(w-1))): the coordinates v_1 and v_2 = v_1 + w - 1 of a
    resonant pair, off resonance by w; Im v_2 stays in the principal range."""
    x = 0.6 * cmath.exp(2.8j)
    return x, x * mp.qpow(2.0 * (w - 1.0))


def _phi(mp, w):  # [u_1 - v] = [w]
    z = EvaluationPoints((0.5 + 0.1j, 0.3j), mp.q)
    return phi_on_gt(1, z.u[0] - w, I12, z, mp)


def _rbar_u(mp, w):  # [u+1] = [w]
    return rbar(0.7, P, mp, u=w - 1.0)


def _rbar_s(mp, w):  # [s] = [w]
    return rbar(0.7 * cmath.exp(0.4j), DynamicalParams((w,)), mp)


def _specialize(mp, w):  # [v^2_2 - v^1_1 + 1] = [w] at t = z_(1,2)
    return specialize(I12, I12, EvaluationPoints(_pair(mp, w), mp.q), P, mp)


def _e_factor(mp, w):  # [v^1_2 - v^1_1 + 1] = [w]
    z = EvaluationPoints((0.5, 0.3j, 0.4 + 0.2j), mp.q)
    return e_lambda(Composition((2, 1)), TVariables((_pair(mp, w),)), z, mp)


SITES = {
    "phi_on_gt": (_phi, PoleError, "[u_1 - v] vanished"),
    "rbar_u": (_rbar_u, SingularityError, "[u+1] ~ 0 at z=0.7"),
    "rbar_s": (_rbar_s, SingularityError,
               "resonant dynamical parameter: [s] ~ 0 for pair (1, 2)"),
    "specialize": (_specialize, PoleError, "[v^2_2 - v^1_1 + 1] vanished"),
    "e_factor": (_e_factor, PoleError, "[v^1_2 - v^1_1 + 1] vanished"),
}


@pytest.mark.parametrize("site", SITES)
def test_every_site_keeps_its_error_and_takes_the_one_order(site):
    call, error, text = SITES[site]
    mp = ModularParams(q=0.5, r=3.1)
    call(mp, 0.37)  # off the pole: a value
    with pytest.raises(error, match=f"^{re.escape(text)}$"):
        call(mp, 0.0)
    # The bracket call's own error comes before "[1] underflows".
    with pytest.raises(FloatRangeError, match=r"\] overflows$"):
        call(Q999, OVERFLOW)
    with pytest.raises(FloatRangeError, match=r"^\[1\] underflows: \|\[1\]\| = 0$"):
        call(Q999, 0.37)


def _shrunk_kernel(monkeypatch, target, rel):
    """Make ``ellfn.jacobi_brackets`` return rel |[1]| for the bracket of
    ``target``, and every other bracket as before."""
    kernel = ellfn.jacobi_brackets

    def kernel_with_small(u, mp):
        out = kernel(u, mp)
        out[np.isclose(u, target, rtol=0.0, atol=1e-12)] = rel * abs(jacobi_bracket(1.0, mp))
        return out

    monkeypatch.setattr(ellfn, "jacobi_brackets", kernel_with_small)


@pytest.mark.parametrize("rel", [1e-11, 1e-13])
def test_only_the_rbar_reads_a_divisor_of_1e_11_times_one_as_a_pole(monkeypatch, rel):
    # An R-bar entry divides by [s]^2: its rule is 1e-10 |[1]|, every other
    # divisor's 1e-12 |[1]|.
    mp = ModularParams(q=0.5, r=3.1)
    s = 0.9 - 0.2j
    _shrunk_kernel(monkeypatch, s, rel)
    with pytest.raises(SingularityError, match=r"\[s\] ~ 0 for pair \(1, 2\)"):
        rbar(0.7 * cmath.exp(0.4j), DynamicalParams((s,)), mp)

    z = EvaluationPoints((0.5 + 0.1j, 0.3j), mp.q)
    t = TVariables(((0.45 - 0.2j,),))
    v = cmath.log(t.levels[0][0]) / (2.0 * cmath.log(mp.q))
    _shrunk_kernel(monkeypatch, z.u[0] - v + 1.0, rel)  # the matched denominator
    if rel > 1e-12:
        assert cmath.isfinite(w_tilde(I12, t, z, P, mp).value)
    else:
        with pytest.raises(PoleError, match=r"^\[v\^2_1 - v\^1_1 \+ 1\] vanished$"):
            w_tilde(I12, t, z, P, mp)


def _references(tree, name):
    """The line numbers of every use of ``name`` in ``tree``: a name, an
    attribute or an imported name."""
    return sorted({node.lineno for node in ast.walk(tree)
                   if (isinstance(node, ast.Name) and node.id == name)
                   or (isinstance(node, ast.Attribute) and node.attr == name)
                   or (isinstance(node, ast.ImportFrom)
                       and any(alias.name == name for alias in node.names))})


def test_only_divisor_brackets_calls_the_bracket_kernel():
    # One way to evaluate brackets and test divisors: ``jacobi_brackets`` is
    # read only by ``ellfn.divisor_brackets`` and the package's re-export of
    # the public kernel, and no ``pole_tol`` copy of the rule comes back.  The
    # absolute tests on Pochhammer factors (``_POLE_TOL`` in ``_gamma_fold``
    # and ``qkz.phi_trig``) test no brackets and are the only other readers
    # of ``_POLE_TOL``; the suites keep no pole test of their own.
    src = pathlib.Path(ellfn.__file__).parent
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        assert not _references(tree, "pole_tol"), path.name
        if path.name not in ("ellfn.py", "qkz.py"):
            assert not _references(tree, "_POLE_TOL"), path.name
        lines = _references(tree, "jacobi_brackets")
        if path.name == "ellfn.py":
            fn = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                      and node.name == "divisor_brackets")
            lines = [n for n in lines if not fn.lineno <= n <= fn.end_lineno]
        elif path.name == "__init__.py":
            continue
        assert not lines, f"{path.name} reads jacobi_brackets at lines {lines}"
