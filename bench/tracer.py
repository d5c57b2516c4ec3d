"""Per-layer call tracing from outside the library.

The tracer replaces the module-level bindings of each layer's public
functions with counting and timing wrappers.  Every ``from .x import y``
copy of a traced function is replaced too, so a call counts no matter which
module's name it went through.  Nothing under ``src/`` is edited.

Layer self time uses a frame stack: each timed call pushes a frame, and on
return its duration is charged to its own layer minus the time of the timed
calls nested inside it.  ``theta`` and ``qpoch`` are called millions of times
from inside ``jacobi_bracket``; when their caller is already in ``ellfn``
they are only counted, which keeps the overhead down and leaves their time
in the enclosing ``ellfn`` frame, where it belongs anyway.

Coarse boundaries (CLI entry, suite checks, ``gt_vector``, ``specialize``,
``integrand``) also record spans with a parent, kept in memory and written
out when the sample ends.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

# layer -> (module, names); "Class.method" names wrap a class attribute.
LAYERS = {
    "ellfn": ("ellqg.ellfn", ("qpoch", "theta", "jacobi_bracket",
                              "bracket_derivative_at_zero", "ell_gamma",
                              "rho_plus", "mu_scalar")),
    "tensorspace": ("ellqg.tensorspace", ("enumerate_partitions", "leq",
                                          "DynamicalParams.shifted_by_colors")),
    "rmat": ("ellqg.rmat", ("rbar", "r_plus", "check_dybe", "check_inversion")),
    "weightfn": ("ellqg.weightfn", ("u_tilde", "u_mod", "w_tilde", "specialize",
                                    "diagonal_value", "transition_check",
                                    "h_lambda", "e_lambda", "modified_w",
                                    "stable_envelope_restriction",
                                    "triangularity_violations")),
    "gtrep": ("ellqg.gtrep", ("gt_vector", "exchange_check", "e_on_gt", "f_on_gt",
                              "phi_on_gt", "lplus_tensor", "eval_rep_single",
                              "gauge_constants", "phi_move_ratio_check")),
    "qkz": ("ellqg.qkz", ("integrand", "phi_kernel", "phi_trig", "e_factor",
                          "torus_quadrature")),
    "cli": ("ellqg.cli", ("main", "run_suite")),
}

# Counted, not timed, when the caller is already inside their own layer.
HOT = {"ellfn.qpoch", "ellfn.theta"}

# Boundaries that also record a span with its parent.
SPANS = {"cli.main", "gtrep.gt_vector", "weightfn.specialize", "qkz.integrand"}

ROOT = "bench"


class Tracer:
    """Counters, per-layer self time and coarse spans of one traced sample."""

    def __init__(self) -> None:
        self.calls = defaultdict(int)       # (key, caller layer) -> calls
        self.incl_s = defaultdict(float)    # key -> inclusive seconds
        self.self_s = defaultdict(float)    # layer -> self seconds
        self.extra = defaultdict(int)       # result-derived counters
        self.spans: list[tuple] = []        # (id, parent, name, start, end)
        self._stack = [[ROOT, 0.0]]         # frames: [layer, child seconds]
        self._span_stack = [-1]
        self._originals: list[tuple] = []   # (namespace, name, original)
        self._wrappers: dict = {}           # id(original) -> wrapper
        self.functions: dict = {}           # key -> original function
        self._cache = None
        self._cache_start = (0, 0)

    # ------------------------------------------------------------ install --

    def install(self) -> None:
        """Wrap every layer function and every module-level copy of it."""
        for layer, (modname, names) in LAYERS.items():
            module = sys.modules.get(modname)
            if module is None:
                continue            # the job never imported this layer
            for name in names:
                owner, attr = module, name
                if "." in name:
                    cls, attr = name.split(".")
                    owner = getattr(module, cls, None)
                fn = getattr(owner, attr, None) if owner is not None else None
                if fn is None:
                    continue        # layer no longer defines it
                key = f"{layer}.{attr}"
                wrapper = self._wrap(layer, key, fn)
                self.functions[key] = fn
                self._wrappers[id(fn)] = wrapper
                if owner is not module:
                    self._replace(owner, attr, fn, wrapper)
        for modname, module in list(sys.modules.items()):
            if modname == "ellqg" or modname.startswith("ellqg."):
                for attr, value in list(vars(module).items()):
                    wrapper = self._wrappers.get(id(value))
                    if wrapper is not None and callable(value):
                        self._replace(module, attr, value, wrapper)
        suites = sys.modules.get("ellqg.suites")
        for entries in (suites.SUITES.values() if suites else ()):
            for i, (check_id, fn) in enumerate(entries):
                key = f"suites.{check_id}"
                wrapper = self._wrap("suites", key, fn, span=True)
                self.functions[key] = fn
                self._replace(entries, i, (check_id, fn), (check_id, wrapper))
        ellfn = sys.modules["ellqg.ellfn"]
        self._cache = getattr(getattr(ellfn, "_qpoch_cached", None),
                              "cache_info", None)
        if self._cache is not None:
            info = self._cache()
            self._cache_start = (info.hits, info.misses)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            if isinstance(owner, list):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._originals.clear()

    def _replace(self, owner, attr, original, wrapper) -> None:
        self._originals.append((owner, attr, original))
        if isinstance(owner, list):
            owner[attr] = wrapper
        else:
            setattr(owner, attr, wrapper)

    def _wrap(self, layer: str, key: str, fn, span: bool | None = None):
        calls, incl, selfs = self.calls, self.incl_s, self.self_s
        stack, spans, span_stack = self._stack, self.spans, self._span_stack
        hot = key in HOT
        span = key in SPANS if span is None else span
        post = _POST.get(key)
        extra = self.extra
        clock = perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = stack[-1]
            calls[key, caller[0]] += 1
            if hot and caller[0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            if span:
                sid = len(spans)
                spans.append(None)
                span_stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                selfs[layer] += dt - frame[1]
                stack[-1][1] += dt
                incl[key] += dt
                if span:
                    span_stack.pop()
                    spans[sid] = (sid, span_stack[-1], key, t0, t1)
            if post is not None:
                post(extra, result)
            return result

        return wrapper

    # ------------------------------------------------------------ results --

    def total_calls(self, key: str) -> int:
        return sum(n for (k, _), n in self.calls.items() if k == key)

    def cache_delta(self) -> tuple[int, int]:
        """(hits, misses) of the qpoch cache since install; (0, 0) without one."""
        if self._cache is None:
            return 0, 0
        info = self._cache()
        return (info.hits - self._cache_start[0],
                info.misses - self._cache_start[1])

    def snapshot(self) -> dict:
        """Plain-data record of everything measured, for ``run.py``."""
        hits, misses = self.cache_delta()
        return {
            "calls": {k: self.total_calls(k)
                      for k in sorted({k for k, _ in self.calls})},
            "calls_by_caller": {f"{k}<-{c}": n
                                for (k, c), n in sorted(self.calls.items())},
            "incl_s": dict(sorted(self.incl_s.items())),
            "self_s": dict(sorted(self.self_s.items())),
            "extra": dict(sorted(self.extra.items())),
            "qpoch_cache": {"hits": hits, "misses": misses},
            "spans": [list(s) for s in self.spans if s is not None],
        }


def _count_zero_terms(extra, value) -> None:
    if value == 0:
        extra["weightfn.u_tilde.zeros"] += 1


def _count_limit_rule(extra, result) -> None:
    extra["weightfn.specialize.limit_rule"] += result.skipped_singular


def _count_nnz(extra, state) -> None:
    extra["gtrep.gt_vector.nnz"] += len(state.terms)


_POST = {
    "weightfn.u_tilde": _count_zero_terms,
    "weightfn.specialize": _count_limit_rule,
    "gtrep.gt_vector": _count_nnz,
}
