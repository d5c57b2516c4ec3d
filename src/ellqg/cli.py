"""Command-line entry point: evaluation, table dumps, verification suites.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage or
configuration error.  All JSON output is deterministic for a fixed config
and seed (sorted keys, fixed check order).
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import gtrep, qkz, suites, weightfn
from .ellfn import ModularParams, jacobi_bracket, theta
from .errors import EllqgError
from .rmat import rbar
from .tensorspace import (Composition, DynamicalParams, EvaluationPoints,
                          enumerate_partitions)
from .weightfn import TVariables

DEFAULTS = {
    "q": 0.5,
    "r": 3.1,
    "k": 0.0,
    "trunc_eps": 1e-14,
    "max_terms": 512,
    "N": 2,
    "n": 2,
    "lambda": [1, 1],
    "P": [[1.2, 0.3]],
    "z": [[0.55, 0.1], [0.2, -0.75]],
    "seed": 0,
}


class ConfigError(Exception):
    """Configuration problem; maps to exit code 2."""


@dataclass
class RunConfig:
    q: float
    r: float
    k: float
    trunc_eps: float
    max_terms: int
    N: int
    n: int
    lam: tuple[int, ...]
    P: tuple[complex, ...]
    z: tuple[complex, ...]
    seed: int
    break_shift: bool = False

    def modular(self) -> ModularParams:
        return ModularParams(q=self.q, r=self.r, k=self.k,
                             trunc_eps=self.trunc_eps, max_terms=self.max_terms)

    def dynamical(self) -> DynamicalParams:
        return DynamicalParams(self.P)

    def points(self) -> EvaluationPoints:
        return EvaluationPoints(self.z, self.q)

    def composition(self) -> Composition:
        return Composition(self.lam)


def _as_complex(value, name: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if (isinstance(value, (list, tuple)) and len(value) == 2
            and all(isinstance(x, (int, float)) for x in value)):
        return complex(value[0], value[1])
    raise ConfigError(f"field {name!r}: expected a number or [re, im] pair, got {value!r}")


def build_config(data: dict) -> RunConfig:
    merged = dict(DEFAULTS)
    unknown = set(data) - set(DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    merged.update(data)
    try:
        q = float(merged["q"])
        r = float(merged["r"])
        k = float(merged["k"])
        trunc_eps = float(merged["trunc_eps"])
        max_terms = int(merged["max_terms"])
        N = int(merged["N"])
        n = int(merged["n"])
        seed = int(merged["seed"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed scalar field: {exc}") from exc
    if N < 1:
        raise ConfigError(f"field 'N': must be >= 1, got {N}")
    lam = tuple(int(x) for x in merged["lambda"])
    if len(lam) != N:
        raise ConfigError(f"field 'lambda': needs {N} parts, got {len(lam)}")
    if sum(lam) != n:
        raise ConfigError(f"field 'lambda': parts sum to {sum(lam)}, expected n={n}")
    P = tuple(_as_complex(x, "P") for x in merged["P"])
    if len(P) != N - 1:
        raise ConfigError(f"field 'P': needs {N - 1} entries, got {len(P)}")
    z = tuple(_as_complex(x, "z") for x in merged["z"])
    if len(z) != n:
        raise ConfigError(f"field 'z': needs {n} entries, got {len(z)}")
    cfg = RunConfig(q=q, r=r, k=k, trunc_eps=trunc_eps, max_terms=max_terms,
                    N=N, n=n, lam=lam, P=P, z=z, seed=seed)
    try:  # the library's own checks of (q, r, k, truncation) and of z
        cfg.modular(), cfg.points()
    except EllqgError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def parse_config(path: str | None) -> RunConfig:
    """Load and validate a config file; None loads the built-in defaults."""
    if path is None:
        return build_config({})
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    return build_config(data)


def run_suite(name: str, cfg: RunConfig) -> dict:
    """Run one verification suite (or 'all'); report is ordered by check id."""
    try:
        checks = suites.checks_for(name)
    except KeyError as exc:
        raise ConfigError(f"unknown suite {name!r}; choose from "
                          f"{', '.join(suites.SUITE_NAMES)} or 'all'") from exc
    results = []
    for index, (check_id, fn) in enumerate(checks):
        rng = np.random.default_rng(cfg.seed + 7919 * index)
        try:
            residual, tol = fn(cfg, rng)
            results.append({"id": check_id, "residual": float(residual),
                            "tolerance": float(tol), "pass": bool(residual <= tol)})
        except EllqgError as exc:
            results.append({"id": check_id, "residual": float("inf"),
                            "tolerance": 0.0, "pass": False, "error": str(exc)})
    results.sort(key=lambda c: c["id"])
    return {"suite": name, "checks": results,
            "all_pass": all(c["pass"] for c in results)}


def _emit(obj, out_path: str | None) -> None:
    """Write ``obj`` to out_path or stdout: a str as is, anything else as JSON."""
    if not isinstance(obj, str):
        obj = json.dumps(obj, sort_keys=True, indent=2, default=_json_default) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(obj)
    else:
        sys.stdout.write(obj)


def _json_default(obj):
    if isinstance(obj, complex):
        return {"im": obj.imag, "re": obj.real}
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _cmd_theta(cfg: RunConfig, args) -> int:
    mp = cfg.modular()
    rows = []
    for zi in cfg.z:
        rows.append({
            "z": zi,
            "theta_p": theta(zi, mp.p, **mp.truncation),
            "bracket_u": jacobi_bracket(mp.u_of(zi), mp),
            "bracket_u_starred": jacobi_bracket(mp.u_of(zi), mp, starred=True),
        })
    _emit({"params": {"q": cfg.q, "r": cfg.r, "k": cfg.k, "p": mp.p,
                      "pstar": mp.pstar}, "values": rows}, args.out)
    return 0


def _cmd_rmat(cfg: RunConfig, args) -> int:
    mp = cfg.modular()
    zratio = _as_complex(json.loads(args.zratio), "zratio") if args.zratio else \
        cfg.z[0] / cfg.z[1] if cfg.n >= 2 else 0.7 + 0.0j
    R = rbar(zratio, cfg.dynamical(), mp, starred=args.starred)
    entries = [{"in": list(kin), "out": list(kout), "re": val.real, "im": val.imag}
               for (kin, kout), val in sorted(R.entries.items())]
    _emit({"N": cfg.N, "z": zratio, "starred": args.starred, "entries": entries},
          args.out)
    return 0


def _default_t(cfg: RunConfig) -> TVariables:
    return suites._rand_t(np.random.default_rng(cfg.seed + 31), cfg.composition())


def _cmd_wf(cfg: RunConfig, args) -> int:
    mp = replace(cfg.modular(), k=0.0)
    pd, z = cfg.dynamical(), cfg.points()
    lam = cfg.composition()
    parts = enumerate_partitions(lam)
    records = []
    if args.action == "eval":
        t = _default_t(cfg)
        for I in parts:
            val = weightfn.w_tilde(I, t, z, pd, mp).value
            records.append({"lambda": list(lam.sizes), "I": I.to_json(),
                            "value_re": val.real, "value_im": val.imag})
    elif args.action in ("triangularity", "stab"):
        if args.action == "stab":
            mat = weightfn.stab_matrix(lam, z, pd, mp)
        else:
            cols = {J: weightfn.specialize_labels(parts, J, z, pd, mp) for J in parts}
            mat = {I: {J: cols[J][k].value for J in parts} for k, I in enumerate(parts)}
        for I in parts:
            for J in parts:
                val = mat[I][J]
                records.append({"lambda": list(lam.sizes), "I": I.to_json(),
                                "J": J.to_json(), "value_re": val.real,
                                "value_im": val.imag})
    else:  # transition
        t = _default_t(cfg)
        for I in parts:
            mu = I.colors()
            for i in range(1, cfg.n):
                res = weightfn.transition_check(mu, i, t, z, pd, mp)
                records.append({"lambda": list(lam.sizes), "I": I.to_json(),
                                "position": i, "residual": res})
    _emit({"action": args.action, "records": records}, args.out)
    return 0


def _cmd_gt(cfg: RunConfig, args) -> int:
    mp = replace(cfg.modular(), k=0.0)
    pd, z = cfg.dynamical(), cfg.points()
    parts = enumerate_partitions(cfg.composition())
    if args.action == "basis":
        records = []
        for I in parts:
            state = gtrep.gt_vector(I, z, pd, mp)
            row = [{"colors": list(cols), "re": coeff.real, "im": coeff.imag}
                   for cols, coeff in state.items_sorted()]
            records.append({"I": I.to_json(), "expansion": row})
        _emit({"action": "basis", "records": records}, args.out)
        return 0
    j = args.j
    if not 1 <= j <= cfg.N - 1:
        raise ConfigError(f"--j must lie in 1..{cfg.N - 1}")
    records = []
    for I in parts:
        if args.op == "phi":
            v = 0.3 + 0.1j
            val, tag = gtrep.phi_on_gt(j, v, I, z, mp)
            records.append({"I": I.to_json(), "eigenvalue_re": val.real,
                            "eigenvalue_im": val.imag, "tag": list(tag)})
        else:
            act = gtrep.e_on_gt if args.op == "e" else gtrep.f_on_gt
            terms = [{"site": trm.site, "re": trm.coeff.real,
                      "im": trm.coeff.imag, "target": trm.target.to_json(),
                      "tag": list(trm.tag)}
                     for trm in act(j, I, z, mp)]
            records.append({"I": I.to_json(), "terms": terms})
    _emit({"action": "act", "op": args.op, "j": j, "records": records}, args.out)
    return 0


def _cmd_qkz(cfg: RunConfig, args) -> int:
    mp = cfg.modular()
    pd, z = cfg.dynamical(), cfg.points()
    lam = cfg.composition()
    I = enumerate_partitions(lam)[0]
    spec = qkz.IntegrandSpec(I=I, z=z, Pdyn=pd, mp=mp, trig=not args.elliptic,
                             Q=args.Q if args.elliptic else 0.0)
    if args.action == "eval":
        t = _default_t(cfg)
        val = qkz.integrand(spec, t)
        _emit({"action": "eval", "I": I.to_json(), "value_re": val.real,
               "value_im": val.imag}, args.out)
        return 0
    if args.action == "grid":
        # Every variable sits on the same circle point, where a level of two
        # or more makes the integrand singular.
        if any(lam.prefix(l) > 1 for l in range(1, lam.N)):
            raise ConfigError(f"qkz grid needs at most one variable per t-level; "
                              f"lambda={list(lam.sizes)} has more")
        G = args.gridsize
        rows = ["angle_index,re,im"]
        for k in range(G):
            w = cmath.exp(2j * math.pi * k / G)
            t = TVariables(tuple((w,) * lam.prefix(l) for l in range(1, lam.N)))
            try:
                val = qkz.integrand(spec, t)
                rows.append(f"{k},{val.real!r},{val.imag!r}")
            except EllqgError:
                rows.append(f"{k},nan,nan")
        _emit("\n".join(rows) + "\n", args.out)
        return 0
    val, report = qkz.torus_quadrature(spec, grid_size=args.gridsize)
    _emit({"action": "quad", "value_re": val.real, "value_im": val.imag,
           "report": report}, args.out)
    return 0


def _cmd_verify(cfg: RunConfig, args) -> int:
    report = run_suite(args.suite, cfg)
    _emit(report, args.out)
    return 0 if report["all_pass"] else 1


COMMANDS = {"theta": _cmd_theta, "rmat": _cmd_rmat, "wf": _cmd_wf, "gt": _cmd_gt,
            "qkz": _cmd_qkz, "verify": _cmd_verify}


def make_parser() -> argparse.ArgumentParser:
    # Shared flags are valid both before and after the subcommand; SUPPRESS
    # keeps an unset post-subcommand flag from clobbering a pre-set one.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="JSON config file (defaults built in)")
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="write output to this path instead of stdout")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="override the config seed")

    parser = argparse.ArgumentParser(
        prog="ellqg", parents=[common],
        description="Elliptic quantum group numerics: special functions, "
                    "dynamical R-matrices, weight functions, Gelfand-Tsetlin "
                    "action, q-KZ integrands.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("theta", parents=[common],
                   help="special-function values at the config points")

    p_rmat = sub.add_parser("rmat", parents=[common],
                            help="dump R-matrix entries as JSON")
    p_rmat.add_argument("--zratio", help="spectral ratio as JSON number or [re,im]")
    p_rmat.add_argument("--starred", action="store_true",
                        help="use the (p*, r*) bracket pair")

    p_wf = sub.add_parser("wf", parents=[common],
                          help="weight-function evaluations and identity data")
    p_wf.add_argument("action", choices=("eval", "triangularity", "transition", "stab"))

    p_gt = sub.add_parser("gt", parents=[common],
                          help="Gelfand-Tsetlin basis and current action")
    p_gt.add_argument("action", choices=("basis", "act"))
    p_gt.add_argument("--op", choices=("e", "f", "phi"), default="e")
    p_gt.add_argument("--j", type=int, default=1)

    p_qkz = sub.add_parser("qkz", parents=[common],
                           help="q-KZ integrand evaluation and quadrature")
    p_qkz.add_argument("action", choices=("eval", "grid", "quad"))
    p_qkz.add_argument("--gridsize", type=int, default=32)
    p_qkz.add_argument("--elliptic", action="store_true",
                       help="use the elliptic kernel (default: trigonometric)")
    p_qkz.add_argument("--Q", type=float, default=0.2, help="trace nome")

    p_ver = sub.add_parser("verify", parents=[common],
                           help="run a verification suite")
    p_ver.add_argument("suite", nargs="?", default="all",
                       choices=("ellfn", "rmat", "wf", "gt", "qkz", "all"))
    p_ver.add_argument("--break-shift", action="store_true",
                       help="negative control: disable dynamical-shift "
                            "bookkeeping (the gt suite must then fail)")
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    for name in ("config", "out", "seed"):
        if not hasattr(args, name):
            setattr(args, name, None)
    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if getattr(args, "break_shift", False):
            cfg.break_shift = True
        # A value beyond the float range raises FloatRangeError, which the
        # report or exit code 2 carries; numpy's warnings on the way add nothing.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return COMMANDS[args.command](cfg, args)
    except (ConfigError, EllqgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
