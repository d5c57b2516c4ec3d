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
from .errors import EllqgError, ShapeError
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


@dataclass(frozen=True)
class RunConfig:
    """One validated run: the library's parameter objects, built once by
    ``build_config`` and read by every command and suite check.  ``lam``
    carries N and n; ``--seed`` and ``--break-shift`` give a ``replace``d copy.
    """

    mp: ModularParams
    lam: Composition
    Pdyn: DynamicalParams
    z: EvaluationPoints
    seed: int
    break_shift: bool = False

    def __post_init__(self) -> None:
        if self.seed < 0:  # numpy refuses a negative seed
            raise ConfigError(f"the seed (field 'seed' or --seed) must be >= 0, got {self.seed}")


def _as_real(value, name: str) -> float:
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ConfigError(f"field {name!r}: expected a finite number, got {value!r}")
    return float(value)


def _as_int(value, name: str) -> int:
    if (isinstance(value, bool) or not isinstance(value, int)
            and not (isinstance(value, float) and value.is_integer())):
        raise ConfigError(f"field {name!r}: expected an integer, got {value!r}")
    return int(value)


def _as_complex(value, name: str) -> complex:
    """A number, or an [re, im] pair of numbers."""
    re, im = value if isinstance(value, list) and len(value) == 2 else (value, 0.0)
    return complex(_as_real(re, name), _as_real(im, name))


def _as_array(value, name: str, length: int, read) -> tuple:
    if not isinstance(value, list):
        raise ConfigError(f"field {name!r}: expected a JSON list, got {value!r}")
    if len(value) != length:
        raise ConfigError(f"field {name!r}: needs {length} entries, got {len(value)}")
    return tuple(read(x, name) for x in value)


def build_config(data: dict) -> RunConfig:
    """RunConfig of a config object, missing keys from DEFAULTS.  Each field
    passes a strict reader (no bools, strings or coercion; arrays are JSON
    lists), then the library constructor that owns it; any refusal is a
    ConfigError (exit 2)."""
    unknown = set(data) - set(DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    merged = {**DEFAULTS, **data}
    N, n = _as_int(merged["N"], "N"), _as_int(merged["n"], "n")
    if N < 1:
        raise ConfigError(f"field 'N': must be >= 1, got {N}")
    lam = _as_array(merged["lambda"], "lambda", N, _as_int)
    if sum(lam) != n:
        raise ConfigError(f"field 'lambda': parts sum to {sum(lam)}, expected n={n}")
    P = _as_array(merged["P"], "P", N - 1, _as_complex)
    z = _as_array(merged["z"], "z", n, _as_complex)
    real = {key: _as_real(merged[key], key) for key in ("q", "r", "k", "trunc_eps")}
    max_terms, seed = _as_int(merged["max_terms"], "max_terms"), _as_int(merged["seed"], "seed")
    try:
        mp = ModularParams(**real, max_terms=max_terms)
        return RunConfig(mp=mp, lam=Composition(lam), Pdyn=DynamicalParams(P),
                         z=EvaluationPoints(z, mp.q), seed=seed)
    except EllqgError as exc:
        raise ConfigError(str(exc)) from exc


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
    # A check's rng is seeded by its place in 'all', so a suite run alone
    # draws the inputs of its rows in ``verify all``.
    place = {check_id: k for k, (check_id, _) in enumerate(suites.checks_for("all"))}
    results = []
    for check_id, fn in checks:
        rng = np.random.default_rng(cfg.seed + 7919 * place[check_id])
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
    mp = cfg.mp
    mp_star, rows = replace(mp, r=mp.rstar, k=0.0), []  # [u]* is [u] of (q, r*, k=0)
    for zi in cfg.z.z:
        rows.append({
            "z": zi,
            "theta_p": theta(zi, mp.p, **mp.truncation),
            "bracket_u": jacobi_bracket(mp.u_of(zi), mp),
            "bracket_u_starred": jacobi_bracket(mp.u_of(zi), mp_star),
        })
    _emit({"params": {"q": mp.q, "r": mp.r, "k": mp.k, "p": mp.p,
                      "pstar": mp.pstar}, "values": rows}, args.out)
    return 0


def _cmd_rmat(cfg: RunConfig, args) -> int:
    mp, z = cfg.mp, cfg.z.z
    zratio = _as_complex(args.zratio, "zratio") if args.zratio is not None else \
        z[0] / z[1] if len(z) >= 2 else 0.7 + 0.0j
    R = rbar(zratio, cfg.Pdyn, replace(mp, r=mp.rstar, k=0.0) if args.starred else mp)
    entries = [{"in": list(kin), "out": list(kout), "re": val.real, "im": val.imag}
               for (kin, kout), val in sorted(R.entries.items())]
    _emit({"N": cfg.lam.N, "z": zratio, "starred": args.starred, "entries": entries},
          args.out)
    return 0


def _default_t(cfg: RunConfig) -> TVariables:
    return suites._rand_t(np.random.default_rng(cfg.seed + 31), cfg.lam)


def _cmd_wf(cfg: RunConfig, args) -> int:
    mp, pd, z, lam = cfg.mp, cfg.Pdyn, cfg.z, cfg.lam
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
            rows = weightfn.specialize_points([(J, pd, parts) for J in parts], z, mp)
            mat = {I: {J: row[k] for J, row in zip(parts, rows)} for k, I in enumerate(parts)}
        for I in parts:
            for J in parts:
                val = mat[I][J]
                records.append({"lambda": list(lam.sizes), "I": I.to_json(),
                                "J": J.to_json(), "value_re": val.real,
                                "value_im": val.imag})
    else:  # transition
        t = _default_t(cfg)
        cases = [(I.colors(), t, z, pd) for I in parts]
        for I, residuals in zip(parts, weightfn.transition_residuals(cases, mp)):
            for i, res in enumerate(residuals, 1):
                records.append({"lambda": list(lam.sizes), "I": I.to_json(),
                                "position": i, "residual": res})
    _emit({"action": args.action, "records": records}, args.out)
    return 0


def _cmd_gt(cfg: RunConfig, args) -> int:
    mp = replace(cfg.mp, k=0.0)  # the Gelfand-Tsetlin layer works at level 0
    pd, z = cfg.Pdyn, cfg.z
    parts = enumerate_partitions(cfg.lam)
    if args.action == "basis":
        records = []
        for I, state in zip(parts, gtrep.gt_vectors(parts, z, pd, mp)):
            row = [{"colors": list(cols), "re": coeff.real, "im": coeff.imag}
                   for cols, coeff in state.items_sorted()]
            records.append({"I": I.to_json(), "expansion": row})
        _emit({"action": "basis", "records": records}, args.out)
        return 0
    j, op = 1 if args.j is None else args.j, args.op or "e"
    if not 1 <= j <= cfg.lam.N - 1:
        raise ConfigError(f"--j must lie in 1..{cfg.lam.N - 1}")
    records = []
    for I in parts:
        if op == "phi":
            v = 0.3 + 0.1j
            val, tag = gtrep.phi_on_gt(j, v, I, z, mp)
            records.append({"I": I.to_json(), "eigenvalue_re": val.real,
                            "eigenvalue_im": val.imag, "tag": list(tag)})
        else:
            act = gtrep.e_on_gt if op == "e" else gtrep.f_on_gt
            terms = [{"site": trm.site, "re": trm.coeff.real,
                      "im": trm.coeff.imag, "target": trm.target.to_json(),
                      "tag": list(trm.tag)}
                     for trm in act(j, I, z, mp)]
            records.append({"I": I.to_json(), "terms": terms})
    _emit({"action": "act", "op": op, "j": j, "records": records}, args.out)
    return 0


def _cmd_qkz(cfg: RunConfig, args) -> int:
    mp, pd, z, lam = cfg.mp, cfg.Pdyn, cfg.z, cfg.lam
    I = enumerate_partitions(lam)[0]
    spec = qkz.IntegrandSpec(I=I, z=z, Pdyn=pd, mp=mp, trig=not args.elliptic,
                             Q=(0.2 if args.Q is None else args.Q) if args.elliptic else 0.0)
    G = 32 if args.gridsize is None else args.gridsize
    if G < 1:
        raise ConfigError(f"--gridsize must be >= 1, got {G}")
    if args.action == "eval":
        t = _default_t(cfg)
        val = qkz.integrand(spec, t)
        _emit({"action": "eval", "I": I.to_json(), "value_re": val.real,
               "value_im": val.imag}, args.out)
        return 0
    if args.action == "grid":
        # Every variable sits on the same circle point, where any two of them
        # (of one level or of adjacent levels) meet a kernel pole.
        if spec.n_vars > 1:
            raise ConfigError(f"qkz grid needs at most one variable per t-level and one "
                              f"in total; lambda={list(lam.sizes)} has {spec.n_vars}")
        rows = ["angle_index,re,im"]
        for k in range(G):
            w = cmath.exp(2j * math.pi * k / G)
            t = TVariables(tuple((w,) * lam.prefix(l) for l in range(1, lam.N)))
            try:
                val = qkz.integrand(spec, t)
                rows.append(f"{k},{val.real!r},{val.imag!r}")
            except ShapeError:  # no point of this shape can be evaluated
                raise
            except EllqgError:
                rows.append(f"{k},nan,nan")
        _emit("\n".join(rows) + "\n", args.out)
        return 0
    val, report = qkz.torus_quadrature(spec, grid_size=G)
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
    p_rmat.add_argument("--zratio", type=json.loads,
                        help="spectral ratio as JSON number or [re,im]")
    p_rmat.add_argument("--starred", action="store_true",
                        help="use the (p*, r*) bracket pair")

    p_wf = sub.add_parser("wf", parents=[common],
                          help="weight-function evaluations and identity data")
    p_wf.add_argument("action", choices=("eval", "triangularity", "transition", "stab"))

    p_gt = sub.add_parser("gt", parents=[common],
                          help="Gelfand-Tsetlin basis and current action")
    p_gt.add_argument("action", choices=("basis", "act"))
    p_gt.add_argument("--op", choices=("e", "f", "phi"),
                      help="current of gt act (default: e)")
    p_gt.add_argument("--j", type=int, help="simple root of gt act (default: 1)")

    p_qkz = sub.add_parser("qkz", parents=[common],
                           help="q-KZ integrand evaluation and quadrature")
    p_qkz.add_argument("action", choices=("eval", "grid", "quad"))
    p_qkz.add_argument("--gridsize", type=int,
                       help="points per circle of qkz grid and quad (default: 32)")
    p_qkz.add_argument("--elliptic", action="store_true",
                       help="use the elliptic kernel (default: trigonometric)")
    p_qkz.add_argument("--Q", type=float,
                       help="trace nome of the elliptic kernel (default: 0.2)")

    p_ver = sub.add_parser("verify", parents=[common],
                           help="run a verification suite")
    p_ver.add_argument("suite", nargs="?", default="all",
                       choices=(*suites.SUITE_NAMES, "all"))
    p_ver.add_argument("--break-shift", action="store_true",
                       help="negative control: disable dynamical-shift "
                            "bookkeeping (the gt suite must then fail)")
    return parser


# The actions that draw from the seed: every suite, and the random t of ``_default_t``.
_SEEDED = {("verify", None), ("wf", "eval"), ("wf", "transition"), ("qkz", "eval")}


def _ignored_flag(args) -> str | None:
    """The first flag given that the chosen action would not read."""
    action = (args.command, getattr(args, "action", None))
    if getattr(args, "seed", None) is not None and action not in _SEEDED:
        return "--seed applies only to verify, wf eval|transition and qkz eval"
    if getattr(args, "break_shift", False) and args.suite not in ("gt", "all"):
        return "--break-shift applies only to verify gt and verify all"
    if args.command == "gt" and args.action == "basis":
        for flag in ("op", "j"):
            if getattr(args, flag) is not None:
                return f"--{flag} applies only to gt act"
    if args.command == "qkz":
        if args.Q is not None and not args.elliptic:
            return "--Q needs --elliptic"
        if args.gridsize is not None and args.action == "eval":
            return "--gridsize applies only to qkz grid and quad"
    return None


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    ignored = _ignored_flag(args)
    if ignored:
        parser.error(ignored)
    for name in ("config", "out", "seed"):
        if not hasattr(args, name):
            setattr(args, name, None)
    try:
        cfg = parse_config(args.config)
        cfg = replace(cfg, seed=cfg.seed if args.seed is None else args.seed,
                      break_shift=getattr(args, "break_shift", False))
        # A value beyond the float range raises FloatRangeError, which the
        # report or exit code 2 carries; numpy's warnings on the way add nothing.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return COMMANDS[args.command](cfg, args)
    except (ConfigError, EllqgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
