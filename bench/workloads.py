"""Workload inputs, generated from a seed, and the gates that check outputs.

Inputs are made here, in the ``run.py`` process; a sample process receives
only the generated argv, config file or points.  Gates also run in
``run.py``, outside every timed region, and count failed operations.
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np

WORKLOADS = ("verify_all", "gt_basis", "qkz_trace")

# q-KZ integrand points evaluated by one sample.
QKZ_POINTS = 500
# Every QKZ_SYM_STRIDE-th point is re-evaluated with its two level-1 t
# entries swapped; the integrand must not change.
QKZ_SYM_STRIDE = 25

GT_TRIANGULAR_TOL = 1e-10
GT_DIAGONAL_TOL = 1e-9
QKZ_SYMMETRY_TOL = 1e-12


def _pair(x: complex) -> list[float]:
    return [float(x.real), float(x.imag)]


def _points(rng, n: int, lo: float, hi: float) -> list[complex]:
    """Moduli sorted in [lo, hi], phases uniform: the suites' generic points."""
    mods = np.sort(rng.uniform(lo, hi, n))
    phases = rng.uniform(0.0, 2.0 * math.pi, n)
    return [float(m) * cmath.exp(1j * float(ph)) for m, ph in zip(mods, phases)]


def _pdyn(rng, count: int) -> list[complex]:
    return [complex(rng.uniform(0.7, 1.6), rng.uniform(-0.5, 0.5))
            for _ in range(count)]


def make_inputs(workload: str, seed: int, workdir) -> dict:
    """Everything one sample needs, as plain JSON data; files go to workdir."""
    rng = np.random.default_rng(seed)
    out = str(workdir / "out.json")
    if workload == "verify_all":
        return {"kind": "cli", "out": out,
                "argv": ["verify", "all", "--seed", str(seed), "--out", out]}
    if workload == "gt_basis":
        config = {"q": 0.5, "r": 3.1, "k": 0.0, "N": 3, "n": 5,
                  "lambda": [2, 2, 1], "seed": seed,
                  "z": [_pair(x) for x in _points(rng, 5, 0.45, 0.95)],
                  "P": [_pair(x) for x in _pdyn(rng, 2)]}
        path = workdir / "gt_config.json"
        path.write_text(json.dumps(config))
        return {"kind": "cli", "out": out, "config": config,
                "argv": ["gt", "basis", "--config", str(path), "--out", out]}
    if workload == "qkz_trace":
        r = 3.1
        z = _points(rng, 4, 0.35, 0.7)
        P = _pdyn(rng, 1)
        t = [[_pair(m * cmath.exp(1j * ph)) for m, ph in
              zip(rng.uniform(0.4, 0.9, 2), rng.uniform(0.0, 2.0 * math.pi, 2))]
             for _ in range(QKZ_POINTS)]
        return {"kind": "qkz", "out": out,
                "spec": {"q": 0.8, "r": r, "k": r / 3.0, "Q": 0.2,
                         "lambda": [2, 2], "z": [_pair(x) for x in z],
                         "P": [_pair(x) for x in P]},
                "t": t}
    raise ValueError(f"unknown workload {workload!r}")


def build_qkz(spec: dict):
    """IntegrandSpec for the qkz_trace inputs: I the first label, J the last."""
    from ellqg.ellfn import ModularParams
    from ellqg.qkz import IntegrandSpec
    from ellqg.tensorspace import (Composition, DynamicalParams, EvaluationPoints,
                                   enumerate_partitions)

    mp = ModularParams(q=spec["q"], r=spec["r"], k=spec["k"])
    labels = enumerate_partitions(Composition(tuple(spec["lambda"])))
    z = EvaluationPoints(tuple(complex(*x) for x in spec["z"]), mp.q)
    pd = DynamicalParams(tuple(complex(*x) for x in spec["P"]))
    return IntegrandSpec(I=labels[0], z=z, Pdyn=pd, mp=mp, Q=spec["Q"],
                         J=labels[-1])


def t_point(levels):
    from ellqg.weightfn import TVariables
    return TVariables((tuple(complex(*x) for x in levels),))


def operations(workload: str, inputs: dict) -> int:
    """Operations one sample attempts: checks, GT labels or integrand points."""
    if workload == "verify_all":
        from ellqg import suites
        return len(suites.checks_for("all"))
    if workload == "gt_basis":
        from ellqg.tensorspace import Composition
        return Composition(tuple(inputs["config"]["lambda"])).count()
    return len(inputs["t"])


def gate(workload: str, inputs: dict, rc: int, output: bytes | None) -> int:
    """Failed operations in one sample's output (0 means it passes)."""
    total = operations(workload, inputs)
    if output is None:
        return total
    try:
        data = json.loads(output)
    except ValueError:
        return total
    if workload == "verify_all":
        return _gate_verify(rc, data, total)
    if rc != 0:
        return total
    if workload == "gt_basis":
        return _gate_gt(inputs["config"], data, total)
    return _gate_qkz(inputs, data, total)


def _gate_verify(rc: int, report: dict, total: int) -> int:
    checks = report.get("checks", [])
    failed = sum(1 for c in checks if not c.get("pass"))
    failed += max(0, total - len(checks))
    if rc != 0 or not report.get("all_pass"):
        failed = max(failed, 1)
    return min(failed, total)


def _gate_gt(config: dict, report: dict, total: int) -> int:
    """The checks of gt.basis_triangular and gt.basis_diagonal, per label."""
    from ellqg.ellfn import ModularParams
    from ellqg.tensorspace import (Composition, EvaluationPoints, PartitionIndex,
                                   enumerate_partitions, leq)
    from ellqg.weightfn import diagonal_value

    mp = ModularParams(q=config["q"], r=config["r"], k=0.0)
    labels = enumerate_partitions(Composition(tuple(config["lambda"])))
    zinv = EvaluationPoints(tuple(1.0 / complex(*x) for x in config["z"]), mp.q)
    records = {PartitionIndex.from_json(rec["I"]): rec["expansion"]
               for rec in report.get("records", [])}
    failed = 0
    for I in labels:
        row = records.get(I)
        if row is None:
            failed += 1
            continue
        coeff = {tuple(e["colors"]): complex(e["re"], e["im"]) for e in row}
        if not all(cmath.isfinite(c) for c in coeff.values()):
            failed += 1
            continue
        tri = max((abs(coeff.get(J.colors(), 0.0)) for J in labels
                   if not leq(I, J)), default=0.0)
        ref = diagonal_value(I, zinv, mp)
        diag = abs(coeff.get(I.colors(), 0.0) - ref) / max(1e-30, abs(ref))
        if not (tri <= GT_TRIANGULAR_TOL and diag <= GT_DIAGONAL_TOL):
            failed += 1
    return min(total, failed + max(0, len(records) - len(labels)))


def _gate_qkz(inputs: dict, values, total: int) -> int:
    """Every value finite; the level-1 swap symmetry on a strided subset."""
    from ellqg.errors import EllqgError
    from ellqg.qkz import integrand

    if not isinstance(values, list) or len(values) != total:
        return total
    spec = build_qkz(inputs["spec"])
    failed = 0
    for i, (val, levels) in enumerate(zip(values, inputs["t"])):
        if val is None or not all(math.isfinite(x) for x in val):
            failed += 1
            continue
        if i % QKZ_SYM_STRIDE:
            continue
        a = complex(*val)
        try:
            b = integrand(spec, t_point(levels[::-1]))
        except EllqgError:
            failed += 1
            continue
        if not abs(a - b) <= QKZ_SYMMETRY_TOL * abs(a):
            failed += 1
    return failed
