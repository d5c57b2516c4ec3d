"""Tests of the benchmark itself: gate liveness and tracer fidelity.

Run from the root of a checkout:

    python3 -m pytest -q bench/selftest.py

The file name keeps it out of the library's own test run.
"""

import cProfile
import json
import pstats
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SMALL_GT = {"q": 0.5, "r": 3.1, "k": 0.0, "N": 2, "n": 3, "lambda": [2, 1],
            "z": [[0.5, 0.1], [-0.3, 0.6], [0.2, -0.8]], "P": [[1.2, 0.3]]}


def small_gt_job(tmp_path: Path) -> dict:
    cfg = tmp_path / "gt_config.json"
    cfg.write_text(json.dumps(SMALL_GT))
    out = str(tmp_path / "out.json")
    return {"kind": "cli", "out": out, "config": SMALL_GT,
            "argv": ["gt", "basis", "--config", str(cfg), "--out", out]}


def runner(tmp_path: Path) -> run.Runner:
    return run.Runner(tmp_path, deadline=time.perf_counter() + 120.0)


# ------------------------------------------------------------- gates ----

def test_break_shift_run_is_failed_and_not_timed(tmp_path):
    inputs = workloads.make_inputs("verify_all", 40, tmp_path)
    inputs["argv"].append("--break-shift")
    rec = runner(tmp_path).sample(inputs)
    assert rec["rc"] == 1
    attempted, failed, _ = run.gate_records(workloads, "verify_all", inputs, [rec])
    assert attempted == workloads.operations("verify_all", inputs) == 29
    assert failed >= 1 and rec["failed_ops"] == failed
    passing = dict(rec, failed_ops=0, run_s=rec["run_s"] / 2)
    assert run.timed_samples([rec, passing]) == [passing]


def test_gt_gate_passes_good_output_and_fails_one_perturbed_coefficient(tmp_path):
    job = small_gt_job(tmp_path)
    rec = runner(tmp_path).sample(job)
    assert rec["rc"] == 0 and not rec.get("error")
    labels = workloads.operations("gt_basis", job)
    assert labels == 3
    assert workloads.gate("gt_basis", job, 0, rec["output"]) == 0

    report = json.loads(rec["output"])
    entry = report["records"][1]["expansion"][0]
    entry["re"] *= 1.0 + 1e-7
    assert workloads.gate("gt_basis", job, 0, json.dumps(report).encode()) == 1


def test_gt_gate_fails_a_coefficient_below_the_triangle(tmp_path):
    job = small_gt_job(tmp_path)
    rec = runner(tmp_path).sample(job)
    report = json.loads(rec["output"])
    top = report["records"][-1]
    top["expansion"].append({"colors": [2, 1, 1], "re": 1e-6, "im": 0.0})
    assert workloads.gate("gt_basis", job, 0, json.dumps(report).encode()) == 1


def test_qkz_gate_catches_nonfinite_and_asymmetric_values(tmp_path):
    inputs = workloads.make_inputs("qkz_trace", 40, tmp_path)
    inputs["t"] = inputs["t"][:2 * workloads.QKZ_SYM_STRIDE]
    rec = runner(tmp_path).sample(inputs)
    assert workloads.gate("qkz_trace", inputs, 0, rec["output"]) == 0
    values = json.loads(rec["output"])
    values[1] = None
    values[workloads.QKZ_SYM_STRIDE][0] *= 1.0 + 1e-9
    assert workloads.gate("qkz_trace", inputs, 0, json.dumps(values).encode()) == 2


def test_digest_mismatch_fails_the_later_sample(tmp_path):
    job = small_gt_job(tmp_path)
    rec = runner(tmp_path).sample(job)
    other = dict(rec, output=rec["output"] + b" ")
    _, failed, _ = run.gate_records(workloads, "gt_basis", job, [rec, other])
    assert rec["failed_ops"] == 0 and other["failed_ops"] == failed == 3


# ------------------------------------------------------------ tracer ----

def profile_traced(argvs):
    """Run CLI calls with the tracer installed, under cProfile."""
    from ellqg import cli

    tracer = Tracer()
    tracer.install()
    profile = cProfile.Profile()
    try:
        for argv in argvs:
            assert profile.runcall(cli.main, argv) == 0
    finally:
        tracer.uninstall()
    return tracer, pstats.Stats(profile).stats


def test_wrapper_counts_equal_cprofile_ncalls(tmp_path):
    cfg = tmp_path / "gt_config.json"
    cfg.write_text(json.dumps(SMALL_GT))
    tracer, stats = profile_traced([
        ["gt", "basis", "--config", str(cfg), "--out", str(tmp_path / "gt.json")],
        ["verify", "ellfn", "--out", str(tmp_path / "ellfn.json")],
        ["verify", "qkz", "--out", str(tmp_path / "qkz.json")],
    ])
    ncalls = {}
    for (filename, line, name), (_, calls, *_rest) in stats.items():
        ncalls[filename, line, name] = calls
    checked = 0
    for key, fn in tracer.functions.items():
        code = fn.__code__
        expected = ncalls.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
        assert tracer.total_calls(key) == expected, key
        checked += expected > 0
    assert checked >= 20
    for key in ("ellfn.qpoch", "ellfn.theta", "ellfn.jacobi_bracket", "ellfn.ell_gamma",
                "weightfn.u_tilde", "weightfn.specialize", "gtrep.gt_vector",
                "tensorspace.shifted_by_colors", "suites.ellfn.gamma_reflection"):
        assert tracer.total_calls(key) > 0, key


def test_every_module_copy_is_wrapped():
    import ellqg
    from ellqg import cli, ellfn, gtrep, qkz, rmat, suites, weightfn

    copies = [(weightfn, "jacobi_bracket"), (rmat, "jacobi_bracket"),
              (gtrep, "jacobi_bracket"), (gtrep, "qpoch"), (gtrep, "theta"),
              (gtrep, "specialize"), (qkz, "ell_gamma"), (qkz, "qpoch"),
              (qkz, "w_tilde"), (suites, "theta"), (cli, "theta"), (cli, "rbar"),
              (ellqg, "gt_vector")]
    originals = [getattr(module, attr) for module, attr in copies]
    tracer = Tracer()
    tracer.install()
    try:
        for (module, attr), fn in zip(copies, originals):
            current = getattr(module, attr)
            assert current is not fn and current.__wrapped__ is fn, (module, attr)
        assert all(fn.__wrapped__ for _, fn in suites.checks_for("all"))
    finally:
        tracer.uninstall()
    assert weightfn.jacobi_bracket is ellfn.jacobi_bracket
    assert not hasattr(suites.checks_for("all")[0][1], "__wrapped__")


def test_traced_output_is_byte_identical_and_counts_repeat(tmp_path):
    job = small_gt_job(tmp_path)
    r = runner(tmp_path)
    traced = [r.sample({**job, "trace": True}) for _ in range(2)]
    plain = r.sample(job)
    assert traced[0]["output"] == traced[1]["output"] == plain["output"]
    first, second = (rec["trace"] for rec in traced)
    assert first["calls_by_caller"] == second["calls_by_caller"]
    assert first["extra"] == second["extra"]
    assert first["calls"]["gtrep.gt_vector"] == 3
    spans = {s[0]: s for s in first["spans"]}
    specialize = [s for s in spans.values() if s[2] == "weightfn.specialize"]
    assert specialize and all(spans[s[1]][2] == "gtrep.gt_vector" for s in specialize)


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)


def test_missing_library_exits_nonzero_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "gt_basis", "--seed", "0", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_repeat_per_seed(workload, tmp_path):
    a = workloads.make_inputs(workload, 40, tmp_path)
    b = workloads.make_inputs(workload, 40, tmp_path)
    c = workloads.make_inputs(workload, 41, tmp_path)
    assert a == b and a != c
