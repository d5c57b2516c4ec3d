import cmath
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from ellqg import suites
from ellqg.cli import ConfigError, build_config, main, parse_config, run_suite
from ellqg.errors import FloatRangeError
from ellqg.rmat import rbar

MINIMAL = {
    "q": 0.5, "r": 3.0, "k": 0.0, "N": 2, "n": 2, "lambda": [1, 1],
    "P": [1.7], "z": [[0.8, 0.0], [0.0, 0.9]],
}


def write_config(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_parse_minimal_config(tmp_path):
    cfg = parse_config(write_config(tmp_path, MINIMAL))
    assert cfg.q == 0.5
    assert cfg.P == (1.7 + 0j,)
    assert cfg.z == (0.8 + 0j, 0.9j)
    assert cfg.trunc_eps == 1e-14
    assert cfg.max_terms == 512
    assert cfg.seed == 0


def test_parse_rejects_bad_q(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path, {**MINIMAL, "q": 1.5}))


def test_parse_rejects_r_equal_k(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path, {**MINIMAL, "k": 3.0}))


def test_parse_rejects_shape_mismatch(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path, {**MINIMAL, "lambda": [2, 1]}))
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path, {**MINIMAL, "P": [1.0, 2.0]}))


def test_parse_rejects_unknown_key(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path, {**MINIMAL, "mystery": 1}))


def test_parse_missing_file():
    with pytest.raises(ConfigError):
        parse_config("/nonexistent/config.json")


def test_exit_code_2_on_bad_config(tmp_path, capsys):
    path = write_config(tmp_path, {**MINIMAL, "q": -1.0})
    assert main(["--config", path, "theta"]) == 2


def test_format_key_is_unknown(tmp_path, capsys):
    path = write_config(tmp_path, {**MINIMAL, "format": "json"})
    assert main(["--config", path, "theta"]) == 2
    assert "unknown config keys: ['format']" in capsys.readouterr().err


def test_theta_near_one_fails_loudly(tmp_path):
    path = write_config(tmp_path, {"q": 0.999})
    assert main(["--config", path, "theta"]) == 2


def test_theta_honours_config_max_terms(tmp_path, capsys):
    # 12,000-factor products in mpmath at 30 digits give the reference value.
    path = write_config(tmp_path, {"q": 0.999, "max_terms": 40000})
    assert main(["--config", path, "theta"]) == 0
    val = json.loads(capsys.readouterr().out)["values"][0]["theta_p"]
    ref = 1.3515556515894119e-294 - 3.6166238418551259e-295j
    assert abs(complex(val["re"], val["im"]) - ref) < 1e-10 * abs(ref)


def test_bracket_underflow_raises_library_error():
    cfg = build_config({"q": 0.999, "max_terms": 40000})
    with pytest.raises(FloatRangeError, match="underflows"):
        suites.check_bracket_quasi_period_r(cfg, np.random.default_rng(0))
    with pytest.raises(FloatRangeError, match="underflows"):  # not a pass on 0 == 0
        suites.check_truncation_stability(cfg, np.random.default_rng(0))
    with pytest.raises(FloatRangeError, match=r"\[s\]\^2 \[u\+1\] for pair \(1, 2\)"):
        rbar(0.9 * cmath.exp(0.4j), cfg.dynamical(), cfg.modular())


@pytest.mark.parametrize("suite", ["ellfn", "rmat", "wf", "gt"])
def test_bracket_underflow_is_a_failing_row(tmp_path, capsys, suite):
    # q = 0.999 with a cap the products fit in: the brackets underflow to 0.
    path = write_config(tmp_path, {"q": 0.999, "max_terms": 40000})
    assert main(["--config", path, "verify", suite]) == 1
    report = json.loads(capsys.readouterr().out)
    errors = {c["id"]: c.get("error", "") for c in report["checks"]}
    hit = {"ellfn": "ellfn.bracket_quasi_period_r", "rmat": "rmat.inversion",
           "wf": "wf.diagonal", "gt": "gt.basis_triangular"}[suite]
    assert "underflows" in errors[hit]


def test_suites_honour_config_truncation():
    # q = 0.99 needs more factors than the built-in cap of 512.
    cfg = build_config({"q": 0.99, "max_terms": 4096})
    for check in (suites.check_theta_quasi_periodicity, suites.check_gamma_trig_limit,
                  suites.check_truncation_stability):
        residual, _ = check(cfg, np.random.default_rng(0))
        assert np.isfinite(residual)


def test_overflow_fails_a_check_instead_of_a_nan_residual():
    # q = 0.99: modified weight functions leave the float range, so the check
    # must raise, not pass on comparisons of nan that max() drops.
    cfg = build_config({"q": 0.99, "max_terms": 4096})
    with pytest.raises(FloatRangeError, match="overflows"):
        suites.check_wf_modified_routes(cfg, np.random.default_rng(2))


def test_suite_fold_keeps_a_nan(monkeypatch):
    # A nan from the library must fail the row, not vanish in max(worst, nan).
    monkeypatch.setattr(suites.weightfn, "triangularity_violations",
                        lambda *a: float("nan"))
    residual, tol = suites.check_wf_triangularity(build_config({}),
                                                  np.random.default_rng(0))
    assert not residual <= tol


def test_unknown_suite_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nosuchsuite"])
    assert exc.value.code == 2


def test_gt_verify_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["gt", "verify"])
    assert exc.value.code == 2


def test_qkz_grid_refuses_two_variables_in_a_level(tmp_path, capsys):
    path = write_config(tmp_path, {**MINIMAL, "n": 3, "lambda": [2, 1],
                                   "z": [0.5, [0.3, -0.6], [0.7, 0.2]]})
    assert main(["--config", path, "qkz", "grid", "--gridsize", "8"]) == 2
    assert "at most one variable per t-level" in capsys.readouterr().err


def test_theta_command_runs(capsys):
    assert main(["theta"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert "values" in out and len(out["values"]) == 2


def test_rmat_command_entries(capsys):
    assert main(["rmat"]) == 0
    out = json.loads(capsys.readouterr().out)
    pairs = {(tuple(e["in"]), tuple(e["out"])) for e in out["entries"]}
    assert ((1, 2), (2, 1)) in pairs
    assert ((1, 1), (1, 1)) in pairs


def test_wf_eval_and_triangularity(capsys):
    assert main(["wf", "eval"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["records"]) == 2
    assert main(["wf", "triangularity"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["records"]) == 4


def test_gt_basis_and_act(capsys):
    assert main(["gt", "basis"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["records"]) == 2
    # e_1 tags each term with the first simple root, f_1 tags none, and the
    # diagonal current carries the tag of e_1.
    for op, tag in (("e", [1]), ("f", [0])):
        assert main(["gt", "act", "--op", op, "--j", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["op"] == op
        terms = [t for rec in out["records"] for t in rec["terms"]]
        assert len(terms) == 2
        assert all(t["tag"] == tag for t in terms)
    assert main(["gt", "act", "--op", "phi", "--j", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["op"] == "phi"
    assert [rec["tag"] for rec in out["records"]] == [[1], [1]]


def test_qkz_eval_and_quad(capsys):
    assert main(["qkz", "eval"]) == 0
    json.loads(capsys.readouterr().out)
    assert main(["qkz", "quad", "--gridsize", "8"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert "report" in out


def test_run_suite_report_shape():
    cfg = build_config({})
    report = run_suite("ellfn", cfg)
    assert report["all_pass"]
    for check in report["checks"]:
        assert set(check) >= {"id", "residual", "tolerance", "pass"}


def test_run_suite_unknown_name():
    cfg = build_config({})
    with pytest.raises(ConfigError):
        run_suite("nope", cfg)


def test_verify_determinism(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["--out", str(out1), "--seed", "3", "verify", "ellfn"]) == 0
    assert main(["--out", str(out2), "--seed", "3", "verify", "ellfn"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_seed_changes_draws(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["--out", str(out1), "--seed", "3", "verify", "ellfn"]) == 0
    assert main(["--out", str(out2), "--seed", "4", "verify", "ellfn"]) == 0
    assert out1.read_bytes() != out2.read_bytes()


def test_break_shift_fails_gt_suite(tmp_path):
    assert main(["--out", str(tmp_path / "r.json"), "verify", "gt",
                 "--break-shift"]) == 1
    report = json.loads((tmp_path / "r.json").read_text())
    failed = {c["id"] for c in report["checks"] if not c["pass"]}
    assert "gt.exchange_ee" in failed


def test_cli_entry_point_subprocess():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "ellqg.cli", "verify", "rmat"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["all_pass"]


def _resonant_config(N, sizes):
    """q=0.5, r=3.1 and z_2 = q^2 z_1: a resonant pair of spectral points."""
    z1 = 0.6 * cmath.exp(0.3j)
    z = [z1, 0.25 * z1, 0.8 * cmath.exp(-1j)][:sum(sizes)]
    return {"q": 0.5, "r": 3.1, "N": N, "n": len(z), "lambda": list(sizes),
            "P": [[1.2, 0.3], [0.9, -0.2]][:N - 1], "z": [[x.real, x.imag] for x in z]}


@pytest.mark.parametrize("config, argv", [
    (_resonant_config(2, (1, 1)), ["wf", "triangularity"]),
    (_resonant_config(3, (1, 1, 1)), ["gt", "basis"]),
    ({**MINIMAL, "N": 3, "n": 3, "lambda": [1, 1, 1], "P": [1.2, 0.9],
      "z": [[0.5, 0.1], [-0.3, 0.6], [0.2, -0.8]]}, ["qkz", "quad", "--gridsize", "4"]),
])
def test_pole_exits_2_with_one_error_line(tmp_path, config, argv):
    # A resonant specialization and a torus grid point on a kernel divisor
    # raise PoleError; no traceback escapes.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-m", "ellqg.cli", "--config",
                           write_config(tmp_path, config), *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert "Traceback" not in proc.stderr and "vanish" in lines[0]


def test_gt_basis_output_does_not_depend_on_the_hash_seed(tmp_path):
    # Each process hashes str keys with its own seed; nothing in a report may
    # follow the order of a set or of a dict built in hash order.
    cfg = write_config(tmp_path, {**MINIMAL, "N": 3, "n": 4, "lambda": [2, 1, 1],
                                  "P": [[1.2, 0.3], [0.9, -0.2]],
                                  "z": [[0.5, 0.1], [-0.3, 0.6], [0.2, -0.8], [0.7, 0.4]]})
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-m", "ellqg.cli", "--config", cfg, "gt", "basis"],
                              capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] and json.loads(outputs[0])["records"]


def test_shipped_default_config_matches_builtin():
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    shipped = os.path.join(here, "configs", "default.json")
    assert parse_config(shipped) == build_config({})


def test_shared_flags_valid_before_and_after_subcommand(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["--seed", "3", "--out", str(out1), "verify", "ellfn"]) == 0
    assert main(["verify", "ellfn", "--seed", "3", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
