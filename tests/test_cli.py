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
from ellqg.tensorspace import Composition, enumerate_partitions

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
    assert cfg.mp.q == 0.5
    assert cfg.Pdyn.P == (1.7 + 0j,)
    assert cfg.z.z == (0.8 + 0j, 0.9j)
    assert cfg.mp.trunc_eps == 1e-14
    assert cfg.mp.max_terms == 512
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


# Malformed fields: each is refused at parse time, for every command, with
# exit 2 and one error line that names the field; no value is coerced.
MALFORMED = [
    ({"lambda": [2.9, 0]}, "'lambda'"),
    ({"lambda": "11"}, "'lambda'"),
    ({"lambda": 2}, "'lambda'"),
    ({"lambda": [1, "a"]}, "'lambda'"),
    ({"lambda": [1, True]}, "'lambda'"),
    ({"seed": 2.5}, "'seed'"),
    ({"seed": True}, "'seed'"),
    ({"max_terms": 600.9}, "'max_terms'"),
    ({"N": True, "lambda": [2]}, "'N'"),
    ({"r": True}, "'r'"),
    ({"q": "0.5"}, "'q'"),
    ({"r": float("nan")}, "'r'"),
    ({"trunc_eps": float("inf")}, "'trunc_eps'"),
    ({"P": 1.2}, "'P'"),
    ({"P": [True]}, "'P'"),
    ({"z": 0.5}, "'z'"),
    ({"z": [[0.55, False], [0.2, -0.75]]}, "'z'"),
    ({"z": [[0.55, 0.1, 0.0], [0.2, -0.75]]}, "'z'"),
    ({"lambda": [3, -1]}, "nonnegative"),
    ({"seed": -3}, "'seed'"),
]


@pytest.mark.parametrize("data, names", MALFORMED, ids=[json.dumps(d) for d, _ in MALFORMED])
def test_malformed_field_exits_2_with_one_error_line(tmp_path, capsys, data, names):
    path = write_config(tmp_path, {**MINIMAL, **data})
    for argv in (["verify", "wf"], ["wf", "eval"]):
        assert main(["--config", path, *argv]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and not captured.out
        assert names in lines[0]


def test_strict_readers_accept_integral_numbers_and_pairs():
    cfg = build_config({**MINIMAL, "r": 3, "N": 2.0, "max_terms": 512.0, "seed": 7.0,
                        "P": [[1, 0]], "z": [1, [0, -1]]})
    assert (cfg.mp.r, cfg.mp.max_terms, cfg.lam.N, cfg.seed) == (3.0, 512, 2, 7)
    assert type(cfg.mp.r) is float and type(cfg.seed) is int
    assert cfg.Pdyn.P == (1 + 0j,) and cfg.z.z == (1 + 0j, -1j)


def test_zratio_that_is_not_a_number_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rmat", "--zratio", "abc"])
    assert exc.value.code == 2 and "argument --zratio" in capsys.readouterr().err
    for text in ("[1, 2, 3]", "true", '"0.5"'):
        assert main(["rmat", "--zratio", text]) == 2
        assert capsys.readouterr().err.startswith("error: field 'zratio'")
    assert main(["rmat", "--zratio", "[0.8, 0.1]"]) == 0


@pytest.mark.parametrize("argv", [["verify", "wf"], ["wf", "eval"], ["wf", "triangularity"],
                                  ["wf", "transition"], ["wf", "stab"], ["gt", "basis"],
                                  ["rmat"]], ids=" ".join)
def test_weightfn_and_rmat_never_read_k(tmp_path, capsys, argv):
    # Weight functions and R-bars read p = q^(2r) only; k enters p* and r*,
    # which they never use, and the gt layer runs at k = 0.
    assert main(argv) == 0
    default = capsys.readouterr().out
    assert main(["--config", write_config(tmp_path, {"k": 0.8}), *argv]) == 0
    assert capsys.readouterr().out == default


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
    with pytest.raises(FloatRangeError, match=r"\[1\] underflows"):
        rbar(0.9 * cmath.exp(0.4j), cfg.Pdyn, cfg.mp)


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


# Every failing row of ``verify all`` at q = 0.999 with a cap the products fit
# in: the brackets leave the float range, and each row names where.
Q999_FAILING = {
    "ellfn.bracket_derivative": "[0]' underflows: |[0]'| = 0",
    "ellfn.bracket_quasi_period_r":
        "[0.365273-0.358489j] underflows: |[0.365273-0.358489j]| = 0",
    "ellfn.bracket_quasi_period_rtau": "[-0.680927+3139.69j] overflows",
    "ellfn.gamma_reflection":
        "elliptic Gamma overflows at z=(-0.1271083610324621+0.6335979020288284j)",
    "ellfn.gamma_trig_limit": None,
    "ellfn.theta_quasi_periodicity":
        "theta_p(1.27883+0.0220065j) underflows: |theta_p(1.27883+0.0220065j)| = 0",
    "ellfn.truncation_stability":
        "[-0.742667+0.469995j] underflows: |[-0.742667+0.469995j]| = 0",
    **dict.fromkeys(["gt.basis_diagonal", "gt.basis_triangular", "gt.exchange_commuting",
                     "gt.exchange_ee", "gt.exchange_ff", "rmat.dybe_n2", "rmat.dybe_n3",
                     "rmat.ice_rule", "rmat.inversion", "rmat.unit_permutation", "wf.diagonal",
                     "wf.stable_envelope", "wf.symmetry", "wf.triangularity"],
                    "[1] underflows: |[1]| = 0"),
    "gt.phi_ratio": "[25.7656-1517.8j] overflows",
    "qkz.quadrature_convergence": "spectral point (0.35000317772109635+0.1479789700772872j) "
                                  "outside the contour domain |p| < |z| < 1",
    "wf.modified_routes": "[-103.072+2136.65j] overflows",
    "wf.transition": "[-186.916+1872.87j] overflows",
}


def test_verify_all_failing_rows_at_q_0999_are_pinned(tmp_path, capsys):
    path = write_config(tmp_path, {"q": 0.999, "max_terms": 40000})
    assert main(["--config", path, "verify", "all"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert len(Q999_FAILING) == 25
    assert {c["id"]: c.get("error") for c in report["checks"] if not c["pass"]} == Q999_FAILING


# float.hex of (re, im) of the starred outputs, computed when the bracket
# functions took a flag for the (p*, r*) pair; they now read the parameters
# (q, r*, k=0), whose p and r are p* and r* bit for bit.
STARRED_BRACKETS = {
    0.0: [("0x1.17817cedb1ebap-1", "-0x1.42db23a3c5bf3p-3"),
          ("0x1.714e9cb722142p-2", "0x1.6eb20706a78aep+0")],
    0.8: [("0x1.f5beb861536a3p-2", "-0x1.10c05daa72b2cp-3"),
          ("0x1.b8115e5c642ccp-2", "0x1.72e90c5fc4de7p+0")],
}
STARRED_RBAR = {
    0.0: {((1, 2), (1, 2)): ("0x1.db60d586de55ap-3", "-0x1.01b6997af7e22p-3"),
          ((1, 2), (2, 1)): ("0x1.afc951413f049p-1", "0x1.62dc93f2300e8p-1"),
          ((2, 1), (1, 2)): ("0x1.646c506579af7p-1", "0x1.9baa66c129cedp-5"),
          ((2, 1), (2, 1)): ("0x1.bb6a8950748a0p-2", "-0x1.66536f10af296p-1")},
    0.8: {((1, 2), (1, 2)): ("0x1.9cbbd5552c198p-9", "-0x1.60552bdcfdb56p-3"),
          ((1, 2), (2, 1)): ("0x1.4dcf5f56c7276p+0", "0x1.b99496ef46898p-3"),
          ((2, 1), (1, 2)): ("0x1.356bb3a64ddebp-1", "0x1.264c8ade7b30bp-3"),
          ((2, 1), (2, 1)): ("0x1.cdae0b5a122e8p-3", "-0x1.c3ecf4205a2fbp-1")},
}


@pytest.mark.parametrize("k", [0.0, 0.8])
def test_starred_outputs_are_pinned_bit_for_bit(tmp_path, capsys, k):
    path = write_config(tmp_path, {"k": k})
    assert main(["--config", path, "theta"]) == 0
    values = json.loads(capsys.readouterr().out)["values"]
    assert [(v["bracket_u_starred"]["re"].hex(), v["bracket_u_starred"]["im"].hex())
            for v in values] == STARRED_BRACKETS[k]
    assert main(["--config", path, "rmat", "--starred"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["starred"] is True
    entries = {(tuple(e["in"]), tuple(e["out"])): (e["re"].hex(), e["im"].hex())
               for e in out["entries"]}
    one = ("0x1.0000000000000p+0", "0x0.0p+0")
    assert entries == {((1, 1), (1, 1)): one, ((2, 2), (2, 2)): one, **STARRED_RBAR[k]}


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


@pytest.mark.parametrize("argv, flag", [
    (["qkz", "eval", "--Q", "0.7"], "--Q"),
    (["qkz", "grid", "--Q", "0.7"], "--Q"),
    (["qkz", "quad", "--gridsize", "4", "--Q", "0.7"], "--Q"),
    (["gt", "basis", "--j", "2"], "--j"),
    (["gt", "basis", "--op", "phi"], "--op"),
    (["qkz", "eval", "--gridsize", "8"], "--gridsize"),
    (["theta", "--seed", "1"], "--seed"),
    (["--seed", "1", "rmat"], "--seed"),
    (["wf", "triangularity", "--seed", "1"], "--seed"),
    (["--seed", "1", "wf", "stab"], "--seed"),
    (["gt", "basis", "--seed", "1"], "--seed"),
    (["gt", "act", "--seed", "1"], "--seed"),
    (["qkz", "grid", "--seed", "1"], "--seed"),
    (["qkz", "quad", "--seed", "1"], "--seed"),
    (["verify", "ellfn", "--break-shift"], "--break-shift"),
    (["verify", "rmat", "--break-shift"], "--break-shift"),
    (["verify", "wf", "--break-shift"], "--break-shift"),
    (["verify", "qkz", "--break-shift"], "--break-shift"),
])
def test_a_flag_the_action_ignores_is_a_usage_error(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_flags_the_action_reads_still_apply(capsys):
    # The defaults stand for the flags left out; each given flag changes the output.
    outputs = {}
    for name, argv in [("eval", ["qkz", "eval", "--elliptic"]),
                       ("eval_Q", ["qkz", "eval", "--elliptic", "--Q", "0.02"]),
                       ("eval_seed", ["--seed", "5", "qkz", "eval", "--elliptic"]),
                       ("wf", ["wf", "transition"]),
                       ("wf_seed", ["wf", "transition", "--seed", "5"]),
                       ("grid", ["qkz", "grid", "--gridsize", "4"]),
                       ("grid_default", ["qkz", "grid"]),
                       ("act", ["gt", "act"]),
                       ("act_f", ["gt", "act", "--op", "f", "--j", "1"])]:
        assert main(argv) == 0
        outputs[name] = capsys.readouterr().out
    assert outputs["eval"] != outputs["eval_Q"] and outputs["eval"] != outputs["eval_seed"]
    assert outputs["wf"] != outputs["wf_seed"]
    assert outputs["grid"].count("\n") == 5 and outputs["grid_default"].count("\n") == 33
    assert json.loads(outputs["act"])["op"] == "e" and outputs["act"] != outputs["act_f"]


# Configs the validator accepts and reproducers that once ended in a traceback.
_EDGE_INPUTS = {
    "N=1": {"N": 1, "n": 2, "lambda": [2], "P": []},
    "p underflows": {"r": 600},
    "q=1e-300": {"q": 1e-300},
    "r=1e-9": {"r": 1e-9},
    "z ratio underflows": {"z": [1e-300, 1e300]},
    "rmat --zratio 0": {},
    "seed=-3": {"seed": -3},
}
# Refused at every config: a grid size below 1 or a negative seed.
_REFUSED_ARGVS = [["qkz", "quad", "--gridsize", "0"], ["qkz", "quad", "--gridsize", "-3"],
                  ["qkz", "grid", "--gridsize", "0"], ["verify", "ellfn", "--seed", "-1"],
                  ["wf", "eval", "--seed", "-40"]]
_EDGE_ARGVS = [["wf", "eval"], ["wf", "triangularity"], ["wf", "transition"], ["wf", "stab"],
               ["gt", "basis"], ["qkz", "eval"], ["qkz", "eval", "--elliptic"], ["qkz", "grid"],
               ["qkz", "quad"], ["verify", "ellfn"], ["verify", "qkz"], ["verify", "all"],
               ["theta"], ["rmat"], ["rmat", "--zratio", "0"], *_REFUSED_ARGVS]


@pytest.mark.parametrize("name", _EDGE_INPUTS)
def test_no_accepted_input_ends_in_a_traceback(tmp_path, capsys, name):
    path = write_config(tmp_path, _EDGE_INPUTS[name])
    for argv in _EDGE_ARGVS:
        try:
            rc = main(["--config", path, "--out", str(tmp_path / "out"), *argv])
        except SystemExit as exc:  # argparse's usage error
            rc = exc.code
            assert rc == 2, argv
        else:
            assert rc in (0, 1, 2), argv
            err = capsys.readouterr().err.splitlines()
            assert err == [] if rc != 2 else len(err) == 1 and err[0].startswith("error: "), argv
        if name == "seed=-3" or argv in _REFUSED_ARGVS:
            assert rc == 2, argv
        elif name == "N=1" and "--zratio" not in argv:  # only weight functions need two colors
            assert rc == (2 if argv[0] in ("wf", "gt", "qkz") else 0), argv


def test_qkz_grid_refuses_two_variables_in_a_level(tmp_path, capsys):
    path = write_config(tmp_path, {**MINIMAL, "n": 3, "lambda": [2, 1],
                                   "z": [0.5, [0.3, -0.6], [0.7, 0.2]]})
    assert main(["--config", path, "qkz", "grid", "--gridsize", "8"]) == 2
    assert "at most one variable per t-level" in capsys.readouterr().err


@pytest.mark.parametrize("elliptic", [[], ["--elliptic"]])
def test_qkz_grid_refuses_two_variables_in_different_levels(tmp_path, capsys, elliptic):
    # t^(1)_1 and t^(2)_1 on one circle point are a kernel pole: every row
    # would read nan.
    path = write_config(tmp_path, {**MINIMAL, "N": 3, "lambda": [1, 0, 1], "P": [1.7, 0.9]})
    assert main(["--config", path, "qkz", "grid", "--gridsize", "4", *elliptic]) == 2
    assert "lambda=[1, 0, 1] has 2" in capsys.readouterr().err


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


def test_wf_transition_records(tmp_path, capsys):
    # One record per (label, position), labels in enumeration order, then positions.
    config = {**MINIMAL, "N": 3, "n": 4, "lambda": [2, 1, 1], "P": [1.7, [0.9, -0.4]],
              "z": [[0.8, 0.0], [0.0, 0.9], [-0.5, 0.3], [0.2, -0.6]]}
    assert main(["--config", write_config(tmp_path, config), "wf", "transition"]) == 0
    records = json.loads(capsys.readouterr().out)["records"]
    labels = enumerate_partitions(Composition((2, 1, 1)))
    assert [(rec["I"], rec["position"]) for rec in records] == [
        (I.to_json(), i) for I in labels for i in (1, 2, 3)]
    assert all(rec["lambda"] == [2, 1, 1] for rec in records)
    assert all(rec["residual"] <= 1e-9 for rec in records)


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


@pytest.mark.parametrize("seed", [0, 3])
def test_each_suite_reports_its_verify_all_rows(seed):
    # A check draws its inputs from its place in 'all', whichever suite runs it.
    cfg = build_config({"seed": seed})
    rows = {c["id"]: json.dumps(c) for c in run_suite("all", cfg)["checks"]}
    for suite in suites.SUITE_NAMES:
        checks = run_suite(suite, cfg)["checks"]
        assert [json.dumps(c) for c in checks] == [rows[c["id"]] for c in checks], suite


@pytest.mark.parametrize("argv", [["gt", "basis"], ["wf", "triangularity"]], ids=" ".join)
def test_equal_spectral_points_exit_2(tmp_path, capsys, argv):
    path = write_config(tmp_path, {**MINIMAL, "z": [[0.8, 0.1], [0.8, 0.1]]})
    assert main(["--config", path, *argv]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and not captured.out
    assert "pairwise distinct" in lines[0]


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


# Refusals no other test reaches: (config file text, argv, text of the error line).
REFUSALS = [
    pytest.param(json.dumps({"N": 0}), ["theta"], "field 'N': must be >= 1, got 0", id="N=0"),
    pytest.param("{", ["theta"], "config is not valid JSON", id="invalid JSON"),
    pytest.param("[1, 2]", ["theta"], "config must be a JSON object", id="not an object"),
    pytest.param("{}", ["gt", "act", "--j", "5"], "--j must lie in 1..1", id="gt act --j 5"),
]


@pytest.mark.parametrize("text, argv, error", REFUSALS)
def test_refusals(tmp_path, capsys, text, argv, error):
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main(["--config", str(path), *argv]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and not captured.out
    assert error in lines[0]


def test_qkz_grid_marks_a_point_it_cannot_evaluate_nan(tmp_path, capsys):
    # At angle 0 the one variable sits at t = 1, so t/z_1 = 5 = 1/Q with the
    # default Q = 0.2: a pole of the kernel's elliptic Gamma factor.  That row
    # reads nan, the others values.
    path = write_config(tmp_path, {"z": [0.2, [0.3, -0.4]]})
    assert main(["--config", path, "qkz", "grid", "--elliptic", "--gridsize", "4"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[:2] == ["angle_index,re,im", "0,nan,nan"]
    assert len(rows) == 5 and all("nan" not in row for row in rows[2:])
