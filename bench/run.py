"""Cold-start benchmark of the ellqg library and CLI.

Usage, from the root of a checkout:

    python3 bench/run.py --workload verify_all --seed 0 --seconds 36 --trace 0

Workloads: ``verify_all`` (``ellqg verify all`` on the default config),
``gt_basis`` (``ellqg gt basis`` at N=3, lambda=(2,2,1)) and ``qkz_trace``
(q-KZ integrand points with the trace insertion).  Inputs are generated
from ``--seed``.  Each sample runs in a fresh interpreter, one at a time,
so the library's caches start cold as in a user's call; samples are started
while the next one is expected to finish within ``--seconds``.  Outputs are
gated outside the timed region; a sample whose output fails its gate is not
timed as a success.

``--trace 0`` reports the end-to-end metrics, each the median over the
run's samples: time of the timed region (run_s) and its CPU time (cpu_s),
set-up time from interpreter start to "library imported and inputs built"
(setup_s, also from extra set-up-only processes), and the sample's peak RSS
(peak_rss_mb).  Times are in reference-host seconds: measured seconds scaled
by a host-speed kernel timed during the same sample (see calibrate.py), so
they do not drift with the load other tenants put on the machine.  The raw
wall and CPU times and failed_frac are printed alongside.  ``--trace 1``
alternates traced and untraced samples and reports per-layer metrics from
the traced ones (tracer.py); trace.overhead_s is the traced minus the
untraced run_s.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Extra set-up-only processes per untraced run, so setup_s is a median of
# several cold starts even when only two samples fit.
SETUP_PROBES = 5
END_TO_END = ("run_s", "cpu_s", "setup_s", "peak_rss_mb")
# Per-layer metrics on the final JSON line of a traced run: counts, ratios,
# and the times of layers that every workload exercises (a layer a workload
# never enters would read exactly 0 s on every run).  The full table, with
# the per-check and layer-specific times, is printed above that line.
PER_LAYER = (
    "ellfn.jacobi_bracket.calls", "ellfn.jacobi_bracket.s", "ellfn.us_per_bracket",
    "ellfn.ell_gamma.calls", "ellfn.theta.calls", "ellfn.qpoch.calls",
    "ellfn.qpoch.cache_hit_ratio", "ellfn.self_s",
    "weightfn.u_tilde.calls", "weightfn.u_tilde.zero_frac",
    "weightfn.brackets_per_term", "weightfn.specialize.calls",
    "weightfn.specialize.limit_rule", "weightfn.w_tilde.calls", "weightfn.self_s",
    "rmat.rbar.calls", "tensorspace.calls", "gtrep.gt_vector.calls",
    "gtrep.gt_vector.nnz", "qkz.integrand.calls",
    "trace.run_s", "trace.overhead_s",
)
# No run may outlast this, whatever --seconds says.
HARD_LIMIT_S = 170.0


def _load_workloads():
    sys.path.insert(0, str(SRC))
    import workloads
    return workloads


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "loadavg": list(os.getloadavg())}


class Runner:
    """Starts sample processes one at a time and collects their records."""

    def __init__(self, workdir: Path, deadline: float) -> None:
        self.workdir = workdir
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))

    def sample(self, job: dict) -> dict:
        self.count += 1
        inp = self.workdir / f"in-{self.count}.json"
        res = self.workdir / f"result-{self.count}.json"
        out = Path(job["out"])
        if out.exists():
            out.unlink()
        inp.write_text(json.dumps(job))
        timeout = max(1.0, self.deadline - time.perf_counter())
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, str(HERE / "sample.py"), str(inp), str(res)],
                                  env=self.env, cwd=str(ROOT), timeout=timeout,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
            status = proc.returncode
            stderr = proc.stderr.decode(errors="replace")
        except subprocess.TimeoutExpired:
            status, stderr = -9, "sample timed out"
        wall = time.perf_counter() - start
        record = json.loads(res.read_text()) if status == 0 and res.exists() else {}
        record["wall"] = wall
        if "setup_end" in record:
            record["setup_raw_s"] = record["setup_end"] - start
            record["setup_s"] = record["setup_raw_s"] * calibrate.scale(record["setup_kernel"])
        if "wall_s" in record:
            spent = sum(record["kernel"])
            record["scale"] = calibrate.scale(record["kernel"] or record["setup_kernel"])
            record["run_raw_s"] = record["wall_s"] - spent
            record["cpu_raw_s"] -= spent
            record["run_s"] = record["run_raw_s"] * record["scale"]
            record["cpu_s"] = record["cpu_raw_s"] * record["scale"]
        if status != 0 or record.get("error"):
            record["error"] = record.get("error") or stderr[-2000:] or f"exit {status}"
        if not job.get("setup_only"):
            record["output"] = out.read_bytes() if out.exists() else None
        return record


def percentile_tail(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def summary_line(name: str, unit: str, values: list[float]) -> str:
    med = statistics.median(values)
    tail = percentile_tail(values)
    tail_s = f", p{tail[0]:.0f}={tail[1]:.6g}" if tail else ", no percentile has 10 samples beyond it"
    shown = " ".join(f"{v:.4g}" for v in values)
    return f"  {name:<14} median={med:.6g} {unit} (n={len(values)}{tail_s}): {shown}"


def run_samples(runner: Runner, jobs: list[dict], seconds: float, start: float) -> list[list[dict]]:
    """Round-robin over ``jobs`` while the next round should end in time.

    Every job runs at least once.  Returns the records of each job.
    """
    records: list[list[dict]] = [[] for _ in jobs]
    longest = [0.0] * len(jobs)
    while True:
        for i, job in enumerate(jobs):
            rec = runner.sample(job)
            records[i].append(rec)
            longest[i] = max(longest[i], rec["wall"])
        elapsed = time.perf_counter() - start
        if elapsed + sum(longest) > seconds or time.perf_counter() + sum(longest) > runner.deadline:
            return records


def gate_records(wl, workload: str, inputs: dict, records: list[dict]) -> tuple[int, int, str | None]:
    """Gate every sample; returns (attempted, failed, reference digest).

    A sample passes when its output passes the workload gate and is byte
    identical to the first sample's output for this seed.
    """
    per_sample = wl.operations(workload, inputs)
    attempted = failed = 0
    verdicts: dict[tuple, int] = {}
    reference = None
    for rec in records:
        output = rec.get("output")
        attempted += per_sample
        digest = hashlib.sha256(output).hexdigest() if output is not None else None
        if reference is None:
            reference = digest
        if rec.get("error") or digest is None or digest != reference:
            bad = per_sample
        else:
            key = (rec.get("rc"), digest)
            if key not in verdicts:
                verdicts[key] = wl.gate(workload, inputs, rec.get("rc", -1), output)
            bad = verdicts[key]
        rec["failed_ops"] = bad
        failed += bad
    return attempted, failed, reference


def timed_samples(records: list[dict]) -> list[dict]:
    """Samples whose timing counts: those that passed their gates.

    When none passed, the run reports correct=false and its timings come
    from the samples that at least finished their timed region.
    """
    return ([r for r in records if r["failed_ops"] == 0]
            or [r for r in records if "run_s" in r])


def median_of(records: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in records)


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, bool]:
    """Per-layer metrics from the traced samples; bool: counts repeated."""
    snaps = [r["trace"] for r in traced]
    scales = [r["scale"] for r in traced]
    first = snaps[0]
    repeat = all(s["calls_by_caller"] == first["calls_by_caller"]
                 and s["extra"] == first["extra"] for s in snaps[1:])
    calls = first["calls"]
    by_caller = first["calls_by_caller"]
    extra = first["extra"]

    def med(section: str, key: str) -> float:
        """Median over traced samples, in reference-host seconds."""
        return statistics.median(s[section].get(key, 0.0) * f for s, f in zip(snaps, scales))

    def c(key: str) -> int:
        return int(calls.get(key, 0))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {}
    m["ellfn.jacobi_bracket.calls"] = (c("ellfn.jacobi_bracket"), "count")
    m["ellfn.jacobi_bracket.s"] = (med("incl_s", "ellfn.jacobi_bracket"), "s")
    m["ellfn.us_per_bracket"] = (1e6 * ratio(m["ellfn.jacobi_bracket.s"][0],
                                             c("ellfn.jacobi_bracket")), "us")
    m["ellfn.ell_gamma.calls"] = (c("ellfn.ell_gamma"), "count")
    m["ellfn.ell_gamma.s"] = (med("incl_s", "ellfn.ell_gamma"), "s")
    m["ellfn.theta.calls"] = (c("ellfn.theta"), "count")
    m["ellfn.qpoch.calls"] = (c("ellfn.qpoch"), "count")
    hits, misses = first["qpoch_cache"]["hits"], first["qpoch_cache"]["misses"]
    m["ellfn.qpoch.cache_hit_ratio"] = (ratio(hits, hits + misses), "ratio")
    m["ellfn.self_s"] = (med("self_s", "ellfn"), "s")
    terms = c("weightfn.u_tilde")
    m["weightfn.u_tilde.calls"] = (terms, "count")
    m["weightfn.u_tilde.zero_frac"] = (ratio(extra.get("weightfn.u_tilde.zeros", 0), terms), "ratio")
    m["weightfn.brackets_per_term"] = (ratio(by_caller.get("ellfn.jacobi_bracket<-weightfn", 0),
                                             terms + c("weightfn.u_mod")), "count")
    m["weightfn.specialize.calls"] = (c("weightfn.specialize"), "count")
    m["weightfn.specialize.limit_rule"] = (int(extra.get("weightfn.specialize.limit_rule", 0)), "count")
    m["weightfn.w_tilde.calls"] = (c("weightfn.w_tilde"), "count")
    m["weightfn.self_s"] = (med("self_s", "weightfn"), "s")
    m["rmat.rbar.calls"] = (c("rmat.rbar"), "count")
    m["rmat.rbar.s"] = (med("incl_s", "rmat.rbar"), "s")
    m["rmat.self_s"] = (med("self_s", "rmat"), "s")
    m["tensorspace.calls"] = (sum(c(k) for k in calls if k.startswith("tensorspace.")), "count")
    m["tensorspace.self_s"] = (med("self_s", "tensorspace"), "s")
    m["gtrep.gt_vector.calls"] = (c("gtrep.gt_vector"), "count")
    m["gtrep.gt_vector.s"] = (med("incl_s", "gtrep.gt_vector"), "s")
    m["gtrep.gt_vector.nnz"] = (int(extra.get("gtrep.gt_vector.nnz", 0)), "count")
    m["gtrep.exchange_check.s"] = (med("incl_s", "gtrep.exchange_check"), "s")
    m["gtrep.self_s"] = (med("self_s", "gtrep"), "s")
    m["qkz.integrand.calls"] = (c("qkz.integrand"), "count")
    m["qkz.phi_kernel.s"] = (med("incl_s", "qkz.phi_kernel"), "s")
    m["qkz.e_factor.s"] = (med("incl_s", "qkz.e_factor"), "s")
    m["qkz.self_s"] = (med("self_s", "qkz"), "s")
    for key in _check_ids():
        m[f"suites.{key}.s"] = (med("incl_s", f"suites.{key}"), "s")
    m["suites.self_s"] = (med("self_s", "suites"), "s")
    m["cli.self_s"] = (med("self_s", "cli"), "s")
    m["trace.run_s"] = (median_of(traced, "run_s"), "s")
    m["trace.overhead_s"] = (m["trace.run_s"][0] - median_of(untraced, "run_s"), "s")
    return m, repeat


def _check_ids() -> list[str]:
    from ellqg import suites
    return [cid for cid, _ in suites.checks_for("all")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()

    if not (SRC / "ellqg" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'ellqg'}", file=sys.stderr)
        return 2
    wl = _load_workloads()
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(SRC), quiet=1):
        print("error: library source does not compile", file=sys.stderr)
        return 2

    print(f"machine: {json.dumps(machine())}")
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    try:
        inputs = wl.make_inputs(args.workload, args.seed, workdir)
        runner = Runner(workdir, start + HARD_LIMIT_S)
        if args.trace:
            traced, untraced = run_samples(
                runner, [{**inputs, "trace": True}, inputs], args.seconds, start)
            setups = []
        else:
            setups = [runner.sample({**inputs, "setup_only": True})
                      for _ in range(SETUP_PROBES)]
            untraced, = run_samples(runner, [inputs], args.seconds, start)
            traced = []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    samples = traced + untraced
    attempted, failed, digest = gate_records(wl, args.workload, inputs, samples)
    errors = [r["error"] for r in samples + setups if r.get("error")]
    correct = failed == 0 and not errors
    print(f"workload {args.workload} seed {args.seed}: {len(samples)} samples, "
          f"{sum(1 for r in samples if r['failed_ops'] == 0)} passed their gates; "
          f"output sha256 {digest}")
    print(f"  failed_frac    {failed}/{attempted} = {failed / attempted:.6g}")
    for err in errors[:3]:
        print("  error: " + err.strip().splitlines()[-1])
    traced, untraced = timed_samples(traced), timed_samples(untraced)
    if not untraced or (args.trace and not traced):
        print("error: no sample finished its timed region", file=sys.stderr)
        return 1

    if args.trace:
        layer, repeat = per_layer(traced, untraced)
        if not repeat:
            correct = False
            print("  error: call counts differ between traced samples")
        for name, (value, unit) in layer.items():
            print(f"  {name:<40} {value:.6g} {unit}")
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
            {"metrics": {k: v for k, (v, _) in layer.items()},
             "spans": traced[0]["trace"]["spans"]}))
        metrics = {name: {"value": layer[name][0], "unit": layer[name][1]}
                   for name in PER_LAYER}
    else:
        setups = [r for r in setups + untraced if "setup_s" in r]
        table = {
            "run_s": ([r["run_s"] for r in untraced], "s"),
            "cpu_s": ([r["cpu_s"] for r in untraced], "s"),
            "setup_s": ([r["setup_s"] for r in setups], "s"),
            "peak_rss_mb": ([r["peak_rss_mb"] for r in untraced], "MB"),
            "run_raw_s": ([r["run_raw_s"] for r in untraced], "s"),
            "cpu_raw_s": ([r["cpu_raw_s"] for r in untraced], "s"),
            "setup_raw_s": ([r["setup_raw_s"] for r in setups], "s"),
            "host_scale": ([r["scale"] for r in untraced], "x"),
        }
        for name, (values, unit) in table.items():
            print(summary_line(name, unit, values))
        metrics = {name: {"value": statistics.median(table[name][0]), "unit": table[name][1]}
                   for name in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
