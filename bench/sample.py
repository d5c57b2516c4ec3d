"""One benchmark sample, run in a fresh interpreter by ``run.py``.

Usage: python3 sample.py INPUT.json RESULT.json

INPUT holds the generated job (see ``workloads.make_inputs``) plus
``trace`` and ``setup_only`` flags.  The sample imports the library, builds
the job, stamps the end of set-up, runs the job in the timed region and
writes its output and a RESULT record with raw timings and the host-speed
kernel times that ``run.py`` scales them by (see ``calibrate.py``).  The
library's lazy state (the ``qpoch`` cache, imports) starts cold, as in a
user's ``ellqg`` call.
"""

import json
import resource
import sys
import time
import traceback


# Kernel timings right after set-up; they scale the set-up time.
SETUP_KERNELS = 10


def _cpu() -> float:
    """CPU seconds of this process and its waited-for children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def main(input_path: str, result_path: str) -> int:
    with open(input_path, encoding="utf-8") as fh:
        job = json.load(fh)

    if job["kind"] == "cli":
        from ellqg import cli
        argv = list(job["argv"])

        def run():
            return cli.main(argv), None
    else:
        from ellqg.errors import EllqgError
        import ellqg.qkz as qkz
        from workloads import build_qkz, t_point
        spec = build_qkz(job["spec"])
        points = [t_point(levels) for levels in job["t"]]

        def run():
            values = []
            for t in points:
                try:
                    values.append(qkz.integrand(spec, t))
                except EllqgError:
                    values.append(None)
            return 0, values
    setup_end = time.perf_counter()
    import calibrate                # after the stamp: not part of set-up
    result = {"setup_end": setup_end,
              "setup_kernel": [calibrate.kernel_time() for _ in range(SETUP_KERNELS)]}
    if job.get("setup_only"):
        _write(result_path, result)
        return 0

    tracer = None
    if job.get("trace"):
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    error = None
    values = None
    with calibrate.HostSpeed() as host:
        cpu0 = _cpu()
        t0 = time.perf_counter()
        try:
            rc, values = run()
        except Exception:           # recorded and gated as a failed sample
            rc, error = -1, traceback.format_exc()
        t1 = time.perf_counter()
        cpu1 = _cpu()
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.snapshot()
    if values is not None:
        with open(job["out"], "w", encoding="utf-8") as fh:
            json.dump([None if v is None else [v.real, v.imag] for v in values], fh)
    result.update({
        "rc": rc, "error": error, "wall_s": t1 - t0, "cpu_raw_s": cpu1 - cpu0,
        "kernel": host.times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    _write(result_path, result)
    return 0


def _write(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
