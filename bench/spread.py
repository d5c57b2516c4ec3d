"""Run-to-run spread of the end-to-end metrics, one run per seed.

Usage, from the root of a checkout:

    python3 bench/spread.py --workload gt_basis --seeds 0-9 [--seconds 36]

Runs ``run.py`` once per seed, one run at a time, and prints for each
end-to-end metric the median of the per-run values and the distance between
their first and third quartiles as a share of that median, taken with
``statistics.quantiles(values, n=4)``.  This is the spread a bound in
BENCHMARK.json must cover.  The last line is one JSON object.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    correct = True
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=str(HERE.parent), capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        correct = correct and result["correct"] and result["failed"] == 0
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{k}={v:.6g}" for k, v in row.items()), flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": share}
        print(f"{name:<12} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
              f"spread={share:.4f} bound={bounds.get(name)}")
    print(json.dumps({"workload": args.workload, "seeds": args.seeds,
                      "seconds": args.seconds, "correct": correct,
                      "metrics": summary}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
