"""Measure the baseline: python3 benchmarks/baseline.py

Runs benchmarks/run.py on every workload in BENCHMARK.json, from the root of
a checkout: RUNS times with tracing off (seeds 1..RUNS), then TRACED_RUNS
times with tracing on.  For each workload and metric it records the median,
the quartiles (statistics.quantiles, n=4), the sample count and the spread
(q3 - q1) / median, and checks each end-to-end spread against the metric's
bound.  Per-layer metrics are recorded only for the layers the workload
calls.  Writes benchmarks/baseline.json and exits 1 if a spread exceeds its
bound or a run was incorrect.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

RUNS = 10
TRACED_RUNS = 2
OUT = Path("benchmarks/baseline.json")


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def describe(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else None}


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    out = {"runs": RUNS, "traced_runs": TRACED_RUNS, "run_seconds": seconds,
           "workloads": {}}
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        samples, layers, correct = {}, {}, True
        for seed in range(1, RUNS + 1):
            report, result = run(name, seed, seconds, 0)
            out.setdefault("environment", report["environment"])
            correct &= result["correct"]
            for metric, v in result["metrics"].items():
                samples.setdefault(metric, []).append(v["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                file=sys.stderr)
        for seed in range(1, TRACED_RUNS + 1):
            report, result = run(name, seed, seconds, 1)
            correct &= result["correct"]
            for metric, v in result["metrics"].items():
                if metric not in report["not_called"]:
                    layers.setdefault(metric, []).append(v["value"])
        stats = {m: describe(v) for m, v in samples.items()}
        wide = [m for m, s in stats.items() if s["spread"] > bounds[m]]
        ok &= correct and not wide
        out["workloads"][name] = {
            "why": w["why"],
            "correct": correct,
            "end_to_end": stats,
            "per_layer": {m: describe(v) for m, v in layers.items()},
            "spread_over_bound": wide,
        }
    OUT.write_text(json.dumps(out, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
