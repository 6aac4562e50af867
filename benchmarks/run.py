"""polyspec benchmark: python3 benchmarks/run.py --workload W --seed N
                                  --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
src/ directory.  Every sample runs in a fresh worker process (worker.py) with
one BLAS/OpenMP thread: whole jobs between two halves of a few set-up-only
processes, until --seconds have passed (at least one job; with --trace 1 at
least one untraced and one traced job, alternating).  A worker still running
JOB_TIMEOUT_S after --seconds have passed is a hang: the run fails.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the metric names and units come from
BENCHMARK.json.
`--workload all` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROCESSES = 8
JOB_TIMEOUT_S = 140.0
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """A worker process crashed, timed out or reported no result."""


def worker_env(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    env.update({var: BLAS_THREADS for var in THREAD_VARS})
    return env


def launch(root, opts, *, job, traced, index, deadline):
    """Run one worker process to completion and return its JSON report."""
    run_id = (f"{opts.workload}-seed{opts.seed}-{'job' if job else 'setup'}"
              f"{index}{'-traced' if traced else ''}")
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", opts.workload, "--seed", str(opts.seed),
           "--scale", opts.scale, "--job", str(int(job)),
           "--trace", str(int(traced)), "--run-id", run_id,
           "--root", str(root)]
    start = time.perf_counter()
    remaining = max(deadline - start, 0.0)
    try:
        proc = subprocess.run(cmd + ["--launched", repr(time.time())],
                              cwd=root, env=worker_env(root), text=True,
                              capture_output=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{run_id} still running {JOB_TIMEOUT_S:.0f} s "
                         "after --seconds had passed") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{run_id} exited {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    report = json.loads(lines[-1])
    report["process_s"] = time.perf_counter() - start
    report["traced"] = traced
    return report


def run_workload(root, opts):
    """All processes of one run; returns (setup reports, job reports)."""
    start = time.perf_counter()
    deadline = start + opts.seconds + JOB_TIMEOUT_S

    def setup_processes(indices):
        return [launch(root, opts, job=False, traced=False, index=i,
                       deadline=deadline) for i in indices]

    # half the set-up processes run before the jobs and half after, so that
    # setup_s samples the host over the whole run rather than one burst
    half = SETUP_PROCESSES // 2
    setups = setup_processes(range(half))
    trailing = sum(r["process_s"] for r in setups)
    jobs = []
    min_jobs = 2 if opts.trace else 1
    while True:
        traced = bool(opts.trace) and len(jobs) % 2 == 1
        jobs.append(launch(root, opts, job=True, traced=traced,
                           index=len(jobs), deadline=deadline))
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["process_s"] for r in jobs)
        if (len(jobs) >= min_jobs
                and elapsed + typical + trailing > opts.seconds):
            break
    setups += setup_processes(range(half, SETUP_PROCESSES))
    return setups, jobs


def summarize(spec, opts, setups, jobs):
    """The result object and the per-run report printed before it."""
    plain = [r for r in jobs if not r["traced"]]
    traced = [r for r in jobs if r["traced"]]
    median = statistics.median
    not_called = []
    if opts.trace:
        values = {name: median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        values["trace.overhead_s"] = (median(r["wall_s"] for r in traced)
                                      - median(r["wall_s"] for r in plain))
        declared = spec["per_layer"]
        # every declared metric must have a value; a layer the workload never
        # calls reads 0 and is named in the report
        not_called = [m["name"] for m in declared if m["name"] not in values]
        values.update(dict.fromkeys(not_called, 0.0))
    else:
        values = {
            "setup_s": median(r["setup_s"] for r in setups + plain),
            "wall_s": median(r["wall_s"] for r in plain),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
        }
        declared = spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for declared metrics {missing}")
    attempted = sum(r["attempted"] for r in jobs)
    failed = sum(r["failed"] for r in jobs)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    report = {
        "workload": opts.workload, "seed": opts.seed, "trace": opts.trace,
        "scale": opts.scale, "seconds": opts.seconds,
        "environment": dict(setups[0]["environment"],
                            **source_identity(Path.cwd())),
        "processes": {"setup": len(setups), "untraced_jobs": len(plain),
                      "traced_jobs": len(traced)},
        "samples": {"setup_s": [r["setup_s"] for r in setups + plain],
                    "wall_s": [r["wall_s"] for r in plain],
                    "traced_wall_s": [r["wall_s"] for r in traced]},
        "not_called": not_called,
        "error_rate": failed / attempted,
        "spectrum_rel_err": max(r["spectrum_rel_err"] for r in jobs),
        "worst_residual": max(r["worst_residual"] for r in jobs),
        "problems": [p for r in jobs for p in r["problems"]][:20],
    }
    return result, report


def source_identity(root):
    """Git commit when the checkout has one, and a hash of the sources."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def print_result(result, report):
    for name, m in result["metrics"].items():
        print(f"{report['workload']:>12}  {name:<28} {m['value']:.6g} "
              f"{m['unit']}")
    print(json.dumps(report))
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "mini"), default="full",
                    help="mini runs seconds-long versions of the jobs")
    opts = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "polyspec" / "__init__.py").is_file():
        print("error: run from the root of a polyspec checkout "
              "(src/polyspec not found)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    chosen = names if opts.workload == "all" else [opts.workload]
    if not set(chosen) <= set(names):
        print(f"error: unknown workload {opts.workload!r}; one of {names} "
              "or all", file=sys.stderr)
        return 2

    results = []
    for name in chosen:
        one = argparse.Namespace(**dict(vars(opts), workload=name))
        try:
            result, report = summarize(spec, one, *run_workload(root, one))
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        results.append(result)
        print_result(result, report)
    if len(chosen) > 1:
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{name}.{metric}": value
                        for name, r in zip(chosen, results)
                        for metric, value in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
