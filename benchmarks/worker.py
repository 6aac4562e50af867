"""One benchmark process: set up, optionally run one job, report as JSON.

Started by run.py in a fresh interpreter for every sample, so the package's
lru_caches start cold as they do for a CLI user.  run.py fixes the BLAS
thread count in the environment before numpy is imported here.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time


def environment():
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", default="full")
    ap.add_argument("--job", type=int, choices=(0, 1), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--launched", type=float, required=True,
                    help="time.time() just before the parent started us")
    ap.add_argument("--run-id", required=True)
    ap.add_argument("--root", required=True)
    args = ap.parse_args(argv)

    import polyspec
    src = os.path.realpath(os.path.join(args.root, "src"))
    if os.path.commonpath([os.path.realpath(polyspec.__file__), src]) != src:
        raise SystemExit(f"polyspec imported from {polyspec.__file__}, "
                         f"not from {src}")
    import workloads
    from tracing import Tracer, layer_metrics

    tracer = Tracer(args.run_id).install() if args.trace else None
    workloads.warm_up(tracer)
    setup_s = time.time() - args.launched
    report = {"setup_s": setup_s, "environment": environment()}
    if not args.job:
        print(json.dumps(report))
        return

    out_dir = os.path.join(args.root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=out_dir, prefix="work-")
    job = workloads.Job(tracer=tracer)
    try:
        workloads.WORKLOADS[args.workload](
            job, args.seed, workloads.SCALES[args.scale], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report.update(
        wall_s=job.wall_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=job.attempted, failed=job.failed,
        problems=job.problems[:20],
        spectrum_rel_err=job.spectrum_rel_err,
        worst_residual=job.worst_residual)
    if tracer is not None:
        layers = layer_metrics(tracer.spans)
        if "eigen.pairs" in layers:
            layers["eigen.worst_residual"] = job.worst_residual
            layers["eigen.spectrum_rel_err"] = job.spectrum_rel_err
        report["layers"] = layers
        trace_dir = os.path.join(out_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        tracer.write(os.path.join(trace_dir, f"{args.run_id}.json"))
    print(json.dumps(report))


if __name__ == "__main__":
    sys.exit(main())
