"""Tests of the benchmark itself: python3 -m pytest benchmarks/selftest.py

The workloads run at their "mini" scale (r <= 4, nmax <= 100), so the whole
file takes well under a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import polyspec as ps  # noqa: E402
import polyspec.cli  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
MINI = workloads.SCALES["mini"]

_EIGEN = {"eigen.solve_lowest_s", "eigen.pairs", "eigen.worst_residual",
          "eigen.failures", "eigen.spectrum_rel_err"}
_DISCRETIZE = {"mesh.build_mesh_s", "mesh.dofs", "mesh.elements",
               "fem.assemble_s", "fem.nnz"}
# the per-layer metrics each workload's traced run measures
CALLED = {
    "paper_r128": {"net.build_net_s", "trace.overhead_s"} | _DISCRETIZE
    | _EIGEN,
    "count_window": {"net.build_net_s", "trace.overhead_s",
                     "analysis.remainder_series_s"} | _DISCRETIZE | _EIGEN,
    "lattice": {"net.build_net_s", "trace.overhead_s",
                "analytic.exact_spectrum_s", "analytic.lines",
                "analysis.classify_ms_p50", "analysis.classify_ms_p95",
                "analysis.remainder_series_s", "cli.run_s", "cli.self_s"},
    "mesh_sweep": {"net.build_net_s", "trace.overhead_s",
                   "mesh.interpolate_us_p50", "mesh.interpolate_us_p95",
                   "analytic.evaluate_us_p50"} | _DISCRETIZE,
}


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def run_job(name, seed=1, tmp_path=None):
    job = workloads.Job()
    workloads.WORKLOADS[name](job, seed, MINI, str(tmp_path))
    return job


def test_spec_names_units_and_bounds():
    name_re = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit_re = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = NAMES + [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(name_re.fullmatch(n) for n in names)
    assert all(unit_re.fullmatch(m["unit"]) for m in metrics)
    assert set(NAMES) == set(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert set(CALLED) == set(NAMES)
    assert set.union(*CALLED.values()) == {m["name"]
                                           for m in SPEC["per_layer"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_mini_run_reports_every_metric(name, trace):
    proc = run_bench("--workload", name, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--scale", "mini")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"],
                    "unit": m["unit"]} for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
        assert np.isfinite(m["value"])
    if trace:
        report = json.loads(proc.stdout.strip().splitlines()[-2])
        assert set(report["not_called"]) == set(result["metrics"]) \
            - CALLED[name]
        # a failure count is 0 when nothing fails; every other measured
        # per-layer metric is nonzero
        assert all(result["metrics"][m]["value"] != 0
                   for m in CALLED[name] - {"eigen.failures"})


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", NAMES)
def test_mini_jobs_pass_their_checks(name, seed, tmp_path):
    job = run_job(name, seed, tmp_path=tmp_path)
    assert job.attempted > 0
    assert job.failed == 0, job.problems
    assert job.wall_s > 0


def test_inputs_follow_the_seed():
    net = ps.build_net(ps.PolyhedronKind.CUBE)
    a = workloads.points_on_net(net, 50, np.random.default_rng(5))
    b = workloads.points_on_net(net, 50, np.random.default_rng(5))
    c = workloads.points_on_net(net, 50, np.random.default_rng(6))
    assert np.array_equal(a, b) and not np.array_equal(a, c)
    for p in a:
        ps.locate(ps.build_mesh(net, 2), p)     # every point lies on the net


def _perturb_eigenvalue(monkeypatch):
    real = ps.solve_lowest

    def solve(*args, **kwargs):
        pairs = real(*args, **kwargs)
        pairs[5].value *= 1.01
        return pairs
    monkeypatch.setattr(ps, "solve_lowest", solve)


def _bump(cell):
    swaps = {"singular": "nonsingular", "nonsingular": "singular"}
    return swaps[cell] if cell in swaps else str(int(cell) + 1)


def _corrupt_cli_row(command, column):
    """Rewrite one cell of the second data row of a CLI command's output."""
    def corrupt(monkeypatch):
        real = polyspec.cli.run

        def run(argv):
            code = real(argv)
            if argv[0] == command:
                out = argv[argv.index("--out") + 1]
                lines = Path(out).read_text().splitlines()
                cells = lines[2].split(",")
                cells[column] = _bump(cells[column])
                lines[2] = ",".join(cells)
                Path(out).write_text("\n".join(lines) + "\n")
            return code
        monkeypatch.setattr(polyspec.cli, "run", run)
    return corrupt


def _shift_interpolation(monkeypatch):
    # larger than the P1 interpolation bound even on the mini scale's r=2
    real = ps.interpolate
    monkeypatch.setattr(ps, "interpolate",
                        lambda mesh, values, p: real(mesh, values, p) + 1e3)


@pytest.mark.parametrize("name,corrupt", [
    ("paper_r128", _perturb_eigenvalue),
    ("count_window", _perturb_eigenvalue),
    ("lattice", _corrupt_cli_row("classify", 3)),
    ("lattice", _corrupt_cli_row("analytic", 1)),
    ("lattice", _corrupt_cli_row("count", 1)),
    ("mesh_sweep", _shift_interpolation),
])
def test_corrupted_results_raise_error_rate(name, corrupt, monkeypatch,
                                            tmp_path):
    corrupt(monkeypatch)
    job = run_job(name, tmp_path=tmp_path)
    assert 0 < job.failed <= job.attempted, job.problems


def test_paper_indices_give_the_known_bias():
    err = checks.spectrum_rel_err(ps.PolyhedronKind.OCTAHEDRON,
                                  [0.0] * 55 + [16.2, 16.2])
    assert err == pytest.approx(0.2 / 16)
    assert checks.spectrum_rel_err(ps.PolyhedronKind.TETRAHEDRON, [0.0]) \
        is None


def test_trace_file_records_spans_and_self_time():
    proc = run_bench("--workload", "lattice", "--seed", "4", "--seconds", "0",
                     "--trace", "1", "--scale", "mini")
    assert proc.returncode == 0, proc.stderr
    run_id = "lattice-seed4-job1-traced"
    spans = json.loads(
        (ROOT / ".bench_out" / "traces" / f"{run_id}.json").read_text())
    assert {"net.build_net", "cli.run", "analytic.exact_spectrum",
            "analysis.classify"} <= {s["name"] for s in spans}
    assert all(s["run"] == run_id and s["end"] >= s["start"] for s in spans)
    layers = tracing.layer_metrics(spans)
    assert 0 < layers["cli.self_s"] < layers["cli.run_s"]
    # checks run untraced, so every exact_spectrum span sits under the CLI
    assert all(s["parent"] is not None
               for s in spans if s["name"] == "analytic.exact_spectrum")


def test_self_time_subtracts_children():
    spans = [
        {"id": 0, "name": "cli.run", "parent": None, "start": 0.0,
         "end": 10.0},
        {"id": 1, "name": "analysis.classify", "parent": 0, "start": 1.0,
         "end": 4.0},
        {"id": 2, "name": "analytic.exact_spectrum", "parent": 1,
         "start": 1.5, "end": 3.5},
        {"id": 3, "name": "analysis.classify", "parent": 0, "start": 5.0,
         "end": 6.0},
    ]
    assert tracing.self_times(spans) == {0: 6.0, 1: 1.0, 2: 2.0, 3: 1.0}
    assert tracing.layer_metrics(spans)["cli.self_s"] == 6.0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", NAMES[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
