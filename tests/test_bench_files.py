"""Every committed BENCH_*.json parses and names only declared metrics.

A BENCH file records benchmarks/run.py's report and result lines for the
runs behind one performance claim; the metrics they name must be the ones
BENCHMARK.json declares, end to end or per layer.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {m["name"] for group in ("end_to_end", "per_layer")
           for m in DECLARED[group]}
FILES = sorted(ROOT.glob("BENCH_*.json"))


def metric_names(node):
    """Each name under a "metrics" or "not_called" key or a "metric" value."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key in ("metrics", "not_called"):
                yield from value
            elif key == "metric":
                yield value
            yield from metric_names(value)
    elif isinstance(node, list):
        for item in node:
            yield from metric_names(item)


def test_a_bench_file_is_committed():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.name)
def test_bench_file_names_declared_metrics(path):
    names = set(metric_names(json.loads(path.read_text())))
    assert names and names <= METRICS, sorted(names - METRICS)
