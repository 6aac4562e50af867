"""In-memory spans around calls into polyspec's public functions.

A traced worker process wraps the functions listed in LAYER_CALLS at the
module level, so every caller (the benchmark, the CLI and the package's own
modules) goes through the wrapper.  Untraced processes never install the
wrappers, so end-to-end timings carry no tracing cost.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

# layer module -> public functions wrapped in a span
LAYER_CALLS = {
    "net": ("build_net",),
    "mesh": ("build_mesh", "interpolate"),
    "fem": ("assemble",),
    "eigen": ("solve_lowest",),
    "analytic": ("exact_spectrum", "exact_tetra_eigenvalues", "evaluate"),
    "analysis": ("make_counting_series", "remainder_series", "classify"),
    "cli": ("run",),
}


def _counts(name, result):
    """Work counts recorded at the span boundary, read from the result."""
    if name == "mesh.build_mesh":
        return {"dofs": result.dof_count, "elements": len(result.elements)}
    if name == "fem.assemble":
        return {"nnz": result[0].nnz}
    if name == "eigen.solve_lowest":
        return {"pairs": len(result)}
    if name == "analytic.exact_spectrum":
        return {"lines": len(result)}
    return {}


class Tracer:
    """Records spans (name, start, end, parent, run id) while enabled."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.enabled = True
        self._stack = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = {"id": len(self.spans), "name": name, "run": self.run_id,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            span.update(_counts(name, result))
            return result
        return traced

    def install(self):
        """Replace each listed function wherever a polyspec module binds it."""
        import polyspec
        import polyspec.cli  # noqa: F401  (the CLI binds names at import)
        modules = [m for n, m in sys.modules.items()
                   if n == "polyspec" or n.startswith("polyspec.")]
        for layer, names in LAYER_CALLS.items():
            module = sys.modules[f"polyspec.{layer}"]
            for fname in names:
                orig = getattr(module, fname)
                wrapper = self.wrap(f"{layer}.{fname}", orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)
        return self

    @contextlib.contextmanager
    def paused(self):
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def paused(tracer):
    """Context in which no spans are recorded; tracer may be None."""
    return contextlib.nullcontext() if tracer is None else tracer.paused()


def self_times(spans):
    """Span id -> duration minus the time covered by its child spans."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def _pct(values, q):
    values = sorted(values)
    pos = (len(values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def layer_metrics(spans):
    """Per-layer metrics of one traced process.

    A metric is reported only when its span occurs, so a layer the job never
    calls has no value rather than a 0.
    """
    selfs = self_times(spans)

    def total(found):
        return sum(s["end"] - s["start"] for s in found)

    def pct(q, scale):
        return lambda found: _pct([(s["end"] - s["start"]) * scale
                                   for s in found], q)

    def count(key):
        return lambda found: sum(s.get(key, 0) for s in found)

    # metric -> (span it is read from, reduction over those spans)
    metrics = {
        "net.build_net_s": ("net.build_net", total),
        "mesh.build_mesh_s": ("mesh.build_mesh", total),
        "mesh.dofs": ("mesh.build_mesh", count("dofs")),
        "mesh.elements": ("mesh.build_mesh", count("elements")),
        "mesh.interpolate_us_p50": ("mesh.interpolate", pct(50, 1e6)),
        "mesh.interpolate_us_p95": ("mesh.interpolate", pct(95, 1e6)),
        "fem.assemble_s": ("fem.assemble", total),
        "fem.nnz": ("fem.assemble", count("nnz")),
        "eigen.solve_lowest_s": ("eigen.solve_lowest", total),
        "eigen.pairs": ("eigen.solve_lowest", count("pairs")),
        "eigen.failures": ("eigen.solve_lowest",
                           lambda found: sum("error" in s for s in found)),
        "analytic.exact_spectrum_s": ("analytic.exact_spectrum", total),
        "analytic.lines": ("analytic.exact_spectrum", count("lines")),
        "analytic.evaluate_us_p50": ("analytic.evaluate", pct(50, 1e6)),
        "analysis.classify_ms_p50": ("analysis.classify", pct(50, 1e3)),
        "analysis.classify_ms_p95": ("analysis.classify", pct(95, 1e3)),
        "analysis.remainder_series_s": ("analysis.remainder_series", total),
        "cli.run_s": ("cli.run", total),
        "cli.self_s": ("cli.run",
                       lambda found: sum(selfs[s["id"]] for s in found)),
    }
    out = {}
    for metric, (span, reduce) in metrics.items():
        found = [s for s in spans if s["name"] == span]
        if found:
            out[metric] = reduce(found)
    return out
