"""The benchmark's workloads: fixed jobs over polyspec's public API.

Every generated input (the ARPACK start-vector seed, the classify column, the
interpolation points and the eigenfunction they sample) comes from the seed.
A Job times each operation, runs its output check untimed and untraced, and
counts attempted and failed operations.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

import polyspec as ps
import polyspec.cli
from polyspec import PolyhedronKind, SymmetryType

import checks
import tracing

KINDS = tuple(PolyhedronKind)
TRIANGULAR = (PolyhedronKind.TETRAHEDRON, PolyhedronKind.ICOSAHEDRON)
SOLVE_TOL = 1e-9
CLASSIFY_TOL = 0.02


@dataclass(frozen=True)
class Scale:
    """Problem sizes of the four workloads."""

    paper: tuple     # icosahedron (r, m)
    count: tuple     # (r, m, remainder samples)
    lattice: tuple   # (nmax, classify rows, largest value, tmax, samples)
    sweep: tuple     # (resolutions, interpolation points per kind)


SCALES = {
    "full": Scale(paper=(128, 50), count=(32, 200, 400),
                  lattice=(10000, 200, 2000.0, 500.0, 200),
                  sweep=((32, 64, 128), 1000)),
    # seconds-long versions of the same jobs, for the benchmark's own tests
    "mini": Scale(paper=(4, 40), count=(4, 40, 50),
                  lattice=(100, 10, 50.0, 20.0, 20),
                  sweep=((2, 4), 20)),
}


@dataclass
class Job:
    """Outcome of one workload job in one process."""

    tracer: object = None
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    worst_residual: float = 0.0
    spectrum_rel_err: float = 0.0

    def op(self, label, fn, *args, check=None, units=1, **kwargs):
        """Run one timed operation of `units` library calls, then its check.

        A raised exception fails every unit; each problem the check reports
        fails one.  Returns the operation's result, or None if it raised.
        """
        self.attempted += units
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            self._fail(label, [f"{type(exc).__name__}: {exc}"], units)
            return None
        finally:
            self.wall_s += time.perf_counter() - start
        if check is not None:
            with tracing.paused(self.tracer):
                problems = check(out)
            if problems:
                self._fail(label, problems, min(units, len(problems)))
        return out

    def _fail(self, label, problems, units):
        self.failed += units
        self.problems.extend(f"{label}: {p}" for p in problems[:5])

    def check_eigen(self, K, M, pairs, kind):
        problems, worst = checks.check_pairs(K, M, pairs, kind, SOLVE_TOL)
        self.worst_residual = max(self.worst_residual, worst)
        normalized = [ps.normalize(max(p.value, 0.0), kind) for p in pairs]
        err = checks.spectrum_rel_err(kind, normalized)
        if err is not None:
            self.spectrum_rel_err = max(self.spectrum_rel_err, err)
        return problems


def warm_up(tracer=None):
    """Set-up work every workload pays before its first timed operation.

    Only the cold build_net calls are traced (net.build_net_s).
    """
    for kind in KINDS:
        ps.build_net(kind)
    with tracing.paused(tracer):
        mesh = ps.build_mesh(ps.build_net(PolyhedronKind.ICOSAHEDRON), 2)
        K, M = ps.assemble(mesh)
        ps.solve_lowest(K, M, 4, seed=0)


def _discretize(job, kind, r):
    """build_mesh -> assemble, each checked: (mesh, (K, M)), or None."""
    net = ps.build_net(kind)
    tag = f"{kind.value} r={r}"
    mesh = job.op(f"{tag} build_mesh", ps.build_mesh, net, r,
                  check=lambda mesh: checks.check_mesh(mesh, kind, r))
    if mesh is None:
        return None
    matrices = job.op(f"{tag} assemble", ps.assemble, mesh,
                      check=lambda km: checks.check_matrices(km, net.area))
    return None if matrices is None else (mesh, matrices)


def _pipeline(job, kind, r, m, seed):
    """_discretize -> solve_lowest for the m lowest pairs, checked."""
    built = _discretize(job, kind, r)
    if built is None:
        return None
    K, M = built[1]
    return job.op(f"{kind.value} r={r} solve_lowest", ps.solve_lowest, K, M,
                  m, tol=SOLVE_TOL,
                  seed=seed * len(KINDS) + KINDS.index(kind),
                  check=lambda pairs: job.check_eigen(K, M, pairs, kind))


def paper_r128(job, seed, scale, workdir):
    r, m = scale.paper
    _pipeline(job, PolyhedronKind.ICOSAHEDRON, r, m, seed)


def count_window(job, seed, scale, workdir):
    r, m, samples = scale.count
    for kind in (PolyhedronKind.OCTAHEDRON, PolyhedronKind.ICOSAHEDRON,
                 PolyhedronKind.CUBE):
        pairs = _pipeline(job, kind, r, m, seed)
        if pairs is None:
            continue

        values = [p.value for p in pairs]

        def counting():
            series = ps.make_counting_series(kind, values)
            return series, ps.remainder_series(series, series.coverage,
                                               samples)

        job.op(f"{kind.value} counting", counting,
               check=lambda out: checks.check_remainder_table(out[1], out[0],
                                                              m))


def _cli(job, label, argv, check_output, units=1):
    """One polyspec.cli.run call; its output is checked on exit status 0."""
    job.op(label, polyspec.cli.run, argv, units=units,
           check=lambda code: check_output() if code == 0
           else [f"exit status {code}"] * units)


def lattice(job, seed, scale, workdir):
    nmax, rows, largest, tmax, samples = scale.lattice
    rng = np.random.default_rng(seed)
    half = rows // 2

    def stratified():
        # one value per stratum of [0, largest]: classify's cost grows with
        # the value, so this keeps the work the same for every seed
        return rng.permutation((np.arange(half) + rng.uniform(size=half))
                               * (largest / half))

    references = {}

    def reference(kind):
        if kind not in references:
            references[kind] = ps.exact_spectrum(kind, nmax)
        return references[kind]

    for kind in KINDS:
        out = os.path.join(workdir, f"spectrum-{kind.value}.csv")
        _cli(job, f"analytic {kind.value}",
             ["analytic", "--polyhedron", kind.value, "--nmax", str(nmax),
              "--out", out],
             lambda: checks.check_spectrum_csv(out, reference(kind)))

    for kind in (PolyhedronKind.OCTAHEDRON, PolyhedronKind.TETRAHEDRON):
        values = stratified()
        src = os.path.join(workdir, f"column-{kind.value}.csv")
        out = os.path.join(workdir, f"classified-{kind.value}.csv")
        to_raw = 1.0 / ps.normalize(1.0, kind)
        with open(src, "w") as fh:
            fh.write("index,lambda,normalized\n")
            fh.writelines(f"{i},{x * to_raw!r},{x!r}\n"
                          for i, x in enumerate(values.tolist()))
        _cli(job, f"classify {kind.value}",
             ["classify", "--polyhedron", kind.value, "--in", src,
              "--tol", str(CLASSIFY_TOL), "--out", out],
             lambda: checks.check_classify_csv(out, values, reference(kind),
                                               CLASSIFY_TOL),
             units=half)

    def count_reference():
        kind = PolyhedronKind.TETRAHEDRON
        top = int(np.ceil(ps.normalize(tmax ** 2, kind))) + 8
        series = ps.make_counting_series(kind, ps.exact_tetra_eigenvalues(top))
        return ps.remainder_series(series, tmax, samples)

    out = os.path.join(workdir, "count-tetrahedron.csv")
    _cli(job, "count exact",
         ["count", "--polyhedron", "tetrahedron", "--source", "exact",
          "--tmax", str(tmax), "--samples", str(samples), "--out", out],
         lambda: checks.check_count_csv(out, count_reference()))


# low-frequency (type, orbit) candidates; the seed picks an admissible one
_CANDIDATE_ORBITS = ((2, 0), (2, 2), (4, 0), (4, 2), (1, 1), (3, 1), (3, 3))


def pick_eigenfunction(kind, rng):
    if kind in TRIANGULAR:
        types = (SymmetryType.ONE_PLUS, SymmetryType.ONE_MINUS)
    else:
        types = (SymmetryType.PP, SymmetryType.MM, SymmetryType.PM,
                 SymmetryType.MP)
    candidates = [(t, o) for t in types for o in _CANDIDATE_ORBITS]
    for i in rng.permutation(len(candidates)):
        sym_type, orbit = candidates[i]
        try:
            return ps.build_trig_eigenfunction(kind, sym_type, orbit)
        except ps.InadmissibleOrbitError:
            continue
    raise RuntimeError(f"no admissible candidate for {kind.value}")


def points_on_net(net, n, rng):
    """n uniformly placed points on uniformly chosen faces of the net."""
    faces = rng.integers(len(net.faces), size=n)
    u, v = rng.uniform(size=(2, n))
    corners = np.array([net.faces[i].vertices for i in faces])
    if corners.shape[1] == 3:
        flip = u + v > 1.0
        u[flip], v[flip] = 1.0 - u[flip], 1.0 - v[flip]
        a, b = corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0]
    else:
        a, b = corners[:, 1] - corners[:, 0], corners[:, 3] - corners[:, 0]
    return corners[:, 0] + u[:, None] * a + v[:, None] * b


def _nodal_values(f, mesh):
    values = np.empty(mesh.dof_count)
    values[mesh.dof_of] = ps.evaluate(f, mesh.planar_vertices,
                                      check_domain=False)
    return values


def mesh_sweep(job, seed, scale, workdir):
    resolutions, npts = scale.sweep
    rng = np.random.default_rng(seed)
    for kind in KINDS:
        f = pick_eigenfunction(kind, rng)
        pts = points_on_net(ps.build_net(kind), npts, rng)
        exact = job.op(f"{kind.value} evaluate",
                       lambda: np.array([ps.evaluate(f, p) for p in pts]),
                       units=npts,
                       check=lambda vals: [] if np.all(np.isfinite(vals))
                       else ["nonfinite value"])
        for r in resolutions:
            built = _discretize(job, kind, r)
            if built is None or exact is None:
                continue
            mesh = built[0]
            tag = f"{kind.value} r={r}"
            values = job.op(f"{tag} nodal evaluate", _nodal_values, f, mesh)
            if values is None:
                continue
            bound = checks.interpolation_bound(f, r)
            job.op(f"{tag} interpolate",
                   lambda: [ps.interpolate(mesh, values, p) for p in pts],
                   units=npts,
                   check=lambda got: checks.check_interpolation(got, exact,
                                                                bound))


WORKLOADS = {
    "paper_r128": paper_r128,
    "count_window": count_window,
    "lattice": lattice,
    "mesh_sweep": mesh_sweep,
}
