"""Output checks.  Each returns a list of problems; an empty list passes.

Only properties that hold at the benchmarked commit are encoded.  The known
P1 bias (for example the octahedron value 16 coming out 1.29% high at r=32)
is reported through spectrum_rel_err, never turned into a check.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction

import numpy as np

import polyspec as ps
from polyspec import PolyhedronKind

# exact normalized eigenvalues at 1-based indices, as the paper gives them
PAPER_VALUES = {
    PolyhedronKind.ICOSAHEDRON: {37: 4.0},
    PolyhedronKind.CUBE: {10: 2.0, 20: 4.0, 37: 8.0, 50: 10.0},
    PolyhedronKind.OCTAHEDRON: {56: 16.0, 57: 16.0},
}

ORTHONORMAL_TOL = 1e-10
ZERO_MODE_TOL = 1e-8
UPPER_BOUND_SLACK = 1e-9


def expected_dofs(kind: PolyhedronKind, r: int) -> int:
    """Vertex count of the refined closed surface (Euler characteristic 2)."""
    faces = {PolyhedronKind.TETRAHEDRON: 4, PolyhedronKind.OCTAHEDRON: 8,
             PolyhedronKind.ICOSAHEDRON: 20}
    if kind is PolyhedronKind.CUBE:
        return 6 * r * r + 2
    return faces[kind] * r * r // 2 + 2


def check_mesh(mesh, kind, r):
    problems = []
    if mesh.dof_count != expected_dofs(kind, r):
        problems.append(f"{mesh.dof_count} DOFs, expected "
                        f"{expected_dofs(kind, r)}")
    if mesh.planar_count != ps.expected_planar_count(mesh.net, r):
        problems.append(f"planar count {mesh.planar_count}")
    return problems


def check_matrices(matrices, area):
    K, M = matrices
    problems = []
    scale = abs(K).max()
    if abs(K - K.T).max() > 0 or abs(M - M.T).max() > 0:
        problems.append("K or M not symmetric")
    if np.abs(K @ np.ones(K.shape[0])).max() > 1e-9 * scale:
        problems.append("K does not annihilate constants")
    if abs(M.sum() - area) > 1e-9 * area:
        problems.append(f"mass total {M.sum()!r} != area {area!r}")
    return problems


def known_indices(kind, m):
    """Paper (index, exact normalized value) pairs inside the first m pairs."""
    return [(i, v) for i, v in PAPER_VALUES.get(kind, {}).items() if i <= m]


def spectrum_rel_err(kind, normalized):
    """Largest relative error at the paper's indices; None if none solved."""
    errs = [abs(normalized[i - 1] - v) / v
            for i, v in known_indices(kind, len(normalized))]
    return max(errs) if errs else None


def check_pairs(K, M, pairs, kind, tol):
    """Residual contract, M-orthonormality, zero mode, order, upper bounds."""
    problems = []
    worst = max(ps.residual(K, M, p) for p in pairs)
    if not worst <= tol:
        problems.append(f"worst residual {worst:.3e} > {tol:.1e}")
    V = np.column_stack([p.vector for p in pairs])
    gram_err = np.abs(V.T @ (M @ V) - np.eye(len(pairs))).max()
    if not gram_err <= ORTHONORMAL_TOL:
        problems.append(f"vectors not M-orthonormal ({gram_err:.2e})")
    v0 = pairs[0].vector
    if not (abs(pairs[0].value) <= ZERO_MODE_TOL
            and np.ptp(v0) <= ZERO_MODE_TOL * abs(v0.mean())):
        problems.append(f"first pair is not the zero mode "
                        f"(value {pairs[0].value:.3e})")
    values = np.array([p.value for p in pairs])
    if np.any(np.diff(values) < 0):
        problems.append("eigenvalues not nondecreasing")
    normalized = values * ps.normalize(1.0, kind)
    for i, exact in known_indices(kind, len(pairs)):
        if normalized[i - 1] < exact - UPPER_BOUND_SLACK:
            problems.append(f"#{i} = {normalized[i - 1]!r} below exact "
                            f"{exact} (Rayleigh-Ritz upper bound)")
    return problems, worst


def check_remainder_table(table, series, m):
    problems = []
    if table.n[-1] != m:
        problems.append(f"N(coverage) = {table.n[-1]}, expected {m}")
    if np.any(np.diff(table.n) < 0):
        problems.append("N not nondecreasing")
    if not (np.all(np.isfinite(table.d)) and np.all(np.isfinite(table.a))):
        problems.append("D or A not finite")
    if table.t[-1] != series.coverage:
        problems.append("table does not end at the coverage")
    return problems


def interpolation_bound(f, r):
    """Bound on |u - I_r u| for the P1 interpolant of a trig eigenfunction.

    Inside one element u is a single trig sum whose Hessian norm is at most
    sum_i (2 pi |freq_i|)^2, and the linear interpolation error is at most
    half of that times the squared longest edge (sqrt 2 / r covers squares
    split along a diagonal).
    """
    hess = (2 * math.pi) ** 2 * float(np.sum(f.frequencies ** 2))
    return 0.5 * hess * 2.0 / (r * r) + 1e-12


def check_interpolation(values, reference, bound):
    err = np.abs(np.asarray(values) - np.asarray(reference))
    return [f"point {i}: |interpolate - evaluate| = {e:.3e} > {bound:.3e}"
            for i, e in enumerate(err) if not e <= bound]


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def check_spectrum_csv(path, lines):
    """analytic --nmax output against the library's exact_spectrum lines."""
    header, rows = read_csv(path)
    if header != ["N", "multiplicity", "tag"]:
        return [f"header {header}"]
    problems = []
    if len(rows) != len(lines):
        problems.append(f"{len(rows)} rows, library gives {len(lines)}")
    for row, line in zip(rows, lines):
        if (Fraction(row[0]) != line.value or int(row[1]) != line.multiplicity
                or row[2] != line.tag):
            problems.append(f"row {row} != {line}")
    return problems


def classify_reference(normalized, lines, tol):
    """Expected (class, witness) cells of one classify output row.

    classify picks the first nearest line of the exact spectrum up to
    value + tol + 1; lines up to a larger nmax give the same nearest line.
    """
    values = np.array([float(line.value) for line in lines])
    best = int(np.argmin(np.abs(values - normalized)))
    if abs(values[best] - normalized) > tol:
        return "singular", ""
    line = lines[best]
    return "nonsingular", (f"{line.value}|({line.witness[0]} "
                           f"{line.witness[1]})|{line.tag}")


def check_classify_csv(path, inputs, lines, tol):
    """classify output: one problem per row that differs from the reference."""
    header, rows = read_csv(path)
    if header != ["index", "lambda", "normalized", "class", "witness"]:
        return [f"header {header}"] * len(inputs)
    problems = [f"{len(rows)} rows for {len(inputs)} inputs"] \
        * abs(len(rows) - len(inputs))
    for row, x in zip(rows, inputs):
        want = classify_reference(x, lines, tol)
        if float(row[2]) != x or tuple(row[3:5]) != want:
            problems.append(f"row {row} != {want}")
    return problems


def check_count_csv(path, table):
    """count --source exact output against the library table."""
    header, rows = read_csv(path)
    if header != ["t", "N", "D", "A", "g"]:
        return [f"header {header}"]
    if len(rows) != len(table.t):
        return [f"{len(rows)} rows, library gives {len(table.t)}"]
    problems = []
    for i, row in enumerate(rows):
        t, n, d, a = float(row[0]), int(row[1]), float(row[2]), float(row[3])
        g_ok = (row[4] == "") if np.isnan(table.g[i]) else \
            (row[4] != "" and math.isclose(float(row[4]), table.g[i],
                                           rel_tol=1e-12, abs_tol=1e-12))
        if not (t == table.t[i] and n == table.n[i]
                and n == ps.tetra_count_exact(t)
                and math.isclose(d, table.d[i], rel_tol=1e-12, abs_tol=1e-12)
                and math.isclose(a, table.a[i], rel_tol=1e-12, abs_tol=1e-12)
                and g_ok):
            problems.append(f"row {i} {row}")
    return problems
