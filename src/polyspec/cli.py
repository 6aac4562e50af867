"""Command-line interface.

One subcommand per pipeline stage; every file is written atomically (temp
file in the target directory, then rename) and all numeric output uses 17
significant digits.  Exit status: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import tempfile

import numpy as np

from . import analysis, analytic, eigen, fem
from .errors import PolyspecError
from .mesh import build_mesh, expected_planar_count, interpolate
from .net import PolyhedronKind, build_net, face_containing


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".polyspec-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _kind(args) -> PolyhedronKind:
    return PolyhedronKind.parse(args.polyhedron)


def _solve_pairs(mesh, num_eigs, tol, seed):
    K, M = fem.assemble(mesh)
    m = min(num_eigs, mesh.dof_count)
    pairs = eigen.solve_lowest(K, M, m, tol=tol, seed=seed)
    return K, M, pairs


def _at_least_two(name, value):
    if value < 2:
        raise PolyspecError(f"{name} must be >= 2, got {value}")


def _cmd_mesh(args) -> int:
    kind = _kind(args)
    net = build_net(kind)
    mesh = build_mesh(net, args.resolution)
    assert mesh.planar_count == expected_planar_count(net, args.resolution)
    print(f"planarCount {mesh.planar_count}")
    print(f"dofCount {mesh.dof_count}")
    print(f"elementCount {len(mesh.elements)}")
    print(f"area {_fmt(mesh.element_areas.sum())}")
    if args.describe:
        print(net.describe())
    return 0


def _cmd_solve(args) -> int:
    kind = _kind(args)
    mesh = build_mesh(build_net(kind), args.resolution)
    K, M, pairs = _solve_pairs(mesh, args.num_eigs, args.tol, args.seed)
    rows = ["index,lambda,normalized"]
    for i, p in enumerate(pairs):
        rows.append(f"{i},{_fmt(p.value)},"
                    f"{_fmt(analysis.normalize(p.value, kind))}")
    _atomic_write(args.out, "\n".join(rows) + "\n")
    if args.dump_matrices:
        for name, A in (("K", K), ("M", M)):
            coo = A.tocoo()
            lines = [f"{i} {j} {_fmt(v)}"
                     for i, j, v in zip(coo.row, coo.col, coo.data)]
            _atomic_write(f"{args.dump_matrices}.{name}.txt",
                          "\n".join(lines) + "\n")
    return 0


def _cmd_analytic(args) -> int:
    kind = _kind(args)
    if args.eval:
        if args.type is None or args.orbit is None:
            raise PolyspecError("--eval requires --type and --orbit")
        _at_least_two("--grid", args.grid)
        try:
            k, j = (int(x) for x in args.orbit.split(","))
        except ValueError:
            raise PolyspecError(f"--orbit expects two integers k,j, got "
                                f"{args.orbit!r}") from None
        f = analytic.build_trig_eigenfunction(
            kind, analytic.SymmetryType.parse(args.type), (k, j))
        net = build_net(kind)
        xs = [v[0] for face in net.faces for v in face.vertices]
        ys = [v[1] for face in net.faces for v in face.vertices]
        gx = np.linspace(min(xs), max(xs), args.grid)
        gy = np.linspace(min(ys), max(ys), args.grid)
        pts = np.column_stack([a.ravel() for a in np.meshgrid(gx, gy)])
        vals = analytic.evaluate(f, pts, check_domain=False)
        rows = ["x,y,value"]
        rows.extend(f"{_fmt(x)},{_fmt(y)},{_fmt(v)}"
                    for (x, y), v in zip(pts, vals))
        _atomic_write(args.out, "\n".join(rows) + "\n")
        return 0
    if args.nmax is None:
        raise PolyspecError("spectrum mode requires --nmax")
    lines = analytic.exact_spectrum(kind, args.nmax)
    rows = ["N,multiplicity,tag"]
    rows.extend(f"{line.value},{line.multiplicity},{line.tag}"
                for line in lines)
    _atomic_write(args.out, "\n".join(rows) + "\n")
    return 0


def _read_solve_csv(path):
    """Data rows of an index,lambda,normalized file, split into fields.

    Raises PolyspecError naming the file and line when the header is wrong,
    there are no data rows, or a row's first three fields are not finite
    numbers.
    """
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header[:3] != ["index", "lambda", "normalized"]:
            raise PolyspecError(f"{path}: expected an index,lambda,normalized "
                                "file")
        rows = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            row = line.strip().split(",")
            try:
                ok = len(row) >= 3 and all(math.isfinite(float(x))
                                           for x in row[:3])
            except ValueError:
                ok = False
            if not ok:
                raise PolyspecError(f"{path}, line {lineno}: expected three "
                                    f"numbers, got {line.strip()!r}")
            rows.append(row)
    if not rows:
        raise PolyspecError(f"{path}: no data rows")
    return rows


def _cmd_extrapolate(args) -> int:
    triples = [_read_solve_csv(p) for p in args.infiles]
    n = min(len(t) for t in triples)
    rows = ["index,lambda,normalized"]
    first = next((row for row in triples[0] if float(row[1])), None)
    ratio = float(first[2]) / float(first[1]) if first else 1.0
    for i in range(n):
        vals = [float(t[i][1]) for t in triples]
        lam = analysis.aitken_extrapolate(*vals)
        rows.append(f"{i},{_fmt(lam)},{_fmt(lam * ratio)}")
    _atomic_write(args.out, "\n".join(rows) + "\n")
    return 0


def _cmd_count(args) -> int:
    kind = _kind(args)
    _at_least_two("--samples", args.samples)
    if not args.tmax > 0:                   # also rejects nan
        raise PolyspecError(f"--tmax must be > 0, got {args.tmax}")
    if args.source == "exact":
        if kind is not PolyhedronKind.TETRAHEDRON:
            raise PolyspecError("exact counting series exist for the "
                                "tetrahedron only")
        # tmax * tmax overflows to inf, where tmax ** 2 would raise
        nmax_needed = analysis.normalize(args.tmax * args.tmax, kind) + 8
        nmax = min(nmax_needed, analytic.LATTICE_LIMIT)
        nmax = max(nmax, analysis.normalize(args.tmax, kind) + 1)
        # a non-finite or too large bound stays a float, so exact_spectrum
        # rejects it with a ValueError
        ev = analytic.exact_tetra_eigenvalues(np.ceil(nmax))
        series = analysis.make_counting_series(kind, ev)
    else:
        mesh = build_mesh(build_net(kind), args.resolution)
        _, _, pairs = _solve_pairs(mesh, args.num_eigs, args.tol, args.seed)
        if len(pairs) < 2:              # the first pair is the zero one
            raise PolyspecError("the computed spectrum has no positive "
                                "eigenvalue; more pairs are needed "
                                "(--num-eigs)")
        series = analysis.make_counting_series(kind,
                                               [p.value for p in pairs])
    tmax = args.tmax
    if tmax > series.coverage:
        print(f"warning: spectrum covers t <= {series.coverage:.6g}; "
              f"truncating tmax from {tmax:.6g}", file=sys.stderr)
        tmax = series.coverage
    table = analysis.remainder_series(series, tmax, args.samples)
    rows = ["t,N,D,A,g"]
    for t, n, d, a, g in zip(table.t, table.n, table.d, table.a, table.g):
        gtxt = "" if np.isnan(g) else _fmt(g)
        rows.append(f"{_fmt(t)},{int(n)},{_fmt(d)},{_fmt(a)},{gtxt}")
    _atomic_write(args.out, "\n".join(rows) + "\n")
    return 0


def _cmd_classify(args) -> int:
    kind = _kind(args)
    rows = _read_solve_csv(args.infile)
    out = ["index,lambda,normalized,class,witness"]
    for row in rows:
        c = analysis.classify(float(row[2]), kind, tol=args.tol)
        if c.label == "nonsingular":
            witness = f"{c.value}|({c.witness[0]} {c.witness[1]})|{c.tag}"
        else:
            witness = ""
        out.append(",".join(row[:3]) + f",{c.label},{witness}")
    _atomic_write(args.out, "\n".join(out) + "\n")
    return 0


def _cmd_slice(args) -> int:
    kind = _kind(args)
    _at_least_two("--samples", args.samples)
    mesh = build_mesh(build_net(kind), args.resolution)
    if not 0 <= args.index < mesh.dof_count:
        raise PolyspecError(f"--index {args.index} outside 0.."
                            f"{mesh.dof_count - 1}: the mesh has "
                            f"{mesh.dof_count} DOFs")
    xs = mesh.planar_vertices[:, 0]
    xs = np.linspace(xs.min(), xs.max(), args.samples)
    # the rule interpolate applies: face_containing, up to 1e-9 on the lattice
    if all(face_containing(mesh.net, x, args.y0) is None for x in xs):
        raise PolyspecError(f"--y0 {args.y0}: no sample point lies on the net")
    _, _, pairs = _solve_pairs(mesh, args.index + 1, args.tol, args.seed)
    vec = pairs[args.index].vector
    rows = ["s,value"]
    for x in xs:
        try:
            val = interpolate(mesh, vec, (x, args.y0))
            rows.append(f"{_fmt(x)},{_fmt(val)}")
        except PolyspecError:
            rows.append(f"{_fmt(x)},")
    _atomic_write(args.out, "\n".join(rows) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="polyspec",
        description="Laplacian spectra of flat polyhedral surfaces")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_poly(p):
        p.add_argument("--polyhedron", required=True,
                       help="tetrahedron | octahedron | icosahedron | cube")

    p = sub.add_parser("mesh", help="build a mesh and print its size")
    add_poly(p)
    p.add_argument("--resolution", type=int, required=True)
    p.add_argument("--describe", action="store_true",
                   help="also dump faces, glues, and cone points")
    p.set_defaults(func=_cmd_mesh)

    p = sub.add_parser("solve", help="compute the lowest eigenvalues")
    add_poly(p)
    p.add_argument("--resolution", type=int, required=True)
    p.add_argument("--num-eigs", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--dump-matrices", metavar="PREFIX",
                   help="also write PREFIX.K.txt / PREFIX.M.txt in "
                        "'row col value' format")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("analytic", help="exact spectra / eigenfunction grids")
    add_poly(p)
    p.add_argument("--nmax", type=float)
    p.add_argument("--eval", action="store_true")
    p.add_argument("--type", help="symmetry type: 1+ 1- ++ -- +- -+")
    p.add_argument("--orbit", help="k,j")
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_analytic)

    p = sub.add_parser("extrapolate",
                       help="Aitken-extrapolate three solve outputs")
    p.add_argument("--in", dest="infiles", nargs=3, required=True,
                   metavar=("R", "2R", "4R"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_extrapolate)

    p = sub.add_parser("count", help="counting function table t,N,D,A,g")
    add_poly(p)
    p.add_argument("--source", choices=("fem", "exact"), required=True)
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--resolution", type=int, default=32)
    p.add_argument("--num-eigs", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("classify",
                       help="label solve output rows nonsingular/singular")
    add_poly(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--tol", type=float, default=0.02)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("slice",
                       help="sample one eigenvector along a horizontal line")
    add_poly(p)
    p.add_argument("--resolution", type=int, required=True)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--y0", type=float, required=True)
    p.add_argument("--samples", type=int, default=257)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_slice)
    # argparse before 3.14 reads a value like -1e-9 or -inf as an option string
    for p in sub.choices.values():
        p._negative_number_matcher = re.compile(r"(?i)-(\.?\d|inf|nan)")
    return ap


def run(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (PolyspecError, ValueError, OSError, MemoryError,
            OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
