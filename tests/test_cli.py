import math
import os
import subprocess
import sys

import numpy as np
import pytest

import polyspec as ps
from polyspec import PolyhedronKind
from polyspec import analysis, cli
from polyspec.cli import run

import readme_cli

ND = 4 * math.pi ** 2 / 3


def test_mesh_command_prints_counts(capsys):
    assert run(["mesh", "--polyhedron", "tetrahedron",
                "--resolution", "128"]) == 0
    out = capsys.readouterr().out
    assert "planarCount 33153" in out
    assert "dofCount 32770" in out


def test_mesh_describe(capsys):
    assert run(["mesh", "--polyhedron", "cube", "--resolution", "2",
                "--describe"]) == 0
    out = capsys.readouterr().out
    assert "glue:" in out and "cone:" in out


def test_solve_writes_csv_and_is_deterministic(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["solve", "--polyhedron", "tetrahedron", "--resolution", "8",
            "--num-eigs", "5", "--seed", "7"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().split("\n")
    assert lines[0] == "index,lambda,normalized"
    assert len(lines) == 6
    row0 = lines[1].split(",")
    assert row0[0] == "0" and abs(float(row0[1])) < 1e-8


def test_solve_dump_matrices(tmp_path):
    prefix = tmp_path / "mats"
    assert run(["solve", "--polyhedron", "tetrahedron", "--resolution", "2",
                "--num-eigs", "3", "--out", str(tmp_path / "e.csv"),
                "--dump-matrices", str(prefix)]) == 0
    ktxt = (tmp_path / "mats.K.txt").read_text().strip().split("\n")
    i, j, v = ktxt[0].split(" ")
    int(i), int(j), float(v)
    mesh = ps.build_mesh(ps.build_net(PolyhedronKind.TETRAHEDRON), 2)
    K, _ = ps.assemble(mesh)
    assert len(ktxt) == K.nnz


def test_analytic_spectrum_csv(tmp_path):
    out = tmp_path / "s.csv"
    assert run(["analytic", "--polyhedron", "tetrahedron", "--nmax", "31",
                "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "N,multiplicity,tag"
    assert len(lines) == 16   # 15 values through 31
    assert lines[1] == "0,1,hexLattice"
    assert lines[5].startswith("7,6")


def test_analytic_eval_grid(tmp_path):
    out = tmp_path / "g.csv"
    assert run(["analytic", "--polyhedron", "cube", "--eval",
                "--type", "+-", "--orbit", "3,1", "--grid", "6",
                "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "x,y,value"
    assert len(lines) == 37


def test_extrapolate_pipeline(tmp_path):
    files = []
    for r in (8, 16, 32):
        f = tmp_path / f"r{r}.csv"
        assert run(["solve", "--polyhedron", "tetrahedron",
                    "--resolution", str(r), "--num-eigs", "4",
                    "--seed", "1", "--out", str(f)]) == 0
        files.append(str(f))
    out = tmp_path / "x.csv"
    assert run(["extrapolate", "--in", *files, "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    lam1 = float(lines[2].split(",")[1])
    assert abs(lam1 / ND - 1.0) < 2e-3


def test_extrapolate_one_row_files(tmp_path):
    files = []
    for r, lam in ((8, "9.0"), (16, "8.5"), (32, "8.25")):
        f = tmp_path / f"r{r}.csv"
        f.write_text(f"index,lambda,normalized\n0,{lam},{lam}\n")
        files.append(str(f))
    out = tmp_path / "x.csv"
    assert run(["extrapolate", "--in", *files, "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 2
    assert float(lines[1].split(",")[1]) == pytest.approx(8.0)


@pytest.mark.parametrize("body, line", [
    ("", None),
    ("0,0,0\n1,79.0\n", 3),
    ("0,0,0\n\n1,79.0,x\n", 4),
], ids=["no_data_rows", "short_row", "non_numeric_field"])
def test_malformed_solve_csv_exits_1(tmp_path, capsys, body, line):
    src = tmp_path / "e.csv"
    src.write_text("index,lambda,normalized\n" + body)
    for args in (["classify", "--in", str(src), "--polyhedron", "cube"],
                 ["extrapolate", "--in", str(src), str(src), str(src)]):
        assert run(args + ["--out", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert str(src) in err and "Traceback" not in err
        if line is not None:
            assert f"line {line}" in err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("args", [
    ["analytic", "--polyhedron", "octahedron", "--nmax", "inf"],
    ["analytic", "--polyhedron", "octahedron", "--nmax", "nan"],
    ["analytic", "--polyhedron", "octahedron", "--nmax", "1e6"],
    ["count", "--polyhedron", "tetrahedron", "--source", "exact",
     "--tmax", "inf", "--samples", "5"],
    ["classify", "--polyhedron", "cube", "--in", "{column}"],
], ids=["nmax_inf", "nmax_nan", "nmax_1e6", "tmax_inf", "classify_1e7"])
def test_lattice_bound_above_limit_exits_1(tmp_path, capsys, args):
    column = tmp_path / "c.csv"
    column.write_text("index,lambda,normalized\n0,1e7,1e7\n")
    args = [a.format(column=column) for a in args]
    assert run(args + ["--out", str(tmp_path / "o.csv")]) == 1
    err = capsys.readouterr().err
    assert "100000" in err and "Traceback" not in err
    assert not (tmp_path / "o.csv").exists()


def test_solve_beyond_the_dense_guard_exits_1(tmp_path, capsys):
    # cube r=19 has 2168 DOFs; at odd resolution it is solved whole
    out = tmp_path / "e.csv"
    assert run(["solve", "--polyhedron", "cube", "--resolution", "19",
                "--num-eigs", "5000", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: 2168 of 2168 eigenpairs") and "2000" in err
    assert "dense_solve" not in err and "Traceback" not in err
    assert not out.exists()


def test_count_exact_and_fem(tmp_path):
    out = tmp_path / "n.csv"
    assert run(["count", "--polyhedron", "tetrahedron", "--source", "exact",
                "--tmax", "60", "--samples", "7", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,N,D,A,g"
    assert len(lines) == 8
    t, n, d, a, g = lines[1].split(",")
    assert (float(t), int(n)) == (0.0, 1)
    assert float(d) == pytest.approx(0.5)
    out2 = tmp_path / "nf.csv"
    assert run(["count", "--polyhedron", "cube", "--source", "fem",
                "--tmax", "30", "--samples", "5", "--resolution", "8",
                "--num-eigs", "25", "--out", str(out2)]) == 0
    assert len(out2.read_text().strip().split("\n")) == 6


def test_count_warns_and_truncates(tmp_path, capsys):
    for tmax, shown in (("1e6", "1e+06"), ("inf", "inf")):
        out = tmp_path / f"n_{tmax}.csv"
        assert run(["count", "--polyhedron", "cube", "--source", "fem",
                    "--tmax", tmax, "--samples", "4", "--resolution", "4",
                    "--num-eigs", "10", "--out", str(out)]) == 0
        assert f"truncating tmax from {shown}" in capsys.readouterr().err
        assert len(out.read_text().strip().split("\n")) == 5


@pytest.mark.parametrize("source", ["fem", "exact"])
@pytest.mark.parametrize("tmax", ["nan", "0", "-1"])
def test_count_checks_tmax_before_solving(tmp_path, capsys, monkeypatch,
                                          source, tmax):
    def no_solve(*args, **kwargs):
        raise AssertionError("count solved before checking --tmax")

    monkeypatch.setattr(cli, "_solve_pairs", no_solve)
    monkeypatch.setattr(cli.analytic, "exact_tetra_eigenvalues", no_solve)
    out = tmp_path / "n.csv"
    assert run(["count", "--polyhedron", "tetrahedron", "--source", source,
                "--tmax", tmax, "--samples", "5", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --tmax must be > 0")
    assert "Traceback" not in err
    assert not out.exists()


def test_classify_command(tmp_path):
    src = tmp_path / "e.csv"
    src.write_text("index,lambda,normalized\n"
                   "0,0,0\n"
                   "1,79.0,8.004\n"
                   "2,79.5,8.057\n")
    out = tmp_path / "c.csv"
    assert run(["classify", "--in", str(src), "--polyhedron", "cube",
                "--tol", "0.02", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "index,lambda,normalized,class,witness"
    assert lines[1].split(",")[3] == "nonsingular"
    assert lines[2].split(",")[3] == "nonsingular"
    assert lines[3].split(",")[3] == "singular"


def test_classify_range_error_names_the_value(tmp_path, capsys):
    src = tmp_path / "e.csv"
    src.write_text("index,lambda,normalized\n0,0,0\n1,2631894.5,200000\n")
    out = tmp_path / "c.csv"
    assert run(["classify", "--in", str(src), "--polyhedron", "octahedron",
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "200000 with tol 0.02" in err and "at most 100000" in err
    assert "200001" not in err and "Traceback" not in err
    assert not out.exists()


def brute_force_classify(kind):
    """classify against every line up to v + tol + 1 at once: np.argmin
    keeps the first, i.e. lower, of equally near lines, as min did when
    classify rebuilt the spectrum for each value."""
    lines = ps.exact_spectrum(kind, analysis.LATTICE_LIMIT)
    values = np.array([float(sl.value) for sl in lines])

    def classify(v, kind, tol):
        dist = np.where(values <= v + tol + 1.0, np.abs(values - v), np.inf)
        i = int(np.argmin(dist))
        if dist[i] <= tol:
            return ps.Classification("nonsingular", lines[i].value,
                                     lines[i].witness, lines[i].tag)
        return ps.Classification("singular", None, None, None)
    return classify


@pytest.mark.parametrize("order", ["shuffled", "ascending"])
def test_classify_column_builds_log_many_spectra(tmp_path, monkeypatch, order):
    kind = PolyhedronKind.OCTAHEDRON
    values = np.random.default_rng(10).uniform(0, 99_990, 1000)
    if order == "ascending":
        values.sort()
    src = tmp_path / "e.csv"
    src.write_text("index,lambda,normalized\n" + "".join(
        f"{i},{v * analysis.normalizer(kind)!r},{v!r}\n"
        for i, v in enumerate(values.tolist())))
    args = ["classify", "--in", str(src), "--polyhedron", kind.value]
    oracle = brute_force_classify(kind)

    builds = []
    original = analysis.exact_spectrum

    def counted(k, nmax):
        builds.append(nmax)
        return original(k, nmax)

    analysis._TABLES.clear()
    monkeypatch.setattr(analysis, "exact_spectrum", counted)
    assert run(args + ["--out", str(tmp_path / "c.csv")]) == 0
    # each bound once, at most ceil(log2(LATTICE_LIMIT)) + 1 of them:
    # 2, 4, ..., 65536, 1e5
    assert 1 <= len(builds) <= 18
    if order == "ascending":
        assert builds[-1] == analysis.LATTICE_LIMIT

    monkeypatch.setattr(analysis, "classify", oracle)
    assert run(args + ["--out", str(tmp_path / "o.csv")]) == 0
    assert (tmp_path / "c.csv").read_bytes() == \
        (tmp_path / "o.csv").read_bytes()


def test_slice_constant_mode(tmp_path):
    out = tmp_path / "s.csv"
    assert run(["slice", "--polyhedron", "tetrahedron", "--resolution", "4",
                "--index", "0", "--y0", "0.4330127018922193",
                "--samples", "9", "--out", str(out)]) == 0
    rows = [r.split(",") for r in out.read_text().strip().split("\n")[1:]]
    vals = [float(v) for _, v in rows if v]
    assert len(vals) >= 5
    assert np.ptp(vals) < 1e-8


def test_slice_matches_vertex_values(tmp_path):
    mesh = ps.build_mesh(ps.build_net(PolyhedronKind.TETRAHEDRON), 4)
    K, M = ps.assemble(mesh)
    pairs = ps.solve_lowest(K, M, 2, seed=0)
    vec = pairs[1].vector
    # P1 interpolation reproduces nodal values exactly
    for pid in (3, 10, 17):
        p = mesh.planar_vertices[pid]
        v = ps.interpolate(mesh, vec, p)
        assert v == pytest.approx(vec[mesh.dof_of[pid]], abs=1e-13)


def test_slice_of_skew_eigenfunction_vanishes_on_axis(tmp_path):
    # sample the skew trig mode at mesh nodes; its restriction to the y = 0
    # mirror line vanishes up to interpolation error
    r = 16
    mesh = ps.build_mesh(ps.build_net(PolyhedronKind.TETRAHEDRON), r)
    f = ps.build_trig_eigenfunction(PolyhedronKind.TETRAHEDRON,
                                    ps.SymmetryType.ONE_MINUS, (4, 2))
    nodal = ps.evaluate(f, mesh.planar_vertices, check_domain=False)
    v = np.empty(mesh.dof_count)
    v[mesh.dof_of] = nodal
    for x in np.linspace(0.05, 1.95, 21):
        val = ps.interpolate(mesh, v, (x, 0.0))
        assert abs(val) < 10 / r ** 2


def test_usage_errors_exit_2(capsys):
    assert run(["bogus"]) == 2
    assert run(["solve", "--polyhedron", "cube"]) == 2
    assert run(["mesh", "--polyhedron", "cube", "--resolution", "2",
                "--unknown-flag"]) == 2
    capsys.readouterr()


def test_domain_errors_exit_1(tmp_path, capsys):
    assert run(["slice", "--polyhedron", "cube", "--resolution", "2",
                "--index", "0", "--y0", "99.0", "--samples", "3",
                "--out", str(tmp_path / "s.csv")]) == 1
    assert run(["classify", "--in", str(tmp_path / "missing.csv"),
                "--polyhedron", "cube", "--out",
                str(tmp_path / "c.csv")]) == 1
    capsys.readouterr()


def test_slice_y0_off_the_net_exits_1_before_solving(tmp_path, capsys,
                                                    monkeypatch):
    # 1e-9 below the tetrahedron net is 1.15e-9 below it in lattice
    # coordinates, so no sample point is located; nor is any on a NaN line
    def no_solve(*args, **kwargs):
        raise AssertionError("slice solved before checking --y0")

    monkeypatch.setattr(cli, "_solve_pairs", no_solve)
    out = tmp_path / "s.csv"
    for y0, shown in (("-1e-9", "-1e-09"), ("-nan", "nan")):
        assert run(["slice", "--polyhedron", "tetrahedron", "--resolution",
                    "2", "--index", "1", "--y0", y0, "--samples", "5",
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --y0 {shown}"), y0
        assert "Traceback" not in err
        assert not out.exists()


def test_slice_y0_within_the_tolerance_writes_values(tmp_path):
    out = tmp_path / "s.csv"
    assert run(["slice", "--polyhedron", "tetrahedron", "--resolution", "2",
                "--index", "1", "--y0", "-5e-10", "--samples", "5",
                "--out", str(out)]) == 0
    rows = [r.split(",") for r in out.read_text().strip().split("\n")[1:]]
    assert len(rows) == 5
    assert sum(1 for _, v in rows if v) == 4


def _float_options():
    ap = cli.build_parser()
    (sub,) = [a for a in ap._actions if a.dest == "command"]
    for name, p in sub.choices.items():
        for a in p._actions:
            if a.type is float:
                yield name, p, a


@pytest.mark.parametrize("value", ["-1e-9", "-1E3", "-.5e2", "-2.5e+1",
                                   "-inf", "-Infinity", "-nan"])
def test_float_options_read_negative_exponents_as_values(value):
    options = list(_float_options())
    assert {a.option_strings[0] for _, _, a in options} >= \
        {"--tol", "--nmax", "--tmax", "--y0"}
    for name, p, a in options:
        argv = [a.option_strings[0], value]
        for req in p._actions:
            if req.required and req is not a:
                argv += [req.option_strings[0],
                         req.choices[0] if req.choices else "1"]
        got, want = getattr(p.parse_args(argv), a.dest), float(value)
        assert got == want or math.isnan(got) and math.isnan(want), name


def test_count_negative_tmax_with_exponent_exits_1(tmp_path, capsys):
    out = tmp_path / "n.csv"
    for tmax in ("-1e3", "-inf"):
        assert run(["count", "--polyhedron", "tetrahedron", "--source",
                    "exact", "--tmax", tmax, "--samples", "5",
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --tmax must be > 0"), tmax
        assert not out.exists()


# a case's --out OUT_DIR names a directory in the test's tmp_path
OUT_DIR = "out-dir"


@pytest.mark.parametrize("args, message", [
    (["solve", "--polyhedron", "cube", "--resolution", "2", "--num-eigs",
      "3", "--tol", "nan"], "tol must be finite"),
    (["solve", "--polyhedron", "cube", "--resolution", "2", "--num-eigs",
      "0"], "m=0"),
    (["slice", "--polyhedron", "cube", "--resolution", "2", "--index", "99",
      "--y0", "0.5"], "26 DOFs"),
    (["slice", "--polyhedron", "cube", "--resolution", "2", "--index", "-1",
      "--y0", "0.5"], "26 DOFs"),
    (["slice", "--polyhedron", "cube", "--resolution", "2", "--index", "1",
      "--y0", "0.5", "--samples", "1"], "--samples must be >= 2"),
    (["analytic", "--polyhedron", "cube", "--eval", "--type", "++",
      "--orbit", "2,0", "--grid", "1"], "--grid must be >= 2"),
    (["analytic", "--polyhedron", "cube", "--eval", "--type", "++",
      "--orbit", "2"], "--orbit expects two integers"),
    (["analytic", "--polyhedron", "cube", "--nmax", "nan"], "finite"),
    (["count", "--polyhedron", "tetrahedron", "--source", "exact",
      "--tmax", "5", "--samples", "1"], "samples must be >= 2"),
    # tmax squared overflows a float
    (["count", "--polyhedron", "tetrahedron", "--source", "exact",
      "--tmax", "1e160", "--samples", "3"],
     "normalized bound must be finite and at most 100000"),
    # numpy refuses these at once: 8e17 bytes exceed any address space, so
    # no overcommit setting lets the allocation start
    (["count", "--polyhedron", "tetrahedron", "--source", "exact",
      "--tmax", "10", "--samples", str(10 ** 17)], "allocate"),
    (["analytic", "--polyhedron", "cube", "--eval", "--type", "++",
      "--orbit", "2,0", "--grid", str(10 ** 17)], "allocate"),
    (["analytic", "--polyhedron", "cube", "--eval", "--orbit", "2,0"],
     "--eval requires --type and --orbit"),
    (["analytic", "--polyhedron", "cube"], "spectrum mode requires --nmax"),
    # this file's first line is not an index,lambda,normalized header
    (["classify", "--in", __file__, "--polyhedron", "cube"],
     "expected an index,lambda,normalized file"),
    (["count", "--polyhedron", "cube", "--source", "exact", "--tmax", "5",
      "--samples", "3"], "for the tetrahedron only"),
    # one pair is the zero eigenvalue alone
    (["count", "--polyhedron", "tetrahedron", "--source", "fem",
      "--resolution", "1", "--num-eigs", "1", "--tmax", "5", "--samples",
      "3"], "no positive eigenvalue; more pairs are needed (--num-eigs)"),
    (["analytic", "--polyhedron", "tetrahedron", "--nmax", "10", "--out",
      OUT_DIR], "Is a directory"),
    (["solve", "--polyhedron", "cube", "--resolution", str(10 ** 400),
      "--num-eigs", "3"], "resolution must be an integer from 1 to"),
    # the orbit passes every lattice rule, but its eigenvalue exceeds the
    # float range; at 10**200 the frequencies alone would still fit a float
    (["analytic", "--polyhedron", "octahedron", "--eval", "--type", "+-",
      "--orbit", f"{10 ** 400},0", "--grid", "4"],
     "eigenvalue must be a finite float"),
    (["analytic", "--polyhedron", "octahedron", "--eval", "--type", "+-",
      "--orbit", f"{10 ** 200},0", "--grid", "4"],
     "eigenvalue must be a finite float"),
], ids=["tol_nan", "num_eigs_0", "slice_index_99", "slice_index_negative",
        "slice_samples_1", "eval_grid_1", "orbit_one_number", "nmax_nan",
        "count_samples_1", "count_tmax_1e160", "count_samples_huge",
        "eval_grid_huge", "eval_without_type", "analytic_without_nmax",
        "csv_bad_header", "count_exact_cube", "count_one_pair",
        "out_is_directory", "resolution_huge", "orbit_huge",
        "orbit_1e200"])
def test_bad_input_exits_1_without_traceback(tmp_path, capsys, args,
                                             message):
    out = tmp_path / "o.csv"
    (tmp_path / OUT_DIR).mkdir()
    args = [str(tmp_path / OUT_DIR) if a == OUT_DIR else a for a in args]
    if "--out" not in args:
        args += ["--out", str(out)]
    assert run(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert not out.exists()
    assert not [p for p in os.listdir(tmp_path) if p.startswith(".polyspec")]


def test_atomic_write_preserves_old_file_on_error(tmp_path):
    out = tmp_path / "keep.csv"
    out.write_text("precious\n")
    code = run(["analytic", "--polyhedron", "cube", "--eval",
                "--type", "+-", "--orbit", "2,2", "--grid", "4",
                "--out", str(out)])   # inadmissible orbit: fails before write
    assert code == 1
    assert out.read_text() == "precious\n"
    assert not [p for p in os.listdir(tmp_path) if p.startswith(".polyspec")]


def test_all_numbers_have_17_significant_digits(tmp_path):
    out = tmp_path / "e.csv"
    assert run(["solve", "--polyhedron", "cube", "--resolution", "4",
                "--num-eigs", "3", "--out", str(out)]) == 0
    row = out.read_text().strip().split("\n")[2].split(",")
    assert len(row[1].replace(".", "").replace("-", "").lstrip("0")) >= 16


def test_python_dash_m_entry_point():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    for module in ("polyspec", "polyspec.cli"):
        done = subprocess.run([sys.executable, "-m", module, "mesh",
                               "--polyhedron", "cube", "--resolution", "2"],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        assert "dofCount 26" in done.stdout.split("\n")


def _header(path):
    return path.read_text().split("\n", 1)[0]


def test_readme_cli_block_runs_in_order(tmp_path):
    # each README comment names the file's header, or what classify appends
    # to its input's header, or a line that the command prints
    results = readme_cli.run_all(tmp_path)
    assert [argv[0] for argv, *_ in results] == [
        "solve", "solve", "solve", "mesh", "solve", "analytic", "analytic",
        "extrapolate", "count", "count", "classify", "slice"]
    for argv, comment, code, stdout in results:
        assert code == 0, argv
        word, _, rest = comment.partition(" ")
        if word == "prints":
            assert rest in stdout.splitlines()
        if "--out" not in argv:
            continue
        header = _header(tmp_path / argv[argv.index("--out") + 1])
        if word == "appends":
            source = _header(tmp_path / argv[argv.index("--in") + 1])
            assert header == f"{source},{rest}"
        else:
            assert header == word
    assert "planarCount 33153" in results[3][3].splitlines()


def test_readme_cli_script_logs_each_command(tmp_path, monkeypatch):
    monkeypatch.setattr(readme_cli, "commands", lambda: [
        (["mesh", "--polyhedron", "cube", "--resolution", "2"], ""),
        (["mesh", "--polyhedron", "cube", "--resolution", "0"], "")])
    assert readme_cli.main(tmp_path / "out") == 1
    log = (tmp_path / "out" / "stdout.txt").read_text()
    assert log.startswith("$ polyspec mesh --polyhedron cube --resolution 2\n"
                          "planarCount ")
    assert log.count("$ polyspec mesh") == 2
