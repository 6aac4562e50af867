import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyspec as ps
from polyspec import PolyhedronKind
from polyspec.analytic import SymmetryType as ST

SQRT3 = math.sqrt(3.0)
ND = 4 * math.pi ** 2 / 3

TABLE_MULTIPLICITIES = {0: 1, 1: 3, 3: 3, 4: 3, 7: 6, 9: 3, 12: 3, 13: 6,
                        16: 3, 19: 6, 21: 6, 25: 3, 27: 3, 28: 6, 31: 6}


def all_functions(nmax=48, kinds=None, with_enlarged=False):
    out = []
    for kind in kinds or list(PolyhedronKind):
        for t, orb in ps.admissible_orbits(kind, nmax):
            f = ps.build_trig_eigenfunction(kind, t, orb)
            out.append(f)
            if with_enlarged and kind is PolyhedronKind.OCTAHEDRON:
                out.append(ps.enlarge(f))
    return out


# ---------------------------------------------------------------------------
# lattice counting


def test_hexagonal_multiplicity_examples():
    assert ps.hexagonal_multiplicity(0) == 1
    assert ps.hexagonal_multiplicity(1) == 3
    assert ps.hexagonal_multiplicity(7) == 6
    # 49 = 7^2 and 49 = 3^2 + 5^2 + 3*5: the brute-force count is 9
    assert ps.hexagonal_multiplicity(49) == 9


@given(st.integers(min_value=0, max_value=120))
@settings(max_examples=40, deadline=None)
def test_hexagonal_multiplicity_against_independent_enumeration(n):
    if n == 0:
        assert ps.hexagonal_multiplicity(0) == 1
        return
    # independent oracle: enumerate over a disc in cartesian frequency space
    u = np.array([0.5, SQRT3 / 6])
    v = np.array([0.0, SQRT3 / 3])
    bound = 3 * int(math.isqrt(n)) + 3
    count = 0
    for j in range(-bound, bound + 1):
        for k in range(-bound, bound + 1):
            if j == 0 and k == 0:
                continue
            xi = k * u + j * v
            if abs(3 * (xi @ xi) - n) < 1e-9:
                count += 1
    assert ps.hexagonal_multiplicity(n) * 2 == count


@pytest.mark.parametrize("bound", [math.inf, math.nan, 1e6])
def test_lattice_entry_points_reject_bounds_above_limit(bound):
    # like exact_spectrum: ValueError, not a TypeError from math.isqrt or an
    # allocation of about isqrt(bound)^2 entries
    with pytest.raises(ValueError, match="at most 100000"):
        ps.hexagonal_multiplicity(bound)
    for kind in PolyhedronKind:
        with pytest.raises(ValueError, match="at most 100000"):
            ps.admissible_orbits(kind, bound)


def test_exact_spectrum_tetrahedron_table():
    lines = ps.exact_spectrum(PolyhedronKind.TETRAHEDRON, 31)
    got = {int(line.value): line.multiplicity for line in lines}
    assert got == TABLE_MULTIPLICITIES
    for line in lines:
        k, j = line.witness
        assert k * k + j * j + k * j == line.value


def test_spectrum_multiplicities_match_per_value_oracle():
    lines = ps.exact_spectrum(PolyhedronKind.TETRAHEDRON, 80)
    for line in lines:
        assert line.multiplicity == ps.hexagonal_multiplicity(int(line.value))


def test_exact_spectrum_octahedron_contains_thirds():
    vals = {line.value: line.tag
            for line in ps.exact_spectrum(PolyhedronKind.OCTAHEDRON, 17)}
    assert vals == {Fraction(0): "hexLattice", Fraction(4, 3): "third",
                    Fraction(4): "hexLattice", Fraction(16, 3): "third",
                    Fraction(28, 3): "third", Fraction(12): "hexLattice",
                    Fraction(16): "hexLattice"}


def test_exact_spectrum_icosahedron_no_thirds():
    vals = [line.value for line in
            ps.exact_spectrum(PolyhedronKind.ICOSAHEDRON, 17)]
    assert vals == [0, 4, 12, 16]


def test_exact_spectrum_cube():
    vals = [int(line.value) for line in
            ps.exact_spectrum(PolyhedronKind.CUBE, 10)]
    assert vals == [0, 2, 4, 8, 10]
    assert 5 not in vals


def _brute_force_spectrum(kind, nmax):
    # value -> [tag, multiplicity, witness] by direct double loops: every
    # lattice point for the tetrahedron's multiplicities, canonical
    # k >= j >= 0 in increasing (k, j) order for the witnesses
    bound = 2 * math.isqrt(3 * math.ceil(nmax)) + 2
    out = {}
    if kind is PolyhedronKind.TETRAHEDRON:
        for a in range(-bound, bound + 1):
            for b in range(-bound, bound + 1):
                n = a * a + a * b + b * b
                if n <= nmax:
                    out.setdefault(Fraction(n), ["hexLattice", 0, None])[1] += 1
        for line in out.values():
            line[1] = max(1, line[1] // 2)
    for k in range(bound + 1):
        for j in range(k + 1):
            if kind is PolyhedronKind.CUBE:
                n = k * k + j * j
                if (k - j) % 2 == 0 and n <= nmax:
                    out.setdefault(Fraction(n), ["squareLattice", 1, (k, j)])
            elif kind is PolyhedronKind.TETRAHEDRON:
                n = k * k + k * j + j * j
                if n <= nmax and out[Fraction(n)][2] is None:
                    out[Fraction(n)][2] = (k, j)
            elif k % 2 == 0 and j % 2 == 0:
                n = k * k + k * j + j * j
                if n <= nmax:
                    out.setdefault(Fraction(n), ["hexLattice", 1, (k, j)])
    if kind is PolyhedronKind.OCTAHEDRON:
        # thirds of the even-orbit values that are not direct values
        for k in range(0, bound + 1, 2):
            for j in range(0, k + 1, 2):
                third = Fraction(k * k + k * j + j * j, 3)
                if third <= nmax:
                    out.setdefault(third, ["third", 1, (k, j)])
    return out


@pytest.mark.parametrize("kind", list(PolyhedronKind))
@pytest.mark.parametrize("nmax", [37.5, 400])
def test_exact_spectrum_against_brute_force(kind, nmax):
    want = _brute_force_spectrum(kind, nmax)
    lines = ps.exact_spectrum(kind, nmax)
    assert [line.value for line in lines] == sorted(want)
    for line in lines:
        tag, multiplicity, witness = want[line.value]
        assert (line.tag, line.multiplicity) == (tag, multiplicity)
        # the smallest canonical orbit of the value: even for the octahedron
        # and icosahedron, of equal parity for the cube
        assert line.witness == witness


def test_torus_counting_examples():
    assert ps.torus_count(0) == 1
    assert ps.tetra_count_exact(0) == 1
    t1 = ND * (1 + 1e-12)
    assert ps.torus_count(t1) == 7
    assert ps.tetra_count_exact(t1) == 4
    t3 = ND * (3 + 1e-12)
    assert ps.torus_count(t3) == 13
    assert ps.tetra_count_exact(t3) == 7


def test_cumulative_multiplicity_matches_covering_count():
    lines = ps.exact_spectrum(PolyhedronKind.TETRAHEDRON, 200)
    cum = 0
    for line in lines:
        cum += line.multiplicity
        assert cum == ps.tetra_count_exact(ND * (float(line.value) + 1e-9))


# ---------------------------------------------------------------------------
# trig eigenfunctions


def test_constant_function_values():
    f = ps.build_trig_eigenfunction(PolyhedronKind.TETRAHEDRON,
                                    ST.ONE_PLUS, (0, 0))
    assert f.lambda_value == 0
    assert ps.evaluate(f, (0.0, 0.0)) == pytest.approx(3.0, abs=1e-12)
    g = ps.build_trig_eigenfunction(PolyhedronKind.CUBE, ST.PP, (0, 0))
    assert ps.evaluate(g, (0.5, 0.5)) == pytest.approx(2.0, abs=1e-12)


def test_generic_values_at_origin():
    fp = ps.build_trig_eigenfunction(PolyhedronKind.TETRAHEDRON,
                                     ST.ONE_PLUS, (4, 2))
    fm = ps.build_trig_eigenfunction(PolyhedronKind.TETRAHEDRON,
                                     ST.ONE_MINUS, (4, 2))
    assert ps.evaluate(fp, (0.0, 0.0)) == pytest.approx(6.0, abs=1e-12)
    assert ps.evaluate(fm, (0.0, 0.0)) == pytest.approx(0.0, abs=1e-12)
    center = (0.5, 0.5)  # cube face center is the formula origin
    cp = ps.build_trig_eigenfunction(PolyhedronKind.CUBE, ST.PP, (4, 2))
    cm = ps.build_trig_eigenfunction(PolyhedronKind.CUBE, ST.MM, (4, 2))
    assert ps.evaluate(cp, center) == pytest.approx(4.0, abs=1e-12)
    assert ps.evaluate(cm, center) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("kind,sym,orbit", [
    (PolyhedronKind.TETRAHEDRON, ST.ONE_MINUS, (2, 0)),
    (PolyhedronKind.TETRAHEDRON, ST.ONE_MINUS, (2, 2)),
    (PolyhedronKind.TETRAHEDRON, ST.ONE_MINUS, (0, 0)),
    (PolyhedronKind.TETRAHEDRON, ST.ONE_PLUS, (3, 1)),
    (PolyhedronKind.TETRAHEDRON, ST.PP, (2, 0)),
    (PolyhedronKind.ICOSAHEDRON, ST.ONE_MINUS, (4, 0)),
    (PolyhedronKind.OCTAHEDRON, ST.MM, (2, 2)),
    (PolyhedronKind.OCTAHEDRON, ST.PM, (2, 2)),
    (PolyhedronKind.OCTAHEDRON, ST.MP, (2, 0)),
    (PolyhedronKind.CUBE, ST.PP, (3, 1)),
    (PolyhedronKind.CUBE, ST.PM, (4, 2)),
    (PolyhedronKind.CUBE, ST.MP, (3, 3)),
    (PolyhedronKind.CUBE, ST.MM, (2, 0)),
    (PolyhedronKind.CUBE, ST.ONE_PLUS, (2, 0)),
    (PolyhedronKind.TETRAHEDRON, ST.ONE_PLUS, (2, 4)),
])
def test_inadmissible_orbits_raise(kind, sym, orbit):
    with pytest.raises(ps.InadmissibleOrbitError):
        ps.build_trig_eigenfunction(kind, sym, orbit)


def test_per_term_eigen_relation():
    for f in all_functions(with_enlarged=True):
        lam = f.lambda_value * 3 ** f.enlargement_depth
        for freq in f.frequencies:
            assert abs((2 * math.pi) ** 2 * (freq @ freq) - lam) \
                <= 1e-12 * max(1.0, lam)


def test_term_counts():
    for f in all_functions():
        assert len(f.terms) in (2, 3, 4, 6)


def test_waveforms_by_type():
    for f in all_functions():
        if f.kind is PolyhedronKind.OCTAHEDRON and \
                f.sym_type in (ST.PM, ST.MP):
            assert f.waveform == "sin"
        else:
            assert f.waveform == "cos"


def test_fold_evaluation_equals_raw_sum_at_depth_zero():
    rng = np.random.default_rng(0)
    for f in all_functions(nmax=28):
        net = ps.build_net(f.kind)
        pts = rng.uniform(-2.0, 4.0, size=(40, 2))
        got = ps.evaluate(f, pts, check_domain=False)
        q = pts - np.array(net.formula_origin)
        ph = 2 * math.pi * (q @ f.frequencies.T)
        w = np.sin(ph) if f.waveform == "sin" else np.cos(ph)
        want = w @ np.array(f.signs, float)
        assert np.abs(got - want).max() < 1e-9


def test_half_turn_parity():
    rng = np.random.default_rng(1)
    for f in all_functions(nmax=28):
        net = ps.build_net(f.kind)
        c = np.array(net.formula_origin)
        pts = c + rng.uniform(-1, 1, size=(30, 2))
        v1 = ps.evaluate(f, pts, check_domain=False)
        v2 = ps.evaluate(f, 2 * c - pts, check_domain=False)
        sign = -1.0 if f.waveform == "sin" else 1.0
        assert np.abs(v2 - sign * v1).max() < 1e-9


def test_reflection_signs():
    rng = np.random.default_rng(2)
    for f in all_functions(nmax=28, with_enlarged=True):
        for (px, py), (dx, dy), sign in ps.mirror_lines(f):
            d = np.array([dx, dy]) / math.hypot(dx, dy)
            R = 2 * np.outer(d, d) - np.eye(2)
            pts = rng.uniform(-1.5, 2.5, size=(25, 2))
            ref = (pts - [px, py]) @ R.T + [px, py]
            v1 = ps.evaluate(f, pts, check_domain=False)
            v2 = ps.evaluate(f, ref, check_domain=False)
            assert np.abs(v2 - sign * v1).max() < 1e-9


def test_skew_type_vanishes_on_mirror_lines():
    f = ps.build_trig_eigenfunction(PolyhedronKind.TETRAHEDRON,
                                    ST.ONE_MINUS, (4, 2))
    for (px, py), (dx, dy), sign in ps.mirror_lines(f):
        assert sign == -1
        ts = np.linspace(-1, 2, 30)
        pts = np.column_stack([px + ts * dx, py + ts * dy])
        vals = ps.evaluate(f, pts, check_domain=False)
        assert np.abs(vals).max() < 1e-9


def test_glued_edge_continuity():
    for f in all_functions(nmax=48, with_enlarged=True):
        net = ps.build_net(f.kind)
        for g in net.identifications:
            ss = np.linspace(0.0, 1.0, 13)
            pa = np.array([ps.edge_point(net, g.face_a, g.edge_a, s)
                           for s in ss])
            pb = []
            for s in ss:
                fb, eb, t = ps.glue_map(net, g.face_a, g.edge_a, s)
                pb.append(ps.edge_point(net, fb, eb, t))
            va = ps.evaluate(f, pa)
            vb = ps.evaluate(f, np.array(pb))
            assert np.abs(va - vb).max() < 1e-9, \
                (f.kind, f.sym_type, f.orbit, f.enlargement_depth)


def _interior_points(net, n, rng):
    pts = []
    faces = net.faces
    for i in range(n):
        f = faces[i % len(faces)]
        v = np.array(f.vertices)
        w = rng.dirichlet(np.ones(len(v)))
        w = 0.6 * w + 0.4 / len(v)   # keep the FD stencil inside the face
        pts.append(w @ v)
    return np.array(pts)


@pytest.mark.parametrize("kind,sym,orbit", [
    (PolyhedronKind.TETRAHEDRON, ST.ONE_PLUS, (2, 2)),
    (PolyhedronKind.TETRAHEDRON, ST.ONE_MINUS, (4, 2)),
    (PolyhedronKind.OCTAHEDRON, ST.PM, (2, 0)),
    (PolyhedronKind.OCTAHEDRON, ST.MP, (2, 2)),
    (PolyhedronKind.ICOSAHEDRON, ST.ONE_PLUS, (2, 0)),
    (PolyhedronKind.CUBE, ST.PM, (3, 1)),
    (PolyhedronKind.CUBE, ST.MM, (4, 2)),
])
def test_five_point_laplacian(kind, sym, orbit):
    f = ps.build_trig_eigenfunction(kind, sym, orbit)
    net = ps.build_net(kind)
    rng = np.random.default_rng(4)
    pts = _interior_points(net, 100, rng)
    h = 1e-3
    lam = f.lambda_value
    sup = max(abs(s) for s in f.signs) * len(f.signs)
    tol = 10 * h ** 2 * lam ** 2 * sup
    c = ps.evaluate(f, pts, check_domain=False)
    lap = (ps.evaluate(f, pts + [h, 0], check_domain=False)
           + ps.evaluate(f, pts - [h, 0], check_domain=False)
           + ps.evaluate(f, pts + [0, h], check_domain=False)
           + ps.evaluate(f, pts - [0, h], check_domain=False) - 4 * c) / h ** 2
    assert np.abs(lap + lam * c).max() < tol


def test_rayleigh_consistency_up_to_16(bench):
    for kind in PolyhedronKind:
        mesh = bench.mesh(kind, 32)
        K, M = bench.matrices(kind, 32)
        for t, orb in ps.admissible_orbits(kind, 16):
            f = ps.build_trig_eigenfunction(kind, t, orb)
            vals = ps.evaluate(f, mesh.planar_vertices, check_domain=False)
            v = np.empty(mesh.dof_count)
            v[mesh.dof_of] = vals
            num = v @ (K @ v)
            den = v @ (M @ v)
            if f.lambda_value == 0:
                assert num / den < 1e-10
            else:
                assert abs(num / den - f.lambda_value) <= 0.02 * f.lambda_value


def test_evaluate_out_of_domain():
    f = ps.build_trig_eigenfunction(PolyhedronKind.TETRAHEDRON,
                                    ST.ONE_PLUS, (2, 0))
    with pytest.raises(ps.OutOfDomainError):
        ps.evaluate(f, (-5.0, 0.3))
    ps.evaluate(f, (-5.0, 0.3), check_domain=False)  # well-defined anyway


# ---------------------------------------------------------------------------
# enlargement


def test_enlarge_scales_lambda_by_exactly_one_third():
    f = ps.build_trig_eigenfunction(PolyhedronKind.OCTAHEDRON, ST.PP, (2, 0))
    g = ps.enlarge(f)
    assert g.normalized == Fraction(f.norm_value, 3)
    assert g.normalized * 3 == f.normalized
    assert g.lambda_value == pytest.approx(f.lambda_value / 3, rel=1e-15)
    f16 = ps.build_trig_eigenfunction(PolyhedronKind.OCTAHEDRON, ST.PP, (4, 0))
    assert ps.enlarge(f16).normalized == Fraction(16, 3)


def test_enlarge_rejects_wrong_inputs():
    t = ps.build_trig_eigenfunction(PolyhedronKind.TETRAHEDRON,
                                    ST.ONE_PLUS, (2, 0))
    with pytest.raises(ps.NotOctahedronError):
        ps.enlarge(t)
    f = ps.build_trig_eigenfunction(PolyhedronKind.OCTAHEDRON, ST.PM, (2, 0))
    with pytest.raises(ps.NotOneDimensionalTypeError):
        ps.enlarge(ps.enlarge(f))


def test_enlarged_functions_solve_the_eigenproblem():
    rng = np.random.default_rng(9)
    net = ps.build_net(PolyhedronKind.OCTAHEDRON)
    for t, orb in ps.admissible_orbits(PolyhedronKind.OCTAHEDRON, 16):
        f = ps.build_trig_eigenfunction(PolyhedronKind.OCTAHEDRON, t, orb)
        if f.norm_value == 0:
            continue
        g = ps.enlarge(f)
        pts = _interior_points(net, 40, rng)
        h = 1e-3
        lam = g.lambda_value
        sup = len(g.signs)
        tol = 10 * h ** 2 * (lam * 3) ** 2 * sup
        c = ps.evaluate(g, pts, check_domain=False)
        lap = (ps.evaluate(g, pts + [h, 0], check_domain=False)
               + ps.evaluate(g, pts - [h, 0], check_domain=False)
               + ps.evaluate(g, pts + [0, h], check_domain=False)
               + ps.evaluate(g, pts - [0, h], check_domain=False)
               - 4 * c) / h ** 2
        assert np.abs(lap + lam * c).max() < tol
