import math

import numpy as np
import pytest

import polyspec as ps
from polyspec import PolyhedronKind

from conftest import KINDS

SQRT3 = math.sqrt(3.0)

PAPER_COUNTS = {
    PolyhedronKind.TETRAHEDRON: 33153,
    PolyhedronKind.OCTAHEDRON: 66177,
    PolyhedronKind.ICOSAHEDRON: 165249,
    PolyhedronKind.CUBE: 99201,
}

DOF_COEFF = {
    PolyhedronKind.TETRAHEDRON: 2,
    PolyhedronKind.OCTAHEDRON: 4,
    PolyhedronKind.ICOSAHEDRON: 10,
    PolyhedronKind.CUBE: 6,
}


@pytest.mark.parametrize("kind", KINDS)
def test_planar_count_formula_at_128(kind):
    net = ps.build_net(kind)
    assert ps.expected_planar_count(net, 128) == PAPER_COUNTS[kind]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("r", [1, 2, 3, 5, 16])
def test_constructed_counts_match_formula(kind, r, bench):
    mesh = bench.mesh(kind, r)
    net = mesh.net
    assert mesh.planar_count == ps.expected_planar_count(net, r)
    assert len(mesh.planar_vertices) == mesh.planar_count
    # dofOf surjective onto 0..dof_count-1
    assert set(np.unique(mesh.dof_of)) == set(range(mesh.dof_count))
    assert mesh.dof_count < mesh.planar_count
    assert mesh.dof_count == DOF_COEFF[kind] * r * r + 2


def test_tetra_r1_shape(bench):
    mesh = bench.mesh(PolyhedronKind.TETRAHEDRON, 1)
    assert mesh.planar_count == 6
    assert len(mesh.elements) == 4


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("r", [2, 8])
def test_element_areas(kind, r, bench):
    mesh = bench.mesh(kind, r)
    areas = mesh.element_areas
    assert np.all(areas > 0)
    want = 0.5 / r ** 2 if kind is PolyhedronKind.CUBE else SQRT3 / 4 / r ** 2
    assert np.allclose(areas, want, rtol=1e-12)
    assert abs(areas.sum() - mesh.net.area) < 1e-12 * mesh.net.area


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("r", [1, 2, 3])
def test_closed_surface_every_edge_in_two_elements(kind, r, bench):
    mesh = bench.mesh(kind, r)
    count = {}
    for tri in mesh.dof_of[mesh.elements]:
        for i in range(3):
            a, b = int(tri[i]), int(tri[(i + 1) % 3])
            key = (min(a, b), max(a, b))
            count[key] = count.get(key, 0) + 1
    assert set(count.values()) == {2}


@pytest.mark.parametrize("kind", KINDS)
def test_refinement_nesting(kind, bench):
    coarse = bench.mesh(kind, 4)
    fine = bench.mesh(kind, 8)
    fine_set = {tuple(p) for p in fine.planar_lattice}
    for p in coarse.planar_lattice:
        assert (2 * p[0], 2 * p[1]) in fine_set


@pytest.mark.parametrize("kind", KINDS)
def test_dof_count_union_find_oracle(kind, bench):
    # independent union-find driven by glue_map over float coordinates
    r = 4
    mesh = bench.mesh(kind, r)
    net = mesh.net

    def keyof(p):
        return (round(p[0] * 1e9), round(p[1] * 1e9))

    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for p in mesh.planar_vertices:
        find(keyof(p))
    for g in net.identifications:
        for i in range(r + 1):
            s = i / r
            pa = ps.edge_point(net, g.face_a, g.edge_a, s)
            fb, eb, t = ps.glue_map(net, g.face_a, g.edge_a, s)
            pb = ps.edge_point(net, fb, eb, t)
            union(keyof(pa), keyof(pb))
    classes = {find(k) for k in list(parent)}
    assert len(classes) == mesh.dof_count
    # the partition itself: two planar vertices share a DOF exactly when the
    # oracle puts them in one class
    class_of_dof = {}
    dof_of_class = {}
    for p, dof in zip(mesh.planar_vertices, mesh.dof_of.tolist()):
        cls = find(keyof(p))
        assert class_of_dof.setdefault(dof, cls) == cls
        assert dof_of_class.setdefault(cls, dof) == dof
    # DOF ids are numbered in order of first occurrence
    _, first = np.unique(mesh.dof_of, return_index=True)
    assert np.all(np.diff(first) > 0)


def _elements_oracle(mesh):
    """Elements face by face and row by row, as locate's arithmetic expects.

    Returns (elements, face element starts).  Each face's grid points are
    listed row by row in integer coordinates and looked up in
    planar_lattice.
    """
    r = mesh.resolution
    index = {tuple(p): n for n, p in enumerate(mesh.planar_lattice.tolist())}
    elements, starts = [], []
    for f in mesh.net.faces:
        starts.append(len(elements))
        if mesh.net.kind is PolyhedronKind.CUBE:
            a, b = f.corners[0]
            ids = [[index[(a * r + i, b * r + j)] for j in range(r + 1)]
                   for i in range(r + 1)]
            for i in range(r):
                for j in range(r):
                    # split along the diagonal through the cell that points
                    # toward the face's centre (r/2, r/2)
                    v00, v10 = ids[i][j], ids[i + 1][j]
                    v11, v01 = ids[i + 1][j + 1], ids[i][j + 1]
                    if (2 * i < r) == (2 * j < r):
                        elements += [(v00, v10, v11), (v00, v11, v01)]
                    else:
                        elements += [(v00, v10, v01), (v10, v11, v01)]
            continue
        (a0, a1), (b0, b1), (c0, c1) = f.corners
        ids = [[index[(a0 * (r - i - j) + b0 * i + c0 * j,
                       a1 * (r - i - j) + b1 * i + c1 * j)]
                for j in range(r + 1 - i)] for i in range(r + 1)]
        for i in range(r):
            for j in range(r - i):
                elements.append((ids[i][j], ids[i + 1][j], ids[i][j + 1]))
                if j < r - 1 - i:
                    elements.append((ids[i + 1][j], ids[i + 1][j + 1],
                                     ids[i][j + 1]))
    return np.array(elements, dtype=np.int64), tuple(starts)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("r", [1, 2, 3, 7])
def test_element_order_oracle(kind, r, bench):
    mesh = bench.mesh(kind, r)
    elements, starts = _elements_oracle(mesh)
    assert np.array_equal(mesh.elements, elements)
    assert mesh.elements.dtype == np.int64
    # locate takes face fi's first element to be fi * (elements per face)
    per_face = len(elements) // len(mesh.net.faces)
    assert starts == tuple(range(0, len(elements), per_face))
    for start in starts:
        centroid = mesh.planar_vertices[elements[start]].mean(axis=0)
        assert ps.locate(mesh, centroid)[0] == start


def test_locate_centroid(bench):
    mesh = bench.mesh(PolyhedronKind.OCTAHEDRON, 4)
    for eidx in (0, 7, len(mesh.elements) - 1):
        c = mesh.planar_vertices[mesh.elements[eidx]].mean(axis=0)
        found, bary = ps.locate(mesh, c)
        assert found == eidx
        assert np.allclose(bary, 1 / 3, atol=1e-12)


def test_locate_vertex(bench):
    mesh = bench.mesh(PolyhedronKind.TETRAHEDRON, 3)
    p = mesh.planar_vertices[7]
    eidx, bary = ps.locate(mesh, p)
    assert bary.max() > 1 - 1e-9
    tri = mesh.elements[eidx]
    assert 7 in tri or np.allclose(mesh.planar_vertices[tri[np.argmax(bary)]], p)


@pytest.mark.parametrize("kind", KINDS)
def test_locate_contracts(kind, bench):
    mesh = bench.mesh(kind, 5)
    rng = np.random.default_rng(2)
    # random points inside random elements
    for _ in range(60):
        eidx = rng.integers(len(mesh.elements))
        w = rng.dirichlet(np.ones(3))
        p = w @ mesh.planar_vertices[mesh.elements[eidx]]
        found, bary = ps.locate(mesh, p)
        assert bary.min() >= 0 and abs(bary.sum() - 1) < 1e-12
        rec = bary @ mesh.planar_vertices[mesh.elements[found]]
        assert np.linalg.norm(rec - p) < 1e-9


def test_locate_edge_point_consistent_interpolation(bench):
    mesh = bench.mesh(PolyhedronKind.CUBE, 4)
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(mesh.dof_count)
    # interior edge shared by elements 0 and 1 (the cell diagonal)
    tri0, tri1 = mesh.elements[0], mesh.elements[1]
    shared = [v for v in tri0 if v in tri1]
    assert len(shared) == 2
    a, b = mesh.planar_vertices[shared[0]], mesh.planar_vertices[shared[1]]
    p = 0.37 * a + 0.63 * b
    eidx, bary = ps.locate(mesh, p)
    assert np.isclose(bary.min(), 0.0, atol=1e-9)
    v1 = ps.interpolate(mesh, vals, p)
    # direct interpolation along the shared edge
    da, db = mesh.dof_of[shared[0]], mesh.dof_of[shared[1]]
    v2 = 0.37 * vals[da] + 0.63 * vals[db]
    assert abs(v1 - v2) < 1e-9


def test_locate_out_of_domain(bench):
    mesh = bench.mesh(PolyhedronKind.TETRAHEDRON, 2)
    with pytest.raises(ps.OutOfDomainError):
        ps.locate(mesh, (-3.0, 0.5))
    with pytest.raises(ps.OutOfDomainError):
        ps.locate(mesh, (0.0, -0.5))


# a symmetry type each kind admits, for an eigenfunction on its net
PLAIN_TYPE = {
    PolyhedronKind.TETRAHEDRON: ps.SymmetryType.ONE_PLUS,
    PolyhedronKind.OCTAHEDRON: ps.SymmetryType.PP,
    PolyhedronKind.ICOSAHEDRON: ps.SymmetryType.ONE_PLUS,
    PolyhedronKind.CUBE: ps.SymmetryType.PP,
}


# (0.3, 0) lies on face 0's bottom edge on every kind; on the triangles a
# point 9e-10 below it is 1.04e-9 below in lattice coordinates
@pytest.mark.parametrize("kind, r, dy",
                         [(kind, 256, -5e-10) for kind in KINDS]
                         + [(PolyhedronKind.CUBE, r, -9e-10)
                            for r in (128, 256)])
def test_points_within_1e9_of_the_net_are_located(kind, r, dy):
    mesh = ps.build_mesh(ps.build_net(kind), r)
    f = ps.build_trig_eigenfunction(kind, PLAIN_TYPE[kind], (2, 0))
    vals = np.empty(mesh.dof_count)
    vals[mesh.dof_of] = ps.evaluate(f, mesh.planar_vertices,
                                    check_domain=False)
    _, bary = ps.locate(mesh, (0.3, dy))
    assert bary.min() >= 0 and abs(bary.sum() - 1) < 1e-12
    on_edge = ps.interpolate(mesh, vals, (0.3, 0.0))
    assert abs(ps.interpolate(mesh, vals, (0.3, dy)) - on_edge) < 1e-6
    for call in (lambda p: ps.locate(mesh, p),
                 lambda p: ps.interpolate(mesh, vals, p)):
        with pytest.raises(ps.OutOfDomainError):
            call((0.3, -2e-9))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("p", [(math.nan, 0.1), (0.1, math.nan),
                               (math.inf, 0.1), (0.1, -math.inf)],
                         ids=["nan_x", "nan_y", "inf_x", "minus_inf_y"])
def test_non_finite_points_are_out_of_domain(kind, p, bench):
    mesh = bench.mesh(kind, 2)
    f = ps.build_trig_eigenfunction(kind, PLAIN_TYPE[kind], (2, 0))
    with pytest.raises(ps.OutOfDomainError):
        ps.locate(mesh, p)
    with pytest.raises(ps.OutOfDomainError):
        ps.interpolate(mesh, np.zeros(mesh.dof_count), p)
    with pytest.raises(ps.OutOfDomainError):
        ps.evaluate(f, p)
    with pytest.raises(ps.OutOfDomainError):
        ps.evaluate(f, [(0.1, 0.1), p])


def test_build_mesh_rejects_bad_resolution():
    net = ps.build_net(PolyhedronKind.CUBE)
    for r in (0, -1, 2.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="resolution"):
            ps.build_mesh(net, r)
    want = ps.build_mesh(net, 2)
    for r in (2.0, np.int64(2)):
        mesh = ps.build_mesh(net, r)
        assert type(mesh.resolution) is int and mesh.resolution == 2
        for name in ("planar_vertices", "planar_lattice", "elements",
                     "dof_of"):
            assert np.array_equal(getattr(mesh, name), getattr(want, name))
        assert mesh.dof_count == want.dof_count
