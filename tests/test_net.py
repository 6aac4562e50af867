import math

import numpy as np
import pytest

import polyspec as ps
from polyspec import PolyhedronKind
from polyspec.net import face_containing

from conftest import KINDS

SQRT3 = math.sqrt(3.0)

EXPECT = {
    PolyhedronKind.TETRAHEDRON: dict(faces=4, width=2, area=SQRT3,
                                     angle=math.pi, cones=4),
    PolyhedronKind.OCTAHEDRON: dict(faces=8, width=4, area=2 * SQRT3,
                                    angle=4 * math.pi / 3, cones=6),
    PolyhedronKind.ICOSAHEDRON: dict(faces=20, width=10, area=5 * SQRT3,
                                     angle=5 * math.pi / 3, cones=12),
    PolyhedronKind.CUBE: dict(faces=6, width=6, area=6.0,
                              angle=3 * math.pi / 2, cones=8),
}


@pytest.mark.parametrize("kind", KINDS)
def test_build_net_basic(kind):
    net = ps.build_net(kind)
    want = EXPECT[kind]
    assert len(net.faces) == want["faces"]
    assert net.strip_width == want["width"]
    # derived from the face table, bit-identical to the literal values
    assert net.area == want["area"]
    assert len(net.cone_points) == want["cones"]
    assert net.cone_angle == want["angle"]


@pytest.mark.parametrize("kind", KINDS)
def test_cone_deficit_sums_to_4pi(kind):
    net = ps.build_net(kind)
    deficit = len(net.cone_points) * (2 * math.pi - net.cone_angle)
    assert abs(deficit - 4 * math.pi) < 1e-10


@pytest.mark.parametrize("kind", KINDS)
def test_corner_angles_match_cone_angles(kind):
    # summing face corner angles per vertex label reproduces the cone angle
    net = ps.build_net(kind)
    total = {}
    for f in net.faces:
        v = np.array(f.vertices)
        n = len(v)
        for i in range(n):
            a = v[(i - 1) % n] - v[i]
            b = v[(i + 1) % n] - v[i]
            ang = math.acos(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
            total[f.labels[i]] = total.get(f.labels[i], 0.0) + ang
    for lab, ang in total.items():
        assert abs(ang - net.cone_angle) < 1e-9, (lab, ang)


@pytest.mark.parametrize("kind", KINDS)
def test_every_boundary_edge_in_exactly_one_glue(kind):
    net = ps.build_net(kind)
    glued = {}
    for gi, g in enumerate(net.identifications):
        for key in ((g.face_a, g.edge_a), (g.face_b, g.edge_b)):
            assert key not in glued
            glued[key] = gi
    # interior + glued edges partition all face edges
    n_sides = 4 if kind is PolyhedronKind.CUBE else 3
    all_edges = {(f.index, e) for f in net.faces for e in range(n_sides)}
    interior = set(net._interior)
    assert interior.isdisjoint(glued)
    assert interior | set(glued) == all_edges


@pytest.mark.parametrize("kind", KINDS)
def test_glue_map_is_an_involution(kind):
    net = ps.build_net(kind)
    for g in net.identifications:
        for s in (0.0, 0.25, 0.5, 1.0):
            f1, e1, s1 = ps.glue_map(net, g.face_a, g.edge_a, s)
            f2, e2, s2 = ps.glue_map(net, f1, e1, s1)
            assert (f2, e2) == (g.face_a, g.edge_a)
            assert abs(s2 - s) < 1e-15


@pytest.mark.parametrize("kind", KINDS)
def test_glue_preserves_arclength(kind):
    net = ps.build_net(kind)
    rng = np.random.default_rng(0)
    for g in net.identifications:
        s1, s2 = sorted(rng.uniform(0, 1, size=2))
        imgs = []
        for s in (s1, s2):
            fb, eb, t = ps.glue_map(net, g.face_a, g.edge_a, s)
            imgs.append(np.array(ps.edge_point(net, fb, eb, t)))
        assert abs(np.linalg.norm(imgs[1] - imgs[0]) - (s2 - s1)) < 1e-12


@pytest.mark.parametrize("kind", KINDS)
def test_glue_endpoints_land_on_cone_points(kind):
    net = ps.build_net(kind)
    cone_positions = {pos for c in net.cone_points for pos in c.positions}

    def near_cone(p):
        return any(abs(p[0] - q[0]) + abs(p[1] - q[1]) < 1e-12
                   for q in cone_positions)

    for g in net.identifications:
        for s in (0.0, 1.0):
            fb, eb, t = ps.glue_map(net, g.face_a, g.edge_a, s)
            assert near_cone(ps.edge_point(net, fb, eb, t))
            assert near_cone(ps.edge_point(net, g.face_a, g.edge_a, s))


@pytest.mark.parametrize("kind", KINDS)
def test_face_containing_finds_centroids_and_rejects_non_finite(kind):
    net = ps.build_net(kind)
    for f in net.faces:
        x, y = np.mean(f.vertices, axis=0)
        assert face_containing(net, x, y)[0] == f.index
    for x, y in [(math.nan, 0.1), (0.1, math.nan), (math.inf, 0.1),
                 (0.1, -math.inf)]:
        assert face_containing(net, x, y) is None


@pytest.mark.parametrize("kind", KINDS)
def test_face_containing_frame_reproduces_the_point(kind):
    net = ps.build_net(kind)
    rng = np.random.default_rng(7)
    for f in net.faces:
        for w in rng.dirichlet(np.ones(len(f.vertices)), size=50):
            p = w @ np.array(f.vertices)
            fi, u, v = face_containing(net, *p)
            verts = np.array(net.faces[fi].vertices)
            a, b, c = verts[0], verts[1], verts[-1]
            assert np.linalg.norm(a + u * (b - a) + v * (c - a) - p) < 1e-12


@pytest.mark.parametrize("kind", KINDS)
def test_nets_are_oriented_and_every_glue_reverses(kind):
    net = ps.build_net(kind)
    for f in net.faces:
        x, y = np.array(f.vertices).T
        area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
        assert area > 0, f.index
    lines = [ln for ln in net.describe().splitlines()
             if ln.startswith("glue:")]
    assert lines == [f"glue: face {g.face_a} edge {g.edge_a} <-> "
                     f"face {g.face_b} edge {g.edge_b}"
                     for g in net.identifications]
    for g in net.identifications:
        fa, fb = net.faces[g.face_a], net.faces[g.face_b]
        assert fa.edge_labels(g.edge_a) == fb.edge_labels(g.edge_b)[::-1]
        for a, b in (((g.face_a, g.edge_a), (g.face_b, g.edge_b)),
                     ((g.face_b, g.edge_b), (g.face_a, g.edge_a))):
            for s in (0.0, 0.3, 1.0):
                assert ps.glue_map(net, *a, s) == (*b, 1.0 - s)


def test_glue_map_rejects_bad_arguments():
    net = ps.build_net(PolyhedronKind.CUBE)
    g = net.identifications[0]
    with pytest.raises(ValueError, match="outside"):
        ps.glue_map(net, g.face_a, g.edge_a, 1.5)
    with pytest.raises(ValueError, match="not an edge of the net"):
        ps.glue_map(net, len(net.faces), 0, 0.5)


def test_interior_edge_raises():
    net = ps.build_net(PolyhedronKind.TETRAHEDRON)
    (face, edge) = next(iter(net._interior))
    with pytest.raises(ps.InteriorEdgeError):
        ps.glue_map(net, face, edge, 0.5)


@pytest.mark.parametrize("kind", KINDS)
def test_euler_characteristic_is_two(kind):
    mesh = ps.build_mesh(ps.build_net(kind), 1)
    dof_tris = mesh.dof_of[mesh.elements]
    edges = set()
    for tri in dof_tris:
        for i in range(3):
            a, b = int(tri[i]), int(tri[(i + 1) % 3])
            edges.add((min(a, b), max(a, b)))
    chi = mesh.dof_count - len(edges) + len(mesh.elements)
    assert chi == 2


def test_build_net_is_cached_and_deterministic():
    a = ps.build_net(PolyhedronKind.OCTAHEDRON)
    b = ps.build_net(PolyhedronKind.OCTAHEDRON)
    assert a is b
    assert [f.labels for f in a.faces] == [f.labels for f in b.faces]


def test_describe_lists_everything():
    net = ps.build_net(PolyhedronKind.CUBE)
    lines = net.describe().splitlines()
    assert sum(1 for ln in lines if ln.startswith("face ")) == 6
    assert sum(1 for ln in lines if ln.startswith("glue:")) == \
        len(net.identifications)
    assert sum(1 for ln in lines if ln.startswith("cone:")) == 8


def test_kind_parsing():
    assert PolyhedronKind.parse("Cube") is PolyhedronKind.CUBE
    with pytest.raises(ValueError):
        PolyhedronKind.parse("dodecahedron")
