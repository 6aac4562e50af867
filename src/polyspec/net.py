"""Polyhedral surfaces as planar nets of unit faces with edge identifications.

Each surface is developed into the plane as a chain of unit faces (equilateral
triangles on the triangular tiling, or axis-aligned unit squares), consecutive
faces sharing an edge.  Boundary edges of the chain are glued in pairs; the
pairing is recovered from the combinatorial vertex labels carried by each face
corner, so the quotient is exactly the closed polyhedral surface.  Every face
is counterclockwise, so the nets are oriented and every glue joins its two
edges in opposite directions: s on one edge is 1 - s on the other.  Triangle
corners live on the lattice spanned by e1 = (1, 0) and e2 = (1/2, sqrt(3)/2);
square corners live on the integer lattice.

The face tables below fix one chain per polyhedron.  They are validated by the
package invariants (Euler characteristic 2, cone angles, glue involution) and,
downstream, by reproducing the known spectra.  Every other per-surface
constant follows from a table's face count F and its V vertex labels: the
area is F unit faces, the strip is F/2 (triangles) or F (squares) cells wide,
and by Gauss-Bonnet each of the V equal cone angles is 2 pi (V - 2) / V.

This module owns the lattice frame and point location: lattice_to_xy and
xy_to_lattice convert triangular-lattice coordinates to cartesian and back,
and face_containing finds the face under a planar point, with one 1e-9
tolerance, and the point's coordinates in that face's corner frame.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import InteriorEdgeError

SQRT3 = math.sqrt(3.0)
_LOCATE_TOL = 1e-9


class PolyhedronKind(enum.Enum):
    """The four surfaces handled by this package."""

    TETRAHEDRON = "tetrahedron"
    OCTAHEDRON = "octahedron"
    ICOSAHEDRON = "icosahedron"
    CUBE = "cube"

    @classmethod
    def parse(cls, name: str) -> "PolyhedronKind":
        key = name.strip().lower()
        for kind in cls:
            if kind.value == key:
                return kind
        raise ValueError(f"unknown polyhedron {name!r}; expected one of "
                         + ", ".join(k.value for k in cls))


# Chain tables: one (cell, corner labels) entry per face, in chain order.
# Triangle cells are (orientation, a, b): orientation 0 is the "up" cell with
# lattice corners (a,b),(a+1,b),(a,b+1); orientation 1 the "down" cell with
# corners (a+1,b),(a+1,b+1),(a,b+1).  Square cells are (a, b) with corners
# (a,b),(a+1,b),(a+1,b+1),(a,b+1).  Labels are the polyhedron vertices at the
# matching corners.  Face 0 is the base face used by the analytic formulas.
_NET_TABLES = {
    PolyhedronKind.TETRAHEDRON: (
        ((0, 0, 0), (0, 1, 2)),
        ((1, 0, 0), (1, 3, 2)),
        ((0, 1, 0), (1, 0, 3)),
        ((1, 1, 0), (0, 2, 3)),
    ),
    PolyhedronKind.OCTAHEDRON: (
        ((0, 0, 0), (0, 1, 2)),
        ((1, 0, 0), (1, 5, 2)),
        ((0, 1, 0), (1, 4, 5)),
        ((1, 1, 0), (4, 3, 5)),
        ((0, 1, 1), (5, 3, 2)),
        ((1, 1, 1), (3, 0, 2)),
        ((0, 2, 1), (3, 4, 0)),
        ((1, 2, 1), (4, 1, 0)),
    ),
    PolyhedronKind.ICOSAHEDRON: (
        ((0, 0, 0), (0, 1, 2)),
        ((1, 0, 0), (1, 6, 2)),
        ((0, 1, 0), (1, 10, 6)),
        ((1, 1, 0), (10, 11, 6)),
        ((0, 2, 0), (10, 9, 11)),
        ((1, 2, 0), (9, 8, 11)),
        ((0, 3, 0), (9, 4, 8)),
        ((1, 3, 0), (4, 3, 8)),
        ((0, 3, 1), (8, 3, 7)),
        ((1, 2, 1), (8, 7, 11)),
        ((0, 2, 2), (11, 7, 6)),
        ((1, 2, 2), (7, 2, 6)),
        ((0, 3, 2), (7, 3, 2)),
        ((1, 3, 2), (3, 0, 2)),
        ((0, 4, 2), (3, 4, 0)),
        ((1, 4, 2), (4, 5, 0)),
        ((0, 5, 2), (4, 9, 5)),
        ((1, 5, 2), (9, 10, 5)),
        ((0, 5, 3), (5, 10, 1)),
        ((1, 4, 3), (5, 1, 0)),
    ),
    PolyhedronKind.CUBE: (
        ((0, 0), (0, 1, 3, 2)),
        ((1, 0), (1, 5, 7, 3)),
        ((2, 0), (5, 4, 6, 7)),
        ((2, -1), (1, 0, 4, 5)),
        ((3, -1), (0, 2, 6, 4)),
        ((4, -1), (2, 3, 7, 6)),
    ),
}


def lattice_to_xy(s, t):
    """Map triangular-lattice coordinates (floats or arrays) to cartesian."""
    return (s + 0.5 * t, t * (SQRT3 / 2))


def xy_to_lattice(x, y):
    """Map cartesian coordinates (floats or arrays) to triangular-lattice."""
    return (x - y / SQRT3, 2.0 * y / SQRT3)


def _cell_corners(kind, cell):
    """Integer corners of a table cell: its unit square, or half of it."""
    a, b = cell[-2:]
    square = ((a, b), (a + 1, b), (a + 1, b + 1), (a, b + 1))
    if kind is PolyhedronKind.CUBE:
        return square
    return square[1:] if cell[0] else square[:2] + square[3:]


@dataclass(frozen=True)
class Face:
    """One unit face of the net.

    corners holds integer coordinates (triangular-lattice for triangle faces,
    plain integer grid for square faces); vertices are the planar positions;
    labels identify the polyhedron vertex sitting at each corner.
    """

    index: int
    cell: tuple
    corners: tuple
    vertices: tuple
    labels: tuple

    @property
    def n_sides(self) -> int:
        return len(self.corners)

    def edge_corners(self, edge: int):
        n = self.n_sides
        return self.corners[edge], self.corners[(edge + 1) % n]

    def edge_labels(self, edge: int):
        n = self.n_sides
        return self.labels[edge], self.labels[(edge + 1) % n]


@dataclass(frozen=True)
class EdgeGlue:
    """Identification of two boundary edges with opposite directions.

    Both faces are counterclockwise, so parameter s on edge A (in its stored
    corner order) is the point 1 - s on edge B.
    """

    face_a: int
    edge_a: int
    face_b: int
    edge_b: int


@dataclass(frozen=True)
class ConePoint:
    """A cone point of the surface: one polyhedron vertex.

    positions lists every planar copy appearing on the net, the first one its
    representative location.  Every cone angle is the net's cone_angle.
    """

    label: int
    positions: tuple


@dataclass(frozen=True)
class PolyhedronNet:
    """Planar development of a polyhedral surface with boundary gluing.

    Oriented: every face is counterclockwise, and every glue in
    identifications maps s on one edge to 1 - s on the other.  Immutable
    after construction; safe for unrestricted concurrent reads.
    """

    kind: PolyhedronKind
    faces: tuple
    identifications: tuple
    cone_points: tuple
    strip_width: int
    area: float
    cone_angle: float
    # derived lookups
    _partner: dict
    _interior: frozenset
    _cell_face: dict

    @property
    def formula_origin(self) -> tuple[float, float]:
        """Offset between net coordinates and the trigonometric formula frame."""
        if self.kind is PolyhedronKind.CUBE:
            return (0.5, 0.5)
        return (0.0, 0.0)

    def describe(self) -> str:
        """Plain-text dump: one line per face, glue, and cone point."""
        lines = []
        shape = "square" if self.kind is PolyhedronKind.CUBE else "triangle"
        for f in self.faces:
            pts = " ".join(f"({x:.6g},{y:.6g})" for x, y in f.vertices)
            lab = ",".join(str(k) for k in f.labels)
            lines.append(f"face {f.index}: {shape} corners {pts} vertices {lab}")
        for g in self.identifications:
            lines.append(
                f"glue: face {g.face_a} edge {g.edge_a} <-> "
                f"face {g.face_b} edge {g.edge_b}")
        for c in self.cone_points:
            lines.append(
                f"cone: vertex {c.label} at ({c.positions[0][0]:.6g},"
                f"{c.positions[0][1]:.6g}) angle {self.cone_angle:.12g}")
        return "\n".join(lines)


@lru_cache(maxsize=None)
def build_net(kind: PolyhedronKind) -> PolyhedronNet:
    """Build the net for one polyhedron.

    Deterministic: the same kind always yields the identical net.
    """
    table = _NET_TABLES[kind]
    is_cube = kind is PolyhedronKind.CUBE
    faces = []
    for idx, (cell, labels) in enumerate(table):
        corners = _cell_corners(kind, cell)
        if is_cube:
            verts = tuple((float(s), float(t)) for s, t in corners)
        else:
            verts = tuple(lattice_to_xy(s, t) for s, t in corners)
        faces.append(Face(index=idx, cell=cell, corners=corners,
                          vertices=verts, labels=labels))
    faces = tuple(faces)

    # group face-edge instances by their unordered label pair
    by_pair = {}
    for f in faces:
        for e in range(f.n_sides):
            la, lb = f.edge_labels(e)
            by_pair.setdefault(frozenset((la, lb)), []).append((f.index, e))
    glues = []
    partner = {}
    interior = set()
    for pair, inst in sorted(by_pair.items(), key=lambda kv: kv[1]):
        if len(inst) != 2:
            raise AssertionError(f"edge {set(pair)} appears {len(inst)} times")
        (fa, ea), (fb, eb) = inst
        if set(faces[fa].edge_corners(ea)) == set(faces[fb].edge_corners(eb)):
            interior.update(inst)
            continue
        glues.append(EdgeGlue(fa, ea, fb, eb))
        partner[fa, ea], partner[fb, eb] = (fb, eb), (fa, ea)

    # cone points: one per polyhedron vertex
    positions = {}
    for f in faces:
        for v, lab in zip(f.vertices, f.labels):
            positions.setdefault(lab, [])
            if v not in positions[lab]:
                positions[lab].append(v)
    # Gauss-Bonnet: the V equal cone deficits 2 pi - angle sum to 4 pi
    n_cones = len(positions)
    angle = 2 * math.pi * (n_cones - 2) / n_cones
    cones = tuple(ConePoint(label=lab, positions=tuple(pos))
                  for lab, pos in sorted(positions.items()))

    net = PolyhedronNet(
        kind=kind,
        faces=faces,
        identifications=tuple(glues),
        cone_points=cones,
        strip_width=len(faces) if is_cube else len(faces) // 2,
        area=len(faces) * (1.0 if is_cube else SQRT3 / 4),
        cone_angle=angle,
        _partner=partner,
        _interior=frozenset(interior),
        _cell_face={f.cell: f.index for f in faces},
    )
    return net


def face_containing(net: PolyhedronNet, x: float, y: float):
    """(face, u, v) of the face under (x, y) up to 1e-9, or None.

    (x, y) = A + u (B - A) + v (C - A) for A, B, C the face's corners 0, 1
    and the last, mesh.face_grid's frame; min(u, v, 1 - u - v) on triangles,
    or min(u, v, 1 - u, 1 - v) on squares, is >= -1e-9.  None also if the
    point is not finite.
    """
    if not (math.isfinite(x) and math.isfinite(y)):
        return None
    square = net.kind is PolyhedronKind.CUBE
    s, t = (x, y) if square else xy_to_lattice(x, y)
    for da in (0, -1, 1):
        for db in (0, -1, 1):
            a = math.floor(s) + da
            b = math.floor(t) + db
            sig, tau = s - a, t - b
            # a down cell's corners 0, 1, 2 are (a+1, b), (a+1, b+1), (a, b+1)
            frames = [((a, b), sig, tau)] if square else [
                ((0, a, b), sig, tau), ((1, a, b), sig + tau - 1, 1 - sig)]
            for cell, u, v in frames:
                far = min(1 - u, 1 - v) if square else 1 - u - v
                if min(u, v, far) >= -_LOCATE_TOL and cell in net._cell_face:
                    return net._cell_face[cell], u, v
    return None


def glue_map(net: PolyhedronNet, face: int, edge: int, s: float):
    """Map a boundary-edge point to its identified point.

    Parameters
    ----------
    face, edge : int
        Face index and local edge index (edge k runs from corner k to corner
        k+1 of the face).
    s : float
        Position along the edge in [0, 1].

    Returns
    -------
    (face, edge, 1 - s) of the identified point: the net is oriented, so
    every glue reverses its edges.  Applying the map twice returns the input.
    """
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"edge parameter s={s} outside [0, 1]")
    key = (face, edge)
    if key in net._interior:
        raise InteriorEdgeError(
            f"face {face} edge {edge} is an interior edge of the net")
    if key not in net._partner:
        raise ValueError(f"face {face} edge {edge} is not an edge of the net")
    return (*net._partner[key], 1.0 - s)


def edge_point(net: PolyhedronNet, face: int, edge: int, s: float):
    """Planar position of the point at parameter s along a face edge."""
    f = net.faces[face]
    (x0, y0), (x1, y1) = f.vertices[edge], f.vertices[(edge + 1) % f.n_sides]
    return (x0 + s * (x1 - x0), y0 + s * (y1 - y0))
