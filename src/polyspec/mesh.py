"""Regular refinement meshes of a net and the identified degree-of-freedom map.

A mesh at resolution r subdivides every unit edge into r intervals.  Planar
grid points are generated for all faces at once in exact integer coordinates
(the face corner coordinates scaled by r), deduplicated globally through one
int64 key per point, and then boundary grid points related by an edge glue
are merged into shared degrees of freedom, one per connected component of the
glue graph.  Every face has the same local grid, so its elements come from one
element template per resolution, indexed by the face's planar vertex ids.  The
result is a triangulation of the closed surface with no boundary.

This module owns the face grid and its point index: face_grid lists each
face's grid points in the frame of its corners 0, 1 and the last, the frame
net.face_containing locates a point in, so locate reads a point's element
and barycentrics off that one location; grid_index finds points in
planar_lattice; symmetry's DOF permutations use face_grid and grid_index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .errors import OutOfDomainError
from .net import (PolyhedronKind, PolyhedronNet, face_containing,
                  lattice_to_xy)

# sort key s * 2**32 + t: orders integer points by (s, t), distinct while
# |s| and |t| stay below 2**31
_KEY = np.array([1 << 32, 1], dtype=np.int64)


def expected_planar_count(net: PolyhedronNet, r: int) -> int:
    """Grid-point count of the unidentified net: (width*r + 1)(r + 1)."""
    return (net.strip_width * r + 1) * (r + 1)


@dataclass(frozen=True)
class SurfaceMesh:
    """Triangulated closed surface obtained by refining a net.

    planar_vertices holds every distinct grid point of the planar net;
    dof_of maps each planar vertex to its global degree of freedom (boundary
    points identified by the glues share one DOF).  Immutable after
    construction; safe for concurrent reads.
    """

    net: PolyhedronNet
    resolution: int
    planar_vertices: np.ndarray      # (P, 2) float64
    planar_lattice: np.ndarray       # (P, 2) int64, corner coords scaled by r
    dof_of: np.ndarray               # (P,) int64
    elements: np.ndarray             # (E, 3) int64, planar vertex indices
    dof_count: int
    planar_count: int

    @property
    def element_areas(self) -> np.ndarray:
        p = self.planar_vertices[self.elements]
        u = p[:, 1] - p[:, 0]
        v = p[:, 2] - p[:, 0]
        return 0.5 * (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])


def face_grid(corners, r: int) -> np.ndarray:
    """Integer grid points of faces at resolution r, shape (faces, points, 2).

    corners is a (faces, sides, 2) array of integer face corners.  With A, B
    and C a face's corners 0, 1 and the last, its points are A*(r-i-j) + B*i
    + C*j in row order (by i, then j): i + j <= r on a triangle; on a square
    every 0 <= i, j <= r, i.e. A*r + (i, j).
    """
    corners = np.asarray(corners, dtype=np.int64)
    steps = np.arange(r + 1)
    bound = 2 * r if corners.shape[1] == 4 else r
    i, j = np.nonzero(np.add.outer(steps, steps) <= bound)
    return np.column_stack([r - i - j, i, j]) @ corners[:, [0, 1, -1]]


def grid_index(lattice: np.ndarray, points) -> np.ndarray:
    """Row of each integer point in lattice, shaped like points[..., 0].

    lattice holds distinct points sorted by (s, t), as a mesh's
    planar_lattice does; every point must be one of its rows.
    """
    keys = lattice @ _KEY
    ids = np.minimum(np.searchsorted(keys, points @ _KEY), len(keys) - 1)
    assert np.array_equal(lattice[ids], points), "not a grid point"
    return ids


def _element_template(r: int, is_cube: bool) -> np.ndarray:
    """One face's elements as local grid ids, in the order locate relies on.

    Local ids number the face's grid points (i, j) row by row, as face_grid
    lists them.  Square cells come in row-major order, each split along the
    diagonal that points toward the face's centre (the quadrant rule): cell
    (i, j) is split along 00 -> 11 into (00, 10, 11) then (00, 11, 01) when
    i < r/2 and j < r/2 agree, and otherwise along 10 -> 01 into
    (00, 10, 01) then (10, 11, 01).  For even r the split is invariant under
    the square's eight symmetries, so the cube mesh keeps all 48 of the
    cube's; for odd r the middle row and column of cells fall on one side.
    Row i of triangle cells holds 2(r - i) - 1 elements, alternating up and
    down.
    """
    if is_cube:
        ids = np.arange((r + 1) ** 2).reshape(r + 1, r + 1)
        v00, v10, v11, v01 = (ids[:-1, :-1], ids[1:, :-1], ids[1:, 1:],
                              ids[:-1, 1:])
        low = np.arange(r) < r / 2
        rising = np.equal.outer(low, low)[..., None]
        first = np.where(rising, np.stack([v00, v10, v11], axis=-1),
                         np.stack([v00, v10, v01], axis=-1))
        second = np.where(rising, np.stack([v00, v11, v01], axis=-1),
                          np.stack([v10, v11, v01], axis=-1))
        return np.stack([first, second], axis=2).reshape(-1, 3)
    i, j = np.nonzero(np.add.outer(np.arange(r), np.arange(r)) < r)
    here = i * (r + 1) - i * (i - 1) // 2 + j          # point (i, j)
    above = here + r + 1 - i                           # point (i + 1, j)
    up = np.column_stack([here, above, here + 1])
    down = np.column_stack([above, above + 1, here + 1])
    has_down = np.column_stack([np.ones_like(i, dtype=bool), i + j < r - 1])
    return np.stack([up, down], axis=1)[has_down]


def build_mesh(net: PolyhedronNet, r: int) -> SurfaceMesh:
    """Refine a net at resolution r and identify glued boundary grid points.

    Parameters
    ----------
    net : PolyhedronNet
        Net to refine.
    r : int
        Subintervals per unit edge, an integral value >= 1.
    """
    if not (r >= 1 and float(r).is_integer()):
        raise ValueError(f"resolution must be an integer >= 1, got {r}")
    r = int(r)
    is_cube = net.kind is PolyhedronKind.CUBE

    grid = face_grid([f.corners for f in net.faces], r)
    _, first, inverse = np.unique((grid @ _KEY).ravel(), return_index=True,
                                  return_inverse=True)
    lattice = grid.reshape(-1, 2)[first]
    planar_count = len(lattice)

    template = _element_template(r, is_cube)
    face_offset = np.arange(0, inverse.size, grid.shape[1])[:, None, None]
    elements = inverse[face_offset + template].reshape(-1, 3)

    # planar coordinates
    if is_cube:
        xy = lattice.astype(np.float64) / r
    else:
        xy = np.column_stack(lattice_to_xy(lattice[:, 0], lattice[:, 1])) / r

    # glued boundary grid points share a DOF: connected components of the
    # glue graph, labelled in order of first occurrence; edge b runs backwards
    edges = []
    for g in net.identifications:
        edges += [net.faces[g.face_a].edge_corners(g.edge_a),
                  net.faces[g.face_b].edge_corners(g.edge_b)[::-1]]
    p0, p1 = np.array(edges, dtype=np.int64)[:, :, None].swapaxes(0, 1)
    ids = grid_index(lattice, p0 * r + (p1 - p0) * np.arange(r + 1)[:, None])
    graph = coo_matrix((np.ones(ids.size // 2),
                        (ids[0::2].ravel(), ids[1::2].ravel())),
                       shape=(planar_count, planar_count))
    dof_count, dof_of = connected_components(graph, directed=False)
    dof_of = dof_of.astype(np.int64)

    return SurfaceMesh(
        net=net,
        resolution=r,
        planar_vertices=xy,
        planar_lattice=lattice,
        dof_of=dof_of,
        elements=elements,
        dof_count=dof_count,
        planar_count=planar_count,
    )


def locate(mesh: SurfaceMesh, p) -> tuple[int, np.ndarray]:
    """Find the element containing a planar point and its barycentric coords.

    Returns (element index, barycentric coordinates w.r.t. the element's three
    planar vertices), both read off face_containing's face frame scaled by r:
    the cell (i, j) and the point's offset (fu, fv) in it.  A cube cell's
    element is picked by the side of the cell diagonal that
    _element_template's quadrant rule chose.  Raises OutOfDomainError if p
    lies outside the net beyond face_containing's 1e-9 or is not finite.
    """
    x, y = float(p[0]), float(p[1])
    net = mesh.net
    r = mesh.resolution
    found = face_containing(net, x, y)
    if found is None:
        raise OutOfDomainError(f"point ({x}, {y}) lies outside the net")
    fi, u, v = found
    # grid coordinates in face_grid's frame, clamped onto the face
    u = min(max(u * r, 0.0), float(r))
    v = min(max(v * r, 0.0), float(r))
    cube = net.kind is PolyhedronKind.CUBE
    i = min(math.floor(u), r - 1)
    j = min(math.floor(v), r - 1 if cube else r - 1 - i)
    fu, fv = u - i, v - j
    # rising cube cells are split along 00 -> 11 by the quadrant rule; the
    # last cell of a triangle row has no down element
    rising = cube and (i < r / 2) == (j < r / 2)
    second = fv > fu if rising else fu + fv > 1.0 and (cube or i + j < r - 1)
    # every face holds the same number of elements, in face order; a cube
    # row holds 2r, triangle row i holds 2(r - i) - 1
    start = fi * (len(mesh.elements) // len(net.faces))
    row = 2 * r * i if cube else 2 * r * i - i * i
    eidx = start + row + 2 * j + second
    if rising:
        bary = (1 - fv, fu, fv - fu) if second else (1 - fu, fu - fv, fv)
    elif second:
        bary = (1 - fv, fu + fv - 1, 1 - fu)
    else:
        bary = (1 - fu - fv, fu, fv)
    bary = np.clip(bary, 0.0, None)
    bary /= bary.sum()
    return int(eidx), bary


def interpolate(mesh: SurfaceMesh, values_by_dof: np.ndarray, p) -> float:
    """P1-interpolate a DOF-indexed field at a planar point."""
    eidx, bary = locate(mesh, p)
    dofs = mesh.dof_of[mesh.elements[eidx]]
    return float(np.dot(bary, values_by_dof[dofs]))
