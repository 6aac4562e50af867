"""Regular refinement meshes of a net and the identified degree-of-freedom map.

A mesh at resolution r subdivides every unit edge into r intervals.  Planar
grid points are generated for all faces at once in exact integer coordinates
(the face corner coordinates scaled by r), deduplicated globally through one
int64 key per point, and then boundary grid points related by an edge glue
are merged into shared degrees of freedom, one per connected component of the
glue graph.  Every face has the same local grid, so its elements come from one
element template per resolution, indexed by the face's planar vertex ids.  The
result is a triangulation of the closed surface with no boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .errors import OutOfDomainError
from .net import SQRT3, PolyhedronKind, PolyhedronNet, build_net

_LOCATE_TOL = 1e-9


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


def _element_template(r: int, is_cube: bool) -> np.ndarray:
    """One face's elements as local grid ids, in the order locate relies on.

    Local ids number the face's grid points (i, j) row by row, as build_mesh
    lists them.  Square cells come in row-major order, each split along the
    planar lower-left -> upper-right diagonal into (00, 10, 11) then
    (00, 11, 01).  Row i of triangle cells holds 2(r - i) - 1 elements,
    alternating up and down.
    """
    if is_cube:
        ids = np.arange((r + 1) ** 2).reshape(r + 1, r + 1)
        v00, v10 = ids[:-1, :-1].ravel(), ids[1:, :-1].ravel()
        v11, v01 = ids[1:, 1:].ravel(), ids[:-1, 1:].ravel()
        lower = np.column_stack([v00, v10, v11])
        upper = np.column_stack([v00, v11, v01])
        return np.stack([lower, upper], axis=1).reshape(-1, 3)
    i, j = np.nonzero(np.add.outer(np.arange(r), np.arange(r)) < r)
    here = i * (r + 1) - i * (i - 1) // 2 + j          # point (i, j)
    above = here + r + 1 - i                           # point (i + 1, j)
    up = np.column_stack([here, above, here + 1])
    down = np.column_stack([above, above + 1, here + 1])
    has_down = np.column_stack([np.ones_like(i, dtype=bool), i + j < r - 1])
    return np.stack([up, down], axis=1)[has_down]


def build_mesh(net_or_kind, r: int) -> SurfaceMesh:
    """Refine a net at resolution r and identify glued boundary grid points.

    Parameters
    ----------
    net_or_kind : PolyhedronNet | PolyhedronKind
        Net to refine (a kind is accepted for convenience).
    r : int
        Subintervals per unit edge, r >= 1.
    """
    net = build_net(net_or_kind) if isinstance(net_or_kind, PolyhedronKind) \
        else net_or_kind
    if r < 1:
        raise ValueError(f"resolution must be >= 1, got {r}")
    is_cube = net.kind is PolyhedronKind.CUBE

    # integer grid points A*(r-i-j) + B*i + C*j of every face, shape (faces,
    # points per face, 2): i + j <= r on a triangle ABC; on a square, whose
    # B and C are corners 1 and 3, every 0 <= i, j <= r, i.e. A*r + (i, j)
    steps = np.arange(r + 1)
    i, j = np.nonzero(np.add.outer(steps, steps) <= (2 * r if is_cube else r))
    corners = np.array([f.corners for f in net.faces], dtype=np.int64)
    corners = corners[:, [0, 1, 3] if is_cube else [0, 1, 2]]
    grid = np.column_stack([r - i - j, i, j]) @ corners

    # one int64 key per point, ordered like its (s, t) row
    off = int(grid.min())
    mul = int(grid.max()) - off + 1
    keys = (grid[..., 0] - off) * mul + (grid[..., 1] - off)
    sorted_keys, inverse = np.unique(keys.ravel(), return_inverse=True)
    lattice = np.column_stack(np.divmod(sorted_keys, mul)) + off
    planar_count = len(sorted_keys)

    template = _element_template(r, is_cube)
    face_offset = np.arange(0, inverse.size, grid.shape[1])[:, None, None]
    elements = inverse[face_offset + template].reshape(-1, 3)

    # planar coordinates
    if is_cube:
        xy = lattice.astype(np.float64) / r
    else:
        s = lattice[:, 0].astype(np.float64)
        t = lattice[:, 1].astype(np.float64)
        xy = np.column_stack([(s + 0.5 * t) / r, t * (SQRT3 / 2) / r])

    # glued boundary grid points share a DOF: connected components of the
    # glue graph, labelled in order of first occurrence
    ends_a, ends_b = [], []
    for g in net.identifications:
        (pa0, pa1) = net.faces[g.face_a].edge_corners(g.edge_a)
        (pb0, pb1) = net.faces[g.face_b].edge_corners(g.edge_b)
        if g.orientation == "reversed":
            pb0, pb1 = pb1, pb0
        a0, a1, b0, b1 = (np.array(p, dtype=np.int64)
                          for p in (pa0, pa1, pb0, pb1))
        ends_a.append(a0 * r + (a1 - a0) * steps[:, None])
        ends_b.append(b0 * r + (b1 - b0) * steps[:, None])
    glued = np.concatenate(ends_a + ends_b)
    glue_keys = (glued[:, 0] - off) * mul + (glued[:, 1] - off)
    ids = np.minimum(np.searchsorted(sorted_keys, glue_keys), planar_count - 1)
    assert np.array_equal(sorted_keys[ids], glue_keys), \
        "glue point is not a grid point"
    ids = ids.reshape(2, -1)
    graph = coo_matrix((np.ones(ids.shape[1]), (ids[0], ids[1])),
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


def _face_containing(net: PolyhedronNet, x: float, y: float, tol: float):
    """Face index containing (x, y), or None."""
    if net.kind is PolyhedronKind.CUBE:
        cand = []
        for fa in (math.floor(x), math.floor(x - tol),
                   math.floor(x + tol)):
            for fb in (math.floor(y), math.floor(y - tol),
                       math.floor(y + tol)):
                cand.append((fa, fb))
        for cell in dict.fromkeys(cand):
            fi = net._cell_face.get(cell)
            if fi is None:
                continue
            a, b = cell
            if a - tol <= x <= a + 1 + tol and b - tol <= y <= b + 1 + tol:
                return fi
        return None
    s = x - y / SQRT3
    t = 2.0 * y / SQRT3
    for da in (0, -1, 1):
        for db in (0, -1, 1):
            a = math.floor(s) + da
            b = math.floor(t) + db
            sig, tau = s - a, t - b
            for o in (0, 1):
                cell = (o, a, b)
                fi = net._cell_face.get(cell)
                if fi is None:
                    continue
                if o == 0:
                    inside = (sig >= -tol and tau >= -tol
                              and sig + tau <= 1 + tol)
                else:
                    inside = (sig <= 1 + tol and tau <= 1 + tol
                              and sig + tau >= 1 - tol)
                if inside:
                    return fi
    return None


def locate(mesh: SurfaceMesh, p) -> tuple[int, np.ndarray]:
    """Find the element containing a planar point and its barycentric coords.

    Returns (element index, barycentric coordinates w.r.t. the element's three
    planar vertices).  Raises OutOfDomainError if p lies outside the net
    beyond the 1e-9 tolerance.
    """
    x, y = float(p[0]), float(p[1])
    net = mesh.net
    r = mesh.resolution
    fi = _face_containing(net, x, y, _LOCATE_TOL)
    if fi is None:
        raise OutOfDomainError(f"point ({x}, {y}) lies outside the net")
    f = net.faces[fi]
    # every face holds the same number of elements, in face order
    start = fi * (len(mesh.elements) // len(net.faces))
    if net.kind is PolyhedronKind.CUBE:
        a, b = f.cell
        u = min(max((x - a) * r, 0.0), float(r))
        v = min(max((y - b) * r, 0.0), float(r))
        i = min(math.floor(u), r - 1)
        j = min(math.floor(v), r - 1)
        fu, fv = u - i, v - j
        cell_idx = i * r + j
        eidx = start + 2 * cell_idx + (0 if fv <= fu else 1)
    else:
        # affine coordinates within the face: p = A + u*(B-A) + v*(C-A)
        (ax, ay), (bx, by), (cx, cy) = f.vertices
        det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        u = ((x - ax) * (cy - ay) - (y - ay) * (cx - ax)) / det
        v = ((bx - ax) * (y - ay) - (by - ay) * (x - ax)) / det
        u = min(max(u * r, 0.0), float(r))
        v = min(max(v * r, 0.0), float(r))
        i = min(math.floor(u), r - 1)
        j = min(math.floor(v), r - 1)
        if i + j > r - 1:
            over = i + j - (r - 1)
            if u - i >= v - j:
                i -= over
            else:
                j -= over
        fu, fv = u - i, v - j
        if fu + fv > 1.0 and i + j < r - 1:
            down = 1
        else:
            down = 0
        # element offset within the face: row i holds 2*(r-i)-1 elements
        row_off = 2 * r * i - i * i
        eidx = start + row_off + 2 * j + down
    (x0, y0), (x1, y1), (x2, y2) = \
        mesh.planar_vertices[mesh.elements[eidx]].tolist()
    det = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    l1 = ((x - x0) * (y2 - y0) - (x2 - x0) * (y - y0)) / det
    l2 = ((x1 - x0) * (y - y0) - (y1 - y0) * (x - x0)) / det
    bary = np.array([1.0 - (l1 + l2), l1, l2])
    if bary.min() < -1e-7:
        raise OutOfDomainError(
            f"point ({x}, {y}) is outside element {eidx} "
            f"(barycentric {bary})")
    bary = np.clip(bary, 0.0, None)
    bary /= bary.sum()
    return int(eidx), bary


def interpolate(mesh: SurfaceMesh, values_by_dof: np.ndarray, p) -> float:
    """P1-interpolate a DOF-indexed field at a planar point."""
    eidx, bary = locate(mesh, p)
    dofs = mesh.dof_of[mesh.elements[eidx]]
    return float(np.dot(bary, values_by_dof[dofs]))
