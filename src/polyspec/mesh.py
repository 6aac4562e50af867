"""Regular refinement meshes of a net and the identified degree-of-freedom map.

A mesh at resolution r subdivides every unit edge into r intervals.  Planar
grid points are generated per face in exact integer coordinates (the face
corner coordinates scaled by r), deduplicated globally, and then boundary grid
points related by an edge glue are merged into shared degrees of freedom,
one per connected component of the glue graph.  The result is a
triangulation of the closed surface with no boundary.
"""

from __future__ import annotations

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
    _face_element_start: tuple

    @property
    def element_areas(self) -> np.ndarray:
        p = self.planar_vertices[self.elements]
        u = p[:, 1] - p[:, 0]
        v = p[:, 2] - p[:, 0]
        return 0.5 * (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])


def _tri_row_start(r: int):
    # local grid ids for barycentric (i, j), i + j <= r, are row_start[i] + j
    row_start = np.zeros(r + 2, dtype=np.int64)
    for i in range(r + 1):
        row_start[i + 1] = row_start[i] + (r + 1 - i)
    return row_start


def _tri_face_points(corners, r):
    # integer grid points A*(r-i-j) + B*i + C*j over i + j <= r, listed row
    # by row, so the point (i, j) has local grid id row_start[i] + j
    (a0, a1), (b0, b1), (c0, c1) = corners
    ii, jj = np.meshgrid(np.arange(r + 1), np.arange(r + 1), indexing="ij")
    mask = (ii + jj) <= r
    i = ii[mask]
    j = jj[mask]
    k = r - i - j
    s = a0 * k + b0 * i + c0 * j
    t = a1 * k + b1 * i + c1 * j
    return np.column_stack([s, t]).astype(np.int64)


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

    all_pts = []
    for f in net.faces:
        if is_cube:
            (a0, b0) = f.corners[0]
            ii, jj = np.meshgrid(np.arange(r + 1), np.arange(r + 1),
                                 indexing="ij")
            pts = np.column_stack([(a0 * r + ii).ravel(),
                                   (b0 * r + jj).ravel()]).astype(np.int64)
        else:
            pts = _tri_face_points(f.corners, r)
        all_pts.append(pts)
    stacked = np.concatenate(all_pts, axis=0)
    unique, inverse = np.unique(stacked, axis=0, return_inverse=True)
    planar_count = len(unique)

    # per-face local grid id -> planar vertex id
    face_vertex_ids = np.split(inverse,
                               np.cumsum([len(pts) for pts in all_pts])[:-1])

    # elements
    elements = []
    face_element_start = []
    nel = 0
    for f in net.faces:
        face_element_start.append(nel)
        ids = face_vertex_ids[f.index]
        if is_cube:
            ids = ids.reshape(r + 1, r + 1)
            v00 = ids[:-1, :-1].ravel()
            v10 = ids[1:, :-1].ravel()
            v11 = ids[1:, 1:].ravel()
            v01 = ids[:-1, 1:].ravel()
            # split along the planar lower-left -> upper-right diagonal
            lower = np.column_stack([v00, v10, v11])
            upper = np.column_stack([v00, v11, v01])
            tris = np.empty((2 * len(v00), 3), dtype=np.int64)
            tris[0::2] = lower
            tris[1::2] = upper
            elements.append(tris)
            nel += len(tris)
        else:
            row_start = _tri_row_start(r)
            tris = np.empty((r * r, 3), dtype=np.int64)
            pos = 0
            for i in range(r):
                j = np.arange(r - i)
                up = np.column_stack([ids[row_start[i] + j],
                                      ids[row_start[i + 1] + j],
                                      ids[row_start[i] + j + 1]])
                jd = np.arange(r - 1 - i)
                down = np.column_stack([ids[row_start[i + 1] + jd],
                                        ids[row_start[i + 1] + jd + 1],
                                        ids[row_start[i] + jd + 1]])
                row = np.empty((2 * (r - i) - 1, 3), dtype=np.int64)
                row[0::2] = up
                row[1::2] = down
                tris[pos:pos + len(row)] = row
                pos += len(row)
            elements.append(tris)
            nel += len(tris)
    elements = np.concatenate(elements, axis=0)

    # planar coordinates
    if is_cube:
        xy = unique.astype(np.float64) / r
    else:
        s = unique[:, 0].astype(np.float64)
        t = unique[:, 1].astype(np.float64)
        xy = np.column_stack([(s + 0.5 * t) / r, t * (SQRT3 / 2) / r])

    # glued boundary grid points share a DOF: connected components of the
    # glue graph, labelled in order of first occurrence
    key_off = int(unique.min()) - 1
    key_mul = int(unique.max()) - key_off + 1
    keys = (unique[:, 0] - key_off) * key_mul + (unique[:, 1] - key_off)
    order = np.argsort(keys)
    sorted_keys = keys[order]

    steps = np.arange(r + 1)[:, None]
    ends_a, ends_b = [], []
    for g in net.identifications:
        (pa0, pa1) = net.faces[g.face_a].edge_corners(g.edge_a)
        (pb0, pb1) = net.faces[g.face_b].edge_corners(g.edge_b)
        if g.orientation == "reversed":
            pb0, pb1 = pb1, pb0
        a0, a1, b0, b1 = (np.array(p, dtype=np.int64)
                          for p in (pa0, pa1, pb0, pb1))
        ends_a.append(a0 * r + (a1 - a0) * steps)
        ends_b.append(b0 * r + (b1 - b0) * steps)
    glued = np.concatenate(ends_a + ends_b)
    glue_keys = (glued[:, 0] - key_off) * key_mul + (glued[:, 1] - key_off)
    pos = np.minimum(np.searchsorted(sorted_keys, glue_keys), planar_count - 1)
    assert np.array_equal(sorted_keys[pos], glue_keys), \
        "glue point is not a grid point"
    ids = order[pos].reshape(2, -1)
    graph = coo_matrix((np.ones(ids.shape[1]), (ids[0], ids[1])),
                       shape=(planar_count, planar_count))
    dof_count, dof_of = connected_components(graph, directed=False)
    dof_of = dof_of.astype(np.int64)

    return SurfaceMesh(
        net=net,
        resolution=r,
        planar_vertices=xy,
        planar_lattice=unique,
        dof_of=dof_of,
        elements=elements,
        dof_count=dof_count,
        planar_count=planar_count,
        _face_element_start=tuple(face_element_start),
    )


def _face_containing(net: PolyhedronNet, x: float, y: float, tol: float):
    """Face index containing (x, y), or None."""
    if net.kind is PolyhedronKind.CUBE:
        cand = []
        for fa in (int(np.floor(x)), int(np.floor(x - tol)),
                   int(np.floor(x + tol))):
            for fb in (int(np.floor(y)), int(np.floor(y - tol)),
                       int(np.floor(y + tol))):
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
            a = int(np.floor(s)) + da
            b = int(np.floor(t)) + db
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
    start = mesh._face_element_start[fi]
    if net.kind is PolyhedronKind.CUBE:
        a, b = f.cell
        u = min(max((x - a) * r, 0.0), float(r))
        v = min(max((y - b) * r, 0.0), float(r))
        i = min(int(np.floor(u)), r - 1)
        j = min(int(np.floor(v)), r - 1)
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
        i = min(int(np.floor(u)), r - 1)
        j = min(int(np.floor(v)), r - 1)
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
    tri = mesh.elements[eidx]
    pts = mesh.planar_vertices[tri]
    t = np.array([x, y])
    mat = np.column_stack([pts[1] - pts[0], pts[2] - pts[0]])
    lam12 = np.linalg.solve(mat, t - pts[0])
    bary = np.array([1.0 - lam12.sum(), lam12[0], lam12[1]])
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
