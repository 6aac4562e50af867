"""P1 stiffness and mass matrix assembly on a surface mesh.

Element integrals are evaluated in closed form (the integrands are polynomial,
so no quadrature is involved).  Assembly maps the element matrices through the
mesh's DOF map.  Each matrix's upper triangle U is one COO -> CSR conversion
of the element terms of every unordered off-diagonal pair at (lo, hi) of its
two DOFs, and scipy's conversion sums the duplicates; its diagonal D is a
bincount sum of the element terms in element order.  The matrix is
U + U^T + D, so both triangles hold the very same sums and the result is
exactly symmetric.  The closed surface has no boundary conditions, so the
stiffness matrix has the constants in its kernel.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sparse

from .errors import DegenerateElementError
from .mesh import SurfaceMesh


def element_matrices(vertices) -> tuple[np.ndarray, np.ndarray]:
    """Exact P1 element matrices of one triangle.

    Parameters
    ----------
    vertices : array-like of shape (3, 2)
        Planar corner coordinates.

    Returns
    -------
    (stiffness, mass) : two (3, 3) arrays.  The stiffness matrix is the
    cotangent-weighted Laplacian element matrix (symmetric PSD, zero row
    sums); the mass matrix is (area/12) * (2 on the diagonal, 1 off).
    """
    v = np.asarray(vertices, dtype=np.float64)
    if v.shape != (3, 2):
        raise ValueError(f"expected three planar points, got shape {v.shape}")
    # edge opposite vertex i, directed so the three edges sum to zero
    e = np.array([v[2] - v[1], v[0] - v[2], v[1] - v[0]])
    area = 0.5 * (e[2, 0] * (-e[1, 1]) - e[2, 1] * (-e[1, 0]))
    if abs(area) < 1e-14:
        raise DegenerateElementError(f"triangle area {area} below 1e-14")
    if area < 0:
        raise DegenerateElementError("triangle has negative orientation")
    stiffness = (e @ e.T) / (4.0 * area)
    mass = (area / 12.0) * (np.ones((3, 3)) + np.eye(3))
    return stiffness, mass


def assemble(mesh: SurfaceMesh) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """Assemble global stiffness K and mass M over the mesh DOFs.

    Both matrices have dimension mesh.dof_count.  K is symmetric positive
    semidefinite with K @ 1 = 0; M is symmetric positive definite with
    1^T M 1 equal to the surface area.  Entries of K that are exactly zero
    (the cube's cell diagonals, each opposite two right angles) are not
    stored.

    Every DOF pair of a build_mesh mesh lies in exactly two elements, so each
    off-diagonal entry is a two-term sum, which has the same bits in either
    order; U, U^T and D have disjoint patterns, so adding them only copies
    entries.  A mesh with a pair in three or more elements is still summed
    correctly, in the order of scipy's COO -> CSR conversion, but the bits
    of those sums are not promised.

    K carries the mesh as the private attribute ``_mesh``, through which
    eigen.solve_lowest finds the mesh's symmetry sectors.  Anything that
    builds a new matrix drops it (K.copy(), arithmetic, slicing); data
    edited in place keeps it, and then solve_lowest's invariance check
    decides.
    """
    elements = mesh.elements
    # the edge opposite corner i, directed so the three edges sum to zero:
    # one (E,) array per edge and coordinate, from that coordinate's corners
    ex, ey = ([c[:, 2] - c[:, 1], c[:, 0] - c[:, 2], c[:, 1] - c[:, 0]]
              for c in (x[elements] for x in mesh.planar_vertices.T))
    area = 0.5 * (ex[2] * (-ey[1]) - ey[2] * (-ex[1]))
    if np.any(area <= 1e-14):
        raise DegenerateElementError("mesh contains a (near-)degenerate element")
    dofs = mesh.dof_of[elements]                         # (E, 3)
    n = mesh.dof_count

    # local pairs (0, 1), (0, 2), (1, 2) at (lo, hi) of their DOFs; int32 is
    # the index type scipy itself picks below 2**31 DOFs, so it copies nothing
    scale = 4.0 * area
    lo, hi = np.empty(dofs.shape, np.int32), np.empty(dofs.shape, np.int32)
    k_diag, k_pair = np.empty(dofs.shape), np.empty(dofs.shape)
    for p, (a, b) in enumerate(((0, 1), (0, 2), (1, 2))):
        np.minimum(dofs[:, a], dofs[:, b], out=lo[:, p])
        np.maximum(dofs[:, a], dofs[:, b], out=hi[:, p])
        k_diag[:, p] = (ex[p] * ex[p] + ey[p] * ey[p]) / scale
        k_pair[:, p] = (ex[a] * ex[b] + ey[a] * ey[b]) / scale
    del ex, ey, scale

    def matrix(pair, diag):
        U = sparse.csr_matrix((pair, (lo.ravel(), hi.ravel())), shape=(n, n))
        return U + U.T + sparse.diags(diag, format="csr")

    K = matrix(k_pair.ravel(), np.bincount(dofs.ravel(), k_diag.ravel(), n))
    del k_pair, k_diag
    m_pair = np.repeat(area / 12.0, 3)
    M = matrix(m_pair, np.bincount(dofs.ravel(), 2.0 * m_pair, n))
    K.eliminate_zeros()
    K._mesh = mesh
    return K, M
