"""P1 stiffness and mass matrix assembly on a surface mesh.

Element integrals are evaluated in closed form (the integrands are polynomial,
so no quadrature is involved).  Assembly maps the element matrices through the
mesh's DOF map: the diagonal is summed per DOF, and each unordered off-diagonal
pair of an element is added once, at (min, max) of its two DOFs, into an upper
triangle U.  The matrix is U + U^T + D, so both triangles hold the very same
sums and the result is exactly symmetric.  The closed surface has no boundary
conditions, so the stiffness matrix has the constants in its kernel.
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

    K carries the mesh as the private attribute ``_mesh``, through which
    eigen.solve_lowest finds the mesh's symmetry sectors.  Anything that
    builds a new matrix drops it (K.copy(), arithmetic, slicing); data
    edited in place keeps it, and then solve_lowest's invariance check
    decides.
    """
    elements = mesh.elements
    x, y = mesh.planar_vertices.T
    # one (E,) array per element column: corner i's coordinates, and the edge
    # opposite corner i, directed so the three edges sum to zero
    cx = [x[elements[:, i]] for i in range(3)]
    cy = [y[elements[:, i]] for i in range(3)]
    ex = [cx[2] - cx[1], cx[0] - cx[2], cx[1] - cx[0]]
    ey = [cy[2] - cy[1], cy[0] - cy[2], cy[1] - cy[0]]
    area = 0.5 * (ex[2] * (-ey[1]) - ey[2] * (-ex[1]))
    if np.any(area <= 1e-14):
        raise DegenerateElementError("mesh contains a (near-)degenerate element")
    dofs = mesh.dof_of[elements]                         # (E, 3)
    n = mesh.dof_count

    # local pairs (0, 1), (0, 2), (1, 2), each keyed by (min, max) of its
    # DOFs; the (E, 3) arrays are filled column by column but read
    # element-major, the order in which the sparse sums below add entries
    scale = 4.0 * area
    lo, hi = np.empty_like(dofs), np.empty_like(dofs)
    k_diag, k_pair = np.empty(dofs.shape), np.empty(dofs.shape)
    for p, (a, b) in enumerate(((0, 1), (0, 2), (1, 2))):
        np.minimum(dofs[:, a], dofs[:, b], out=lo[:, p])
        np.maximum(dofs[:, a], dofs[:, b], out=hi[:, p])
        k_diag[:, p] = (ex[p] * ex[p] + ey[p] * ey[p]) / scale
        k_pair[:, p] = (ex[a] * ex[b] + ey[a] * ey[b]) / scale
    lo, hi = lo.ravel(), hi.ravel()
    m_pair = np.repeat(area / 12.0, 3)
    # K + iM goes through the sparse structure once; complex sums add real
    # and imaginary parts independently, so each part is summed exactly as
    # it would be alone
    U = sparse.coo_matrix((k_pair.ravel() + 1j * m_pair, (lo, hi)),
                          shape=(n, n)).tocsr()
    D = sparse.diags(np.bincount(dofs.ravel(), k_diag.ravel(), n)
                     + 1j * np.bincount(dofs.ravel(), 2.0 * m_pair, n),
                     format="csr")
    A = U + U.T + D
    K = sparse.csr_matrix((A.data.real.copy(), A.indices.copy(),
                           A.indptr.copy()), shape=(n, n))
    M = sparse.csr_matrix((A.data.imag.copy(), A.indices, A.indptr),
                          shape=(n, n))
    K.eliminate_zeros()
    K._mesh = mesh
    return K, M
