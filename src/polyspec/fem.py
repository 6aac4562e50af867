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

_DROP_TOL = 1e-14


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
    1^T M 1 equal to the surface area.  Stored entries below 1e-14 in
    magnitude are dropped after assembly.
    """
    x, y = mesh.planar_vertices[mesh.elements].transpose(2, 0, 1)  # (E, 3)
    # edge opposite vertex i, directed so the three edges sum to zero
    ex = x[:, [2, 0, 1]] - x[:, [1, 2, 0]]
    ey = y[:, [2, 0, 1]] - y[:, [1, 2, 0]]
    area = 0.5 * (ex[:, 2] * (-ey[:, 1]) - ey[:, 2] * (-ex[:, 1]))
    if np.any(area <= 1e-14):
        raise DegenerateElementError("mesh contains a (near-)degenerate element")
    dofs = mesh.dof_of[mesh.elements]                    # (E, 3)
    n = mesh.dof_count

    # local pairs (0, 1), (0, 2), (1, 2), each keyed by (min, max) of its DOFs
    a, b = [0, 0, 1], [1, 2, 2]
    lo = np.minimum(dofs[:, a], dofs[:, b]).ravel()
    hi = np.maximum(dofs[:, a], dofs[:, b]).ravel()
    scale = 4.0 * area[:, None]
    k_diag = (ex * ex + ey * ey) / scale
    k_pair = (ex[:, a] * ex[:, b] + ey[:, a] * ey[:, b]) / scale
    m_pair = np.repeat(area / 12.0, 3)
    out = []
    for pair, diag in ((k_pair.ravel(), k_diag.ravel()),
                       (m_pair, 2.0 * m_pair)):
        U = sparse.coo_matrix((pair, (lo, hi)), shape=(n, n)).tocsr()
        D = sparse.diags(np.bincount(dofs.ravel(), diag, n), format="csr")
        A = U + U.T + D
        A.data[np.abs(A.data) < _DROP_TOL] = 0.0
        A.eliminate_zeros()
        out.append(A)
    return out[0], out[1]
