import numpy as np
import pytest

import polyspec as ps
from polyspec import PolyhedronKind

KINDS = list(PolyhedronKind)

# relative gap at which the solver's eigenvalues split into clusters: copies
# of one eigenvalue agree far closer, distinct values lie far apart
CLUSTER_GAP = 1e-6


def span_distance(a, b, M):
    """Largest sine of the M-principal angles between the spans of two pairs.

    a and b list the same number of pairs with M-orthonormal vectors, so
    their spans are compared however a degenerate cluster picked its basis.
    The sines come from B's residual off A's span, R = B - A A^T M B, not from
    sqrt(1 - cos^2), which cannot resolve angles below about 1.5e-8.
    """
    A = np.column_stack([p.vector for p in a])
    B = np.column_stack([p.vector for p in b])
    R = B - A @ (A.T @ (M @ B))
    return float(np.sqrt(max(np.linalg.eigvalsh(R.T @ (M @ R)).max(), 0.0)))


class Workbench:
    """Session-wide cache of meshes, matrices, and spectra."""

    def __init__(self):
        self._meshes = {}
        self._matrices = {}
        self._pairs = {}

    def mesh(self, kind, r):
        key = (kind, r)
        if key not in self._meshes:
            self._meshes[key] = ps.build_mesh(ps.build_net(kind), r)
        return self._meshes[key]

    def matrices(self, kind, r):
        key = (kind, r)
        if key not in self._matrices:
            self._matrices[key] = ps.assemble(self.mesh(kind, r))
        return self._matrices[key]

    def pairs(self, kind, r, m, seed=0):
        key = (kind, r, m, seed)
        if key not in self._pairs:
            K, M = self.matrices(kind, r)
            self._pairs[key] = ps.solve_lowest(K, M, min(m, K.shape[0]),
                                               seed=seed)
        return self._pairs[key]

    def normalized(self, kind, r, m, seed=0):
        return np.array([ps.normalize(p.value, kind)
                         for p in self.pairs(kind, r, m, seed)])


@pytest.fixture(scope="session")
def bench():
    return Workbench()
