import dataclasses
import itertools
import math
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sparse
from scipy.integrate import dblquad

import polyspec as ps
from polyspec import PolyhedronKind

from conftest import KINDS

SQRT3 = math.sqrt(3.0)


def quadrature_oracle(verts):
    """Independent P1 element matrices via adaptive 2D quadrature.

    Basis functions are evaluated by solving the affine interpolation system
    point by point; gradients by central differences.
    """
    verts = np.asarray(verts, float)
    A = np.column_stack([np.ones(3), verts])

    def basis(i, x, y):
        rhs = np.zeros(3)
        rhs[i] = 1.0
        coef = np.linalg.solve(A, rhs)
        return coef[0] + coef[1] * x + coef[2] * y

    def grad(i):
        h = 1e-6
        x0, y0 = verts.mean(axis=0)
        gx = (basis(i, x0 + h, y0) - basis(i, x0 - h, y0)) / (2 * h)
        gy = (basis(i, x0, y0 + h) - basis(i, x0, y0 - h)) / (2 * h)
        return np.array([gx, gy])

    # integrate over the triangle via the unit-reference map
    (x0, y0), (x1, y1), (x2, y2) = verts
    jac = abs((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0))

    def tri_integral(f):
        def g(v, u):
            x = x0 + u * (x1 - x0) + v * (x2 - x0)
            y = y0 + u * (y1 - y0) + v * (y2 - y0)
            return f(x, y)
        val, _ = dblquad(g, 0, 1, 0, lambda u: 1 - u, epsabs=1e-12)
        return val * jac

    K = np.empty((3, 3))
    M = np.empty((3, 3))
    grads = [grad(i) for i in range(3)]
    for i in range(3):
        for j in range(3):
            K[i, j] = tri_integral(lambda x, y: grads[i] @ grads[j])
            M[i, j] = tri_integral(
                lambda x, y: basis(i, x, y) * basis(j, x, y))
    return K, M


def test_unit_right_triangle_exact():
    K, M = ps.element_matrices([(0, 0), (1, 0), (0, 1)])
    K_want = 0.5 * np.array([[2, -1, -1], [-1, 1, 0], [-1, 0, 1]], float)
    M_want = np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]], float) / 24
    assert np.allclose(K, K_want, atol=1e-14)
    assert np.allclose(M, M_want, atol=1e-16)


def test_equilateral_triangle_exact():
    K, M = ps.element_matrices([(0, 0), (1, 0), (0.5, SQRT3 / 2)])
    assert np.allclose(np.diag(K), 1 / SQRT3, atol=1e-14)
    off = K[~np.eye(3, dtype=bool)]
    assert np.allclose(off, -1 / (2 * SQRT3), atol=1e-14)
    assert np.allclose(K.sum(axis=1), 0, atol=1e-14)
    assert abs(M.sum() - SQRT3 / 4) < 1e-14


def _signed_area(verts):
    u = verts[1] - verts[0]
    v = verts[2] - verts[0]
    return 0.5 * (u[0] * v[1] - u[1] * v[0])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_element_matrices_match_quadrature_oracle(seed):
    rng = np.random.default_rng(seed)
    verts = rng.uniform(-1, 1, size=(3, 2))
    if abs(_signed_area(verts)) < 1e-3:
        verts[2] += 0.5
    if _signed_area(verts) < 0:
        verts = verts[[0, 2, 1]]
    K, M = ps.element_matrices(verts)
    K_q, M_q = quadrature_oracle(verts)
    assert np.allclose(K, K_q, atol=1e-9)
    assert np.allclose(M, M_q, atol=1e-11)
    assert abs(M.sum() - _signed_area(verts)) < 1e-13


def test_degenerate_element_raises():
    with pytest.raises(ps.DegenerateElementError):
        ps.element_matrices([(0, 0), (1, 0), (2, 0)])


def test_malformed_elements_raise(bench):
    with pytest.raises(ValueError, match="expected three planar points"):
        ps.element_matrices([(0, 0), (1, 0)])
    with pytest.raises(ps.DegenerateElementError, match="negative orientation"):
        ps.element_matrices([(0, 0), (0, 1), (1, 0)])     # clockwise
    mesh = bench.mesh(PolyhedronKind.TETRAHEDRON, 2)
    flat = dataclasses.replace(mesh, elements=mesh.elements[:, [0, 0, 1]])
    with pytest.raises(ps.DegenerateElementError, match="degenerate element"):
        ps.assemble(flat)


@pytest.mark.parametrize("kind", KINDS)
def test_assemble_contracts(kind, bench):
    mesh = bench.mesh(kind, 4)
    K, M = bench.matrices(kind, 4)
    n = mesh.dof_count
    assert K.shape == M.shape == (n, n)
    ones = np.ones(n)
    assert np.linalg.norm(K @ ones) < 1e-12
    assert abs(ones @ (M @ ones) - mesh.net.area) < 1e-12 * mesh.net.area
    # exact symmetry
    assert (K - K.T).nnz == 0
    assert (M - M.T).nnz == 0
    # no stored (near-)zeros
    assert np.all(np.abs(K.data) >= 1e-14)
    assert np.all(np.abs(M.data) >= 1e-14)


@pytest.mark.parametrize("kind", KINDS)
def test_positivity_spot_checks(kind, bench):
    K, M = bench.matrices(kind, 3)
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rng.standard_normal(K.shape[0])
        assert x @ (K @ x) >= -1e-10
        assert x @ (M @ x) > 0


def test_stiffness_kernel_is_one_dimensional(bench):
    for kind in KINDS:
        K, _ = bench.matrices(kind, 2)
        w = np.linalg.eigvalsh(K.toarray())
        assert np.sum(np.abs(w) < 1e-9) == 1


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("r", [1, 2])
def test_assembly_permutation_equivariance(kind, r, bench):
    mesh = bench.mesh(kind, r)
    K, M = bench.matrices(kind, r)
    rng = np.random.default_rng(11)
    perm = rng.permutation(mesh.dof_count)

    class Shim:
        planar_vertices = mesh.planar_vertices
        elements = mesh.elements
        dof_of = perm[mesh.dof_of]
        dof_count = mesh.dof_count

    K2, M2 = ps.assemble(Shim())
    # relabeled assembly conjugates by the permutation: K2[p(i), p(j)] = K[i, j]
    assert np.allclose(K2.toarray()[np.ix_(perm, perm)], K.toarray(),
                       atol=1e-12)
    assert np.allclose(M2.toarray()[np.ix_(perm, perm)], M.toarray(),
                       atol=1e-14)


def _dense_oracle(mesh):
    """Dense K and M: element_matrices scattered through dof_of, one by one."""
    n = mesh.dof_count
    K = np.zeros((n, n))
    M = np.zeros((n, n))
    for tri in mesh.elements:
        k, m = ps.element_matrices(mesh.planar_vertices[tri])
        dofs = mesh.dof_of[tri]
        for a in range(3):
            for b in range(3):
                K[dofs[a], dofs[b]] += k[a, b]
                M[dofs[a], dofs[b]] += m[a, b]
    return K, M


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("r", [1, 2, 3])
def test_assembly_matches_dense_oracle(kind, r, bench):
    mesh = bench.mesh(kind, r)
    K, M = bench.matrices(kind, r)
    K_want, M_want = _dense_oracle(mesh)
    for A, want in ((K, K_want), (M, M_want)):
        assert np.abs(A.toarray() - want).max() <= 1e-15 * np.abs(want).max()
        # bitwise symmetric, and stored exactly where the oracle is nonzero
        assert (A != A.T).nnz == 0
        assert np.array_equal(A.toarray() != 0, want != 0)
    stored_k = set(zip(*K.nonzero()))
    stored_m = set(zip(*M.nonzero()))
    if kind is not PolyhedronKind.CUBE:
        assert stored_k == stored_m
        return
    # K omits exactly the cell diagonals (each triangle's hypotenuse), where
    # the stiffness of a right angle's two legs cancels; M keeps them
    diagonals = set()
    for tri in mesh.elements:
        p = mesh.planar_vertices[tri]
        for a, b in ((0, 1), (0, 2), (1, 2)):
            if np.linalg.norm(p[a] - p[b]) > 1.2 / r:
                da, db = mesh.dof_of[tri[a]], mesh.dof_of[tri[b]]
                diagonals |= {(da, db), (db, da)}
    assert len(diagonals) == 2 * 6 * r * r
    assert stored_k == stored_m - diagonals


def test_pair_in_three_elements_matches_dense_oracle():
    # DOFs 0 and 1 share three elements, so their entries are three-term sums
    mesh = SimpleNamespace(
        planar_vertices=np.array([(0.0, 0.0), (1.0, 0.0), (0.5, 1.0),
                                  (0.5, 2.0), (0.5, -1.0)]),
        elements=np.array([(0, 1, 2), (0, 1, 3), (1, 0, 4)]),
        dof_of=np.arange(5), dof_count=5)
    K, M = ps.assemble(mesh)
    K_want, M_want = _dense_oracle(mesh)
    for A, want in ((K, K_want), (M, M_want)):
        assert np.abs(A.toarray() - want).max() <= 1e-15 * np.abs(want).max()
        assert (A != A.T).nnz == 0


def _complex_coo_assemble(mesh):
    """K and M from one complex COO -> CSR pass of K + iM, the complex path
    assemble took before commit 7bd1600, kept as its bit-identity oracle."""
    n, dofs = mesh.dof_count, mesh.dof_of[mesh.elements]
    c = mesh.planar_vertices[mesh.elements]         # (E, 3, 2) corners
    e = c[:, [2, 0, 1]] - c[:, [1, 2, 0]]           # edge opposite corner i
    area = 0.5 * (e[:, 2, 0] * -e[:, 1, 1] - e[:, 2, 1] * -e[:, 1, 0])
    a, b = [0, 0, 1], [1, 2, 2]                     # the local pairs
    k_pair = (e[:, a] * e[:, b]).sum(axis=2) / (4.0 * area[:, None])
    k_diag = (e * e).sum(axis=2) / (4.0 * area[:, None])
    m_pair = np.repeat(area / 12.0, 3)
    lo = np.minimum(dofs[:, a], dofs[:, b]).ravel()
    hi = np.maximum(dofs[:, a], dofs[:, b]).ravel()
    U = sparse.coo_matrix((k_pair.ravel() + 1j * m_pair, (lo, hi)),
                          shape=(n, n)).tocsr()
    D = sparse.diags(np.bincount(dofs.ravel(), k_diag.ravel(), n)
                     + 1j * np.bincount(dofs.ravel(), 2.0 * m_pair, n),
                     format="csr")
    A = U + U.T + D
    K = sparse.csr_matrix((A.data.real.copy(), A.indices.copy(),
                           A.indptr.copy()), shape=(n, n))
    K.eliminate_zeros()
    M = sparse.csr_matrix((A.data.imag.copy(), A.indices, A.indptr),
                          shape=(n, n))
    return K, M


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("r", [1, 2, 3, 7, 16])
@pytest.mark.parametrize("permuted", [False, True])
def test_assembly_is_bitwise_the_complex_coo_path(kind, r, permuted, bench):
    mesh = bench.mesh(kind, r)
    if permuted:   # the shim of test_assembly_permutation_equivariance
        perm = np.random.default_rng(11).permutation(mesh.dof_count)
        mesh = SimpleNamespace(planar_vertices=mesh.planar_vertices,
                               elements=mesh.elements,
                               dof_of=perm[mesh.dof_of],
                               dof_count=mesh.dof_count)
    for A, want in zip(ps.assemble(mesh), _complex_coo_assemble(mesh)):
        assert A.shape == want.shape
        for name in ("indptr", "indices", "data"):
            got, ref = getattr(A, name), getattr(want, name)
            assert got.dtype == ref.dtype, name
            assert got.tobytes() == ref.tobytes(), name
        assert A.has_canonical_format == want.has_canonical_format


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("r", [1, 2, 3, 7])
def test_every_dof_pair_lies_in_exactly_two_elements(kind, r, bench):
    # assemble's off-diagonal sums are two-term, hence order-free, by this
    mesh = bench.mesh(kind, r)
    dofs = mesh.dof_of[mesh.elements].tolist()
    assert all(len(set(tri)) == 3 for tri in dofs)
    pairs = Counter(frozenset(pair) for tri in dofs
                    for pair in itertools.combinations(tri, 2))
    assert set(pairs.values()) == {2}


@pytest.mark.parametrize("kind", KINDS)
def test_assembly_peak_memory_is_a_few_times_its_output(kind, bench):
    mesh = bench.mesh(kind, 32)
    tracemalloc.start()
    try:
        K, M = ps.assemble(mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = sum(a.nbytes for A in (K, M)
                 for a in (A.data, A.indices, A.indptr))
    assert peak <= 4 * output
