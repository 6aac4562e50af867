import math
import multiprocessing
import types

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

import polyspec as ps
from polyspec import PolyhedronKind

from conftest import CLUSTER_GAP, KINDS, span_distance

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="worker pools need the fork start method")


@pytest.fixture
def pools(monkeypatch):
    """Forces a worker pool on every sector solve; lists what _pool made.

    A test that then sets _usable_cpus to 1 gets the in-process loop, and
    None in the list.
    """
    made = []
    make = ps.eigen._pool

    def recorded(sectors, sizes):
        made.append(make(sectors, sizes))
        return made[-1]

    monkeypatch.setattr(ps.eigen, "_POOL_DOFS", 0)
    monkeypatch.setattr(ps.eigen, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(ps.eigen, "_pool", recorded)
    return made


def inverse_iteration_oracle(K, M, shifts, iters=200):
    """Independent eigenvalue estimates by shifted inverse iteration."""
    Kd = K.toarray()
    Md = M.toarray()
    rng = np.random.default_rng(0)
    out = []
    for sigma in shifts:
        A = Kd - sigma * Md
        v = rng.standard_normal(K.shape[0])
        for _ in range(iters):
            v = np.linalg.solve(A, Md @ v)
            v /= np.linalg.norm(v)
        lam = (v @ (Kd @ v)) / (v @ (Md @ v))
        out.append(lam)
    return out


def test_dense_one_by_one():
    K = sparse.csr_matrix(np.array([[0.0]]))
    M = sparse.csr_matrix(np.array([[2.5]]))
    pairs = ps.dense_solve(K, M)
    assert pairs[0].value == 0.0


def test_dense_guard():
    n = 2001
    with pytest.raises(ps.DimensionTooLargeError):
        ps.dense_solve(sparse.eye(n, format="csr"), sparse.eye(n, format="csr"))


def test_solve_lowest_names_the_request_above_the_dense_guard(monkeypatch):
    # m >= n - 1 sends the whole pencil (a copy of K has no mesh) to the
    # dense path, which refuses it before anything is factored
    mesh = ps.build_mesh(ps.build_net(PolyhedronKind.TETRAHEDRON), 40)
    K, M = ps.assemble(mesh)
    n = K.shape[0]

    def no_factor(*args, **kwargs):
        raise AssertionError("factored before the dense guard")

    monkeypatch.setattr(spla, "splu", no_factor)
    with pytest.raises(ps.DimensionTooLargeError) as info:
        ps.solve_lowest(K.copy(), M, n - 1)
    message = str(info.value)
    assert f"{n - 1} of {n} eigenpairs" in message and "2000" in message
    assert "dense_solve" not in message


def test_solve_matches_dense_on_tiny_mesh(bench):
    K, M = bench.matrices(PolyhedronKind.TETRAHEDRON, 1)
    dense = ps.dense_solve(K, M)
    low = ps.solve_lowest(K, M, K.shape[0], seed=0)
    for a, b in zip(dense, low):
        assert abs(a.value - b.value) < 1e-10


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("r", [1, 2])
def test_oracle_equivalence_small(kind, r, bench):
    K, M = bench.matrices(kind, r)
    m = min(20, K.shape[0])
    dense = ps.dense_solve(K, M)[:m]
    low = ps.solve_lowest(K, M, m, seed=3)
    for a, b in zip(dense, low):
        assert abs(a.value - b.value) < 1e-8


def test_zero_mode_is_constant(bench):
    K, M = bench.matrices(PolyhedronKind.ICOSAHEDRON, 2)
    pairs = ps.solve_lowest(K, M, 1, seed=0)
    assert pairs[0].value < 1e-10
    v = pairs[0].vector
    assert np.allclose(v, v[0], atol=1e-8)
    assert v[0] > 0


def test_residual_contracts(bench):
    K, M = bench.matrices(PolyhedronKind.OCTAHEDRON, 2)
    pairs = ps.dense_solve(K, M)
    assert all(ps.residual(K, M, p) <= 1e-10 for p in pairs)
    n = K.shape[0]
    const = np.ones(n)
    const /= math.sqrt(const @ (M @ const))
    zp = ps.EigenPair(value=0.0, vector=const)
    assert ps.residual(K, M, zp) <= 1e-12
    p = pairs[4]
    bumped = ps.EigenPair(value=p.value, vector=p.vector + 0.01 * np.eye(n)[0])
    assert ps.residual(K, M, bumped) > ps.residual(K, M, p)


def test_random_pencil_vs_inverse_iteration():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((20, 20))
    B = rng.standard_normal((20, 20))
    K = sparse.csr_matrix(A @ A.T + 20 * np.eye(20))
    M = sparse.csr_matrix(B @ B.T + 20 * np.eye(20))
    pairs = ps.dense_solve(K, M)
    vals = np.array([p.value for p in pairs])
    # isolated eigenvalues: shift close to each and iterate
    for idx in (0, 4, 11):
        sigma = vals[idx] * (1 + 1e-4) + 1e-6
        gap = min(abs(vals - sigma)[np.arange(20) != idx].min(), 1.0)
        if gap < 1e-3:
            continue
        lam = inverse_iteration_oracle(K, M, [sigma])[0]
        assert abs(lam - vals[idx]) < 1e-8


@pytest.mark.parametrize("kind", KINDS)
def test_first_eigenvalues_sorted_orthogonal_normalized(kind, bench):
    K, M = bench.matrices(kind, 4)
    pairs = ps.solve_lowest(K, M, 8, seed=0)
    vals = [p.value for p in pairs]
    assert vals == sorted(vals)
    assert vals[0] < 1e-9
    V = np.column_stack([p.vector for p in pairs])
    G = V.T @ (M @ V)
    assert np.allclose(G, np.eye(8), atol=1e-8)
    for p in pairs:
        k = int(np.argmax(np.abs(p.vector)))
        assert p.vector[k] > 0


def test_reproducible_for_fixed_seed(bench):
    K, M = bench.matrices(PolyhedronKind.CUBE, 4)
    a = ps.solve_lowest(K, M, 6, seed=42)
    b = ps.solve_lowest(K, M, 6, seed=42)
    for p, q in zip(a, b):
        assert p.value == q.value
        assert np.array_equal(p.vector, q.vector)


def test_degenerate_cluster_spans_reproducible(bench):
    K, M = bench.matrices(PolyhedronKind.OCTAHEDRON, 8)
    a = ps.solve_lowest(K, M, 10, seed=1)
    b = ps.solve_lowest(K, M, 10, seed=99)
    sizes = [n for _, n in ps.group_clusters([p.value for p in a],
                                             CLUSTER_GAP)]
    assert sizes == [n for _, n in ps.group_clusters([p.value for p in b],
                                                     CLUSTER_GAP)]
    ends = np.cumsum([0] + sizes).tolist()
    # the final cluster may be truncated by m and is then seed-dependent
    for lo, hi in zip(ends[:-2], ends[1:-1]):
        assert span_distance(a[lo:hi], b[lo:hi], M) < 1e-6


@pytest.mark.parametrize("kind", KINDS)
def test_monotone_refinement(kind, bench):
    prev = None
    for r in (4, 8):
        vals = np.array([p.value for p in bench.pairs(kind, r, 10)])
        if prev is not None:
            assert np.all(vals <= prev + 1e-9)
        prev = vals


def test_tetra_first_cluster(bench):
    vals = bench.normalized(PolyhedronKind.TETRAHEDRON, 32, 4)
    assert vals[0] < 1e-10
    for v in vals[1:]:
        assert abs(v - 1.0) < 0.01
    assert vals[3] - vals[1] <= 0.005 * vals[2]


def test_cube_r2_low_cluster(bench):
    # the first excited level groups into three nearby values; the fixed
    # element diagonal splits them at O(h^2), not to solver precision
    K, M = bench.matrices(PolyhedronKind.CUBE, 2)
    pairs = ps.dense_solve(K, M)
    vals = np.array([p.value for p in pairs])
    assert vals[0] < 1e-10
    spread = (vals[3] - vals[1]) / vals[2]
    assert spread < 0.02
    assert vals[4] > 2 * vals[3]


def test_solve_lowest_validates_arguments(bench):
    K, M = bench.matrices(PolyhedronKind.TETRAHEDRON, 1)
    with pytest.raises(ValueError):
        ps.solve_lowest(K, M, 0)
    with pytest.raises(ValueError):
        ps.solve_lowest(K, M, 2, tol=1e-14)
    # a NaN or infinite tol would make the residual check never fire
    for tol in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match="tol"):
            ps.solve_lowest(K, M, 2, tol=tol)


def test_no_convergence_reports_operator_applications(bench, monkeypatch):
    # both failures report how many shift-invert steps were taken, not the
    # iteration budget (ARPACK counts restarts, several steps each), summed
    # over every Lanczos run so far.  An untagged copy of K is solved whole;
    # the assembled K at r=32 goes through sectors large enough for ARPACK
    # to need a restart (at r=16 one Lanczos pass converges in every sector,
    # and maxiter never applies)
    K4, M4 = bench.matrices(PolyhedronKind.OCTAHEDRON, 4)
    K32, M32 = bench.matrices(PolyhedronKind.OCTAHEDRON, 32)
    assert ps.symmetry.split(K4.copy(), M4) is None
    assert ps.symmetry.split(K32, M32) is not None
    for K, M in ((K4.copy(), M4), (K32, M32)):
        with pytest.raises(ps.NoConvergenceError) as info:
            ps.solve_lowest(K, M, 8, seed=0, maxiter=1)
        assert info.value.iterations > 1 and info.value.worst_residual is None
    runs = []
    lowest = ps.eigen._lowest

    def counted(*args):
        out = lowest(*args)
        runs.append(out[2])
        return out

    maxiter = 1000
    monkeypatch.setattr(ps.eigen, "_lowest", counted)
    monkeypatch.setattr(ps.eigen, "residual", lambda K, M, pair: 1.0)
    # one solve per irrep of the octahedron's label group, 10 in all
    for K, M, solves in ((K4.copy(), M4, 1), (K32, M32, 10)):
        runs.clear()
        with pytest.raises(ps.NoConvergenceError) as info:
            ps.solve_lowest(K, M, 8, seed=0, maxiter=maxiter)
        assert len(runs) == solves
        assert info.value.iterations == sum(runs)
        assert 0 < info.value.iterations < maxiter
        assert info.value.worst_residual == 1.0


@pytest.mark.parametrize("kind", KINDS)
def test_matches_scipy_shift_invert_above_dense_guard(kind, bench):
    # scipy's own shift-invert path (its internal LU) is the oracle for
    # pencils too large for dense_solve
    K, M = bench.matrices(kind, 16)
    m, seed = 30, 0
    v0 = np.random.default_rng(seed).standard_normal(K.shape[0])
    vals, vecs = spla.eigsh(K, k=m, M=M, sigma=-1e-2, v0=v0, tol=0)
    ref = ps.eigen._postprocess(vals, vecs, M, 1e-9)
    low = ps.solve_lowest(K, M, m, seed=seed)
    a = np.array([p.value for p in ref])
    b = np.array([p.value for p in low])
    assert np.all(np.abs(a - b) <= 1e-10 * np.maximum(1.0, a))
    sizes = [n for _, n in ps.group_clusters(a, rel_tol=CLUSTER_GAP)]
    assert sizes == [n for _, n in ps.group_clusters(b, rel_tol=CLUSTER_GAP)]
    ends = np.cumsum([0] + sizes).tolist()
    # the final cluster may be truncated by m and then depends on rounding
    for lo, hi in zip(ends[:-2], ends[1:-1]):
        assert span_distance(ref[lo:hi], low[lo:hi], M) < 1e-8


@needs_fork
@pytest.mark.parametrize("kind", KINDS)
def test_worker_pool_is_bit_for_bit_the_in_process_loop(kind, bench, pools,
                                                        monkeypatch):
    K, M = bench.matrices(kind, 32)
    pooled = ps.solve_lowest(K, M, 200, seed=0)
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(ps.eigen, "_usable_cpus", lambda: 1)
    alone = ps.solve_lowest(K, M, 200, seed=0)
    assert pools[0] is not None and pools[1:] == [None]
    assert len(pooled) == len(alone) == 200
    for a, b in zip(pooled, alone):
        assert np.float64(a.value).tobytes() == np.float64(b.value).tobytes()
        assert a.vector.tobytes() == b.vector.tobytes()


@needs_fork
def test_a_resolve_round_through_the_pool_is_the_in_process_loop(
        bench, pools, monkeypatch):
    # 13,655 sector DOFs, past _POOL_DOFS; at m=200 the trivial irrep's
    # sector is solved a second time, for twice its first ask.  Sector 3's
    # 30th value ties with the merged 200th to rounding (the tetrahedron's
    # two 3-dimensional irreps share that cluster), so it may run again too
    K, M = bench.matrices(PolyhedronKind.TETRAHEDRON, 128)
    assert sum(s.K.shape[0] for s in ps.symmetry.split(K, M)) == 13655
    assert 13655 > ps.eigen._POOL_DOFS
    pooled = ps.solve_lowest(K, M, 200, seed=1)
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(ps.eigen, "_usable_cpus", lambda: 1)
    solve = ps.eigen._sector_lowest
    asks = []

    def counted(sectors, i, m, *args):
        asks.append((i, m))
        return solve(sectors, i, m, *args)

    monkeypatch.setattr(ps.eigen, "_sector_lowest", counted)
    alone = ps.solve_lowest(K, M, 200, seed=1)
    assert pools[0] is not None and pools[1:] == [None]
    assert asks[:5] == [(0, 13), (1, 12), (2, 21), (3, 30), (4, 29)]
    assert asks[5] == (0, 26) and asks[6:] in ([], [(3, 60)])
    assert len(pooled) == len(alone) == 200
    for a, b in zip(pooled, alone):
        assert np.float64(a.value).tobytes() == np.float64(b.value).tobytes()
        assert a.vector.tobytes() == b.vector.tobytes()


@needs_fork
def test_worker_failure_reports_like_the_in_process_loop(bench, pools,
                                                         monkeypatch):
    K, M = bench.matrices(PolyhedronKind.OCTAHEDRON, 32)
    errors = []
    for cpus in (2, 1):
        monkeypatch.setattr(ps.eigen, "_usable_cpus", lambda: cpus)
        with pytest.raises(ps.NoConvergenceError) as info:
            ps.solve_lowest(K, M, 8, seed=0, maxiter=1)
        assert multiprocessing.active_children() == []
        errors.append(info.value)
    assert pools[0] is not None and pools[1] is None
    pooled, alone = errors
    assert str(pooled) == str(alone)
    assert pooled.iterations == alone.iterations > 1
    assert pooled.worst_residual is alone.worst_residual is None


@needs_fork
def test_a_failing_sector_counts_the_runs_before_it_in_sector_order(
        bench, pools, monkeypatch):
    # the workers inherit the patched function when they fork; the last
    # sector fails after its run, while the earlier ones may still be running
    K, M = bench.matrices(PolyhedronKind.OCTAHEDRON, 8)
    sectors = ps.symmetry.split(K, M)
    last = max(i for i, s in enumerate(sectors) if s.K.shape[0])
    solve = ps.eigen._sector_lowest
    runs = {}

    def failing(sectors, i, *args):
        vals, vecs, used = solve(sectors, i, *args)
        runs[i] = used
        if i == last:
            raise ps.NoConvergenceError("stop", iterations=used)
        return vals, vecs, used

    monkeypatch.setattr(ps.eigen, "_sector_lowest", failing)
    errors = []
    for cpus in (1, 2):
        monkeypatch.setattr(ps.eigen, "_usable_cpus", lambda: cpus)
        with pytest.raises(ps.NoConvergenceError, match="stop") as info:
            ps.solve_lowest(K, M, 8, seed=0)
        errors.append(info.value.iterations)
    # runs holds the in-process loop's calls only: the workers' are their own
    assert pools[0] is None and pools[1] is not None
    assert len(runs) > 1 and runs[last] < sum(runs.values())
    assert errors == [sum(runs.values())] * 2
    assert multiprocessing.active_children() == []


def test_only_large_solves_on_several_cpus_start_a_pool(bench, monkeypatch):
    # every pencil up to r=16 stays in-process, so the tests that patch
    # _lowest there see every call
    for kind in KINDS:
        K, M = bench.matrices(kind, 16)
        sizes = [s.K.shape[0] for s in ps.symmetry.split(K, M)]
        assert sum(sizes) < ps.eigen._POOL_DOFS
    K, M = bench.matrices(PolyhedronKind.OCTAHEDRON, 4)
    sectors = ps.symmetry.split(K, M)
    sizes = [s.K.shape[0] for s in sectors]
    monkeypatch.setattr(ps.eigen, "_POOL_DOFS", sum(sizes))
    monkeypatch.setattr(ps.eigen, "_usable_cpus", lambda: 2)
    assert ps.eigen._pool(sectors, sizes[1:]) is None
    if "fork" in multiprocessing.get_all_start_methods():
        pool = ps.eigen._pool(sectors, sizes)
        assert pool is not None
        pool.shutdown()
    monkeypatch.setattr(ps.eigen, "_usable_cpus", lambda: 1)
    assert ps.eigen._pool(sectors, sizes) is None
    monkeypatch.setattr(ps.eigen, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(multiprocessing, "current_process",
                        lambda: types.SimpleNamespace(daemon=True))
    assert ps.eigen._pool(sectors, sizes) is None
    monkeypatch.undo()
    monkeypatch.setattr(ps.eigen, "_POOL_DOFS", 0)
    monkeypatch.setattr(ps.eigen, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    assert ps.eigen._pool(sectors, sizes) is None
