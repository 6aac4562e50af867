"""Generalized symmetric eigensolvers for the pencil K u = lambda M u.

solve_lowest targets the m smallest eigenvalues with shift-invert Lanczos
(ARPACK via scipy), seeded for reproducibility; K - sigma M is factored once
with a symmetric minimum-degree ordering and every Lanczos step reuses that
factor.  A K returned by fem.assemble carries its mesh.  If K and M are
invariant under the mesh's symmetry permutations, the pencil splits into one
sector per irreducible representation of the symmetry group (see
symmetry.split), about 0.27n DOFs in all on the icosahedron and 0.42n on the
other kinds.  Each value a sector finds belongs to a d-dimensional irrep and
occurs d times; its pair is lifted to the d partner eigenvectors, and each
sector's first ask covers what it needs at typical m, so each is usually
solved once.  The cube at odd resolution, a copy of K, a matrix built any
other way, or data edited out of invariance is solved whole.  dense_solve is
the full-spectrum direct oracle for small problems.  Both return
M-normalized eigenvectors with a deterministic sign convention; solve_lowest
checks the residual contract in the full pencil, partners included.

On a host with more than one usable CPU and fork, the sectors of a large
pencil are solved in worker processes, at most one per CPU and sector; one
loop collects every sector's solve, as a call that a worker has started or
that the parent runs.  Each worker inherits the sectors and the parent's
BLAS thread setting, and runs the same solve on the same data; the merge,
lift and checks stay in the parent, so the output is byte-identical for any
number of usable CPUs.  The workers' memory is their own: the parent's peak
RSS does not include it (see RUSAGE_CHILDREN).
"""

from __future__ import annotations

import concurrent.futures
import functools
import multiprocessing
import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg as dla
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from . import symmetry
from .errors import DimensionTooLargeError, NoConvergenceError

_DENSE_GUARD = 2000
_SHIFT = -1e-2
# pairs a sector computes beyond its share of m, so that the merge is usually
# certified without solving a sector twice (see _lowest_by_sector)
_SECTOR_MARGIN = 4
# fewest DOFs, summed over the sectors to solve, that go to worker processes;
# on 2 CPUs with 1 BLAS thread the pool took 1.18x the in-process time with
# 4,610 such DOFs, 0.67x with 6,146 and 0.91x with 8,194 (the abelian
# sectors that preceded the irreps), and below this bound it raised the
# benchmark's count_window peak RSS from 130 to 134 MB
_POOL_DOFS = 8000


@dataclass
class EigenPair:
    """One eigenpair: value >= 0 and its M-normalized eigenvector.

    The vector's largest-magnitude entry is positive (sign convention).
    """

    value: float
    vector: np.ndarray


def residual(K, M, pair: EigenPair) -> float:
    """Relative residual ||K v - lambda M v|| / ((1 + lambda) ||M v||)."""
    v = pair.vector
    mv = M @ v
    r = K @ v - pair.value * mv
    return float(np.linalg.norm(r) / ((1.0 + pair.value) * np.linalg.norm(mv)))


def _postprocess(vals, vecs, M, tol):
    order = np.argsort(vals)
    pairs = []
    for idx in order:
        lam = float(vals[idx])
        v = np.ascontiguousarray(vecs[:, idx])
        nrm = float(np.sqrt(v @ (M @ v)))
        v = v / nrm
        k = int(np.argmax(np.abs(v)))
        if v[k] < 0:
            v = -v
        if lam < 0:
            if lam > -10.0 * tol:
                lam = 0.0
            # else: leave the violation visible to the caller's checks
        pairs.append(EigenPair(value=lam, vector=v))
    return pairs


def _eigh(K, M):
    n = K.shape[0]
    if n > _DENSE_GUARD:
        raise DimensionTooLargeError(
            f"dense_solve limited to dimension {_DENSE_GUARD}, got {n}")
    Kd = K.toarray() if sparse.issparse(K) else np.asarray(K, dtype=float)
    Md = M.toarray() if sparse.issparse(M) else np.asarray(M, dtype=float)
    return dla.eigh(Kd, Md)


def dense_solve(K, M, tol: float = 1e-10):
    """Full spectrum of the pencil by dense symmetric-definite reduction.

    Guard: refuses dimensions above 2000.
    """
    vals, vecs = _eigh(K, M)
    return _postprocess(vals, vecs, M, tol)


def _lowest(K, M, m, v0, maxiter):
    """(values, vectors, operator applications) of the m lowest pairs.

    Shift-invert Lanczos from v0 on one pencil; tiny pencils, or m >= n - 1
    (ARPACK needs k < n - 1), go through the dense path.  A failure reports
    this call's applications.
    """
    n = K.shape[0]
    if m >= n - 1 or n <= 3:
        vals, vecs = _eigh(K, M)
        return vals[:m], vecs[:, :m], 0
    if maxiter is None:
        maxiter = max(1000, 500 * m)
    # K - sigma M is SPD for sigma < 0, so diagonal pivots are stable and a
    # symmetric minimum-degree ordering roughly halves the factor's fill
    lu = spla.splu(sparse.csc_matrix(K - _SHIFT * M),
                   permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})
    applications = 0

    def apply_inverse(x):
        nonlocal applications
        applications += 1
        return lu.solve(x)

    OPinv = spla.LinearOperator((n, n), matvec=apply_inverse, dtype=float)
    try:
        # ARPACK runs at machine precision: a looser inner tolerance lets the
        # iteration stop before resolving all copies of a degenerate cluster
        vals, vecs = spla.eigsh(K, k=m, M=M, sigma=_SHIFT, OPinv=OPinv, v0=v0,
                                maxiter=maxiter, tol=0.0)
    except spla.ArpackNoConvergence as exc:
        raise NoConvergenceError(
            f"ARPACK did not converge within {maxiter} iterations",
            iterations=applications,
            worst_residual=None) from exc
    return vals, vecs, applications


def _sector_lowest(sectors, i, m, seed, maxiter):
    """_lowest on sector i, from the start vector seeded by its irrep."""
    s = sectors[i]
    v0 = np.random.default_rng([seed, s.irrep]).standard_normal(s.K.shape[0])
    return _lowest(s.K, s.M, m, v0, maxiter)


_inherited = None       # in a worker process: the sectors of its pool


def _inherit(sectors):
    global _inherited
    _inherited = sectors


def _inherited_lowest(i, m, seed, maxiter):
    return _sector_lowest(_inherited, i, m, seed, maxiter)


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool(sectors, sizes):
    """A fork pool whose workers inherit sectors, or None to solve in-process.

    sizes are those of the sectors to solve.  A pool needs two usable CPUs,
    two sectors and _POOL_DOFS DOFs among them; a daemonic process may not
    start children, and without fork the sectors would have to be pickled.
    """
    workers = min(_usable_cpus(), len(sizes))
    if workers < 2 or sum(sizes) < _POOL_DOFS:
        return None
    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return None
    return concurrent.futures.ProcessPoolExecutor(
        workers, multiprocessing.get_context("fork"), initializer=_inherit,
        initargs=(sectors,))


def _lowest_by_sector(sectors, n, m, seed, maxiter):
    """The m lowest pairs of the sector pencils, merged and lifted.

    Each sector is the first row of one irrep of dimension d, and every value
    it finds counts d times.  Sector i of size n_i first asks for its share
    ceil(m n_i / n) plus _SECTOR_MARGIN pairs.  The merge is certified once
    every sector is exhausted or its largest computed value exceeds the
    merged m-th value; a sector that is neither is solved again for twice as
    many pairs.  That is a fallback: no sector needs it at m=200 on r=32
    meshes or on the icosahedron at r=128, m=50; the tetrahedron at r=128,
    m=200 solves two of its five sectors twice, one for a value that ties
    with the merged m-th to rounding.

    Each round maps every sector to solve onto a call that returns its
    solve; with a pool (see _pool) a worker starts it at once, the sector
    with the most nonzeros in K first, else the parent runs it when called.
    Either way results, and a failure's applications plus those of the runs
    before it, are taken in sector order.  Only the m lowest merged pairs
    are lifted, each value's d partners side by side (Sector.partners).
    """
    sizes = [s.K.shape[0] for s in sectors]
    dims = [s.rho.shape[1] for s in sectors]
    want = [min(size, -(-m * size // n) + _SECTOR_MARGIN) for size in sizes]
    found = {}
    applications = 0
    todo = [i for i, size in enumerate(sizes) if size]
    pool = _pool(sectors, [sizes[i] for i in todo])
    start = ((lambda *args: functools.partial(_sector_lowest, sectors, *args))
             if pool is None else
             lambda *args: pool.submit(_inherited_lowest, *args).result)
    try:
        while todo:
            runs = {i: start(i, want[i], seed, maxiter)
                    for i in sorted(todo, key=lambda i: -sectors[i].K.nnz)}
            for i in todo:
                try:
                    vals, vecs, used = runs[i]()
                except NoConvergenceError as exc:
                    raise NoConvergenceError(
                        str(exc), iterations=applications + exc.iterations,
                        worst_residual=None) from exc
                applications += used
                found[i] = (vals, vecs)
            merged = np.concatenate([np.repeat(vals, dims[i])
                                     for i, (vals, _) in found.items()])
            top = np.sort(merged)[m - 1]
            todo = [i for i, (vals, _) in found.items()
                    if want[i] < sizes[i] and vals.max() <= top]
            for i in todo:
                want[i] = min(sizes[i], 2 * want[i])
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    # entry e of merged is partner p of column j of sector i
    entries = [(i, j, p) for i, (vals, _) in found.items()
               for j in range(len(vals)) for p in range(dims[i])]
    order = np.argsort(merged, kind="stable")[:m]
    vecs = np.empty((n, m), order="F")
    lifted = None
    for col, e in enumerate(order):
        i, j, p = entries[e]
        if lifted != (i, j):
            lifted, partners = (i, j), sectors[i].partners(found[i][1][:, j])
        vecs[sectors[i].images, col] = partners[..., p]
    return merged[order], vecs, applications


def solve_lowest(K, M, m: int, tol: float = 1e-9, seed: int = 0,
                 maxiter: int | None = None):
    """The m smallest eigenpairs of K u = lambda M u, sorted ascending.

    A K from assemble carries its mesh; if K and M are invariant under the
    mesh's symmetry permutations, one sector per irreducible representation
    is solved on its own (see polyspec.symmetry), and its pairs are merged
    and lifted to their partners.  Any other pencil is solved whole.  Either
    way the residual contract is checked in the full pencil.

    Parameters
    ----------
    K, M : sparse matrices
        Symmetric PSD stiffness and SPD mass.
    m : int
        Number of eigenpairs, 1 <= m <= dim.
    tol : float
        Relative residual target per pair (finite, >= 1e-12).
    seed : int
        Seeds the Lanczos starting vectors; fixed seeds reproduce results.
    maxiter : int, optional
        ARPACK iteration budget of each Lanczos run.

    Raises
    ------
    NoConvergenceError
        If the residual contract cannot be met within the iteration budget;
        its ``iterations`` counts the shift-invert operator applications,
        summed over the sector solves so far.  Runs count in sector order,
        up to and including the one that failed, also when worker processes
        ran them at once.
    DimensionTooLargeError
        If m leaves a pencil or sector above 2000 DOFs to the dense path.
    """
    n = K.shape[0]
    if not 1 <= m <= n:
        raise ValueError(f"m={m} outside 1..{n}")
    if not (np.isfinite(tol) and tol >= 1e-12):
        raise ValueError(f"tol must be finite and >= 1e-12, got {tol}")
    sectors = symmetry.split(K, M)
    try:
        if sectors is None:
            v0 = np.random.default_rng(seed).standard_normal(n)
            vals, vecs, applications = _lowest(K, M, m, v0, maxiter)
        else:
            vals, vecs, applications = _lowest_by_sector(sectors, n, m, seed,
                                                         maxiter)
    except DimensionTooLargeError as exc:
        raise DimensionTooLargeError(
            f"{m} of {n} eigenpairs need a dense solve, which is limited to "
            f"{_DENSE_GUARD} DOFs; ask for fewer pairs") from exc
    pairs = _postprocess(vals, vecs, M, tol)
    worst = max(residual(K, M, p) for p in pairs)
    if worst > tol:
        raise NoConvergenceError(
            f"residual contract violated: worst residual {worst:.3e} > {tol:.3e}",
            iterations=applications, worst_residual=worst)
    return pairs

