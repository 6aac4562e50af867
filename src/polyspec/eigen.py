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
BLAS thread setting, and runs the same solve on the same data.  The workers'
memory is their own: the parent's peak RSS does not include it (see
RUSAGE_CHILDREN).  Where such a pool may start (two usable CPUs, two
sectors and _POOL_DOFS DOFs among them), two steps in the parent run on
threads too, and nowhere else: split's float invariance check, on one
thread beside the sector build, and the finish of every returned vector
(M-normalization, sign and residual), on the calling thread and one more
per further CPU.  Both are mostly scipy's sparse products and numpy's array
passes, which release the interpreter lock; SuperLU's solve holds it, so
the sector solves stay in processes.  The merge and the lift stay on the
calling thread, and each vector's finish is the same arithmetic on
whichever thread runs it, so the output is byte-identical for any number of
usable CPUs.
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


def _finish(K, M, vals, vectors, tol, threads=1):
    """The pairs of vals and vectors, sorted, and their worst residual.

    vectors[j] is value j's vector, a contiguous array that is normalized in
    place, so that no thread keeps pair data in its own heap.  One pass per
    vector: its M-norm from one M v and its residual from that and one K v
    (scaling v does not change it), then v divided by its M-norm and negated
    if its first entry of largest magnitude is negative.  A value within
    10 tol of zero, of either sign, is 0; one below -10 tol is kept for the
    caller's checks.  With threads > 1 the calling thread and threads - 1
    more take the vectors one at a time.
    """
    order = np.argsort(vals)
    values = [0.0 if abs(vals[j]) < 10.0 * tol else float(vals[j])
              for j in order]

    def finish(k):
        v, lam = vectors[order[k]], values[k]
        mv = M @ v
        scale = float(np.sqrt(v @ mv))
        r = K @ v
        denominator = (1.0 + lam) * np.linalg.norm(mv)
        r -= np.multiply(mv, lam, out=mv)
        np.divide(v, scale, out=v)
        # argmax(abs(v)) without a copy: its first maximum or minimum
        high, low = np.argmax(v), np.argmin(v)
        if v[high] < -v[low] or (v[high] == -v[low] and low < high):
            np.negative(v, out=v)
        return float(np.linalg.norm(r) / denominator)

    # each next() on the shared iterator is one call under the interpreter
    # lock, so every column goes to exactly one thread
    columns = iter(range(len(order)))

    def work():
        return [finish(k) for k in columns]

    if threads < 2:
        residuals = work()
    else:
        # the calling thread takes its share: one thread's heap fewer stays
        with concurrent.futures.ThreadPoolExecutor(threads - 1) as pool:
            helpers = [pool.submit(work) for _ in range(threads - 1)]
            residuals = work() + [r for h in helpers for r in h.result()]
    return [EigenPair(lam, vectors[j]) for lam, j in zip(values, order)], \
        max(residuals)


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
    return _finish(K, M, vals, [np.array(v) for v in vecs.T], tol)[0]


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


def _cpus(sizes):
    """The CPUs that sectors of these sizes may use at once: the usable ones
    if there are two, with two sectors and _POOL_DOFS DOFs among them, else
    1."""
    cpus = _usable_cpus()
    if cpus < 2 or len(sizes) < 2 or sum(sizes) < _POOL_DOFS:
        return 1
    return cpus


def _pool(sectors, sizes):
    """A fork pool whose workers inherit sectors, or None to solve in-process.

    sizes are those of the sectors to solve, and _cpus must allow two or
    more; a daemonic process may not start children, and without fork the
    sectors would have to be pickled.
    """
    workers = min(_cpus(sizes), len(sizes))
    if workers < 2:
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
    m=200 solves its trivial irrep's sector twice, and a sector whose value
    ties with the merged m-th to rounding is solved again too.

    Each round maps every sector to solve onto a call that returns its
    solve; with a pool (see _pool) a worker starts it at once, the sector
    with the most nonzeros in K first, else the parent runs it when called.
    Either way results, and a failure's applications plus those of the runs
    before it, are taken in sector order.  Only the m lowest merged pairs
    are lifted, each partner into its own vector (Sector.partner),
    unnormalized.
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
    # every vector is allocated before the first partner, so that the one
    # (|G|, orbits) array that each partner passes through reuses one block
    vectors = [np.empty(n) for _ in order]
    for e, v in zip(order, vectors):
        i, j, p = entries[e]
        sectors[i].partner(found[i][1][:, j], p, out=v)
    return merged[order], vectors, applications


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
    sectors = symmetry.split(K, M, _cpus)
    try:
        if sectors is None:
            v0 = np.random.default_rng(seed).standard_normal(n)
            vals, vecs, applications = _lowest(K, M, m, v0, maxiter)
            vectors, threads = [np.array(v) for v in vecs.T], 1
        else:
            vals, vectors, applications = _lowest_by_sector(
                sectors, n, m, seed, maxiter)
            threads = min(_cpus([s.K.shape[0] for s in sectors
                                 if s.K.shape[0]]), m)
    except DimensionTooLargeError as exc:
        raise DimensionTooLargeError(
            f"{m} of {n} eigenpairs need a dense solve, which is limited to "
            f"{_DENSE_GUARD} DOFs; ask for fewer pairs") from exc
    pairs, worst = _finish(K, M, vals, vectors, tol, threads)
    if worst > tol:
        raise NoConvergenceError(
            f"residual contract violated: worst residual {worst:.3e} > {tol:.3e}",
            iterations=applications, worst_residual=worst)
    return pairs
