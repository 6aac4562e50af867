"""Symmetry sectors of the P1 pencil on a refined net.

Every isometry of a regular polyhedron permutes its vertices, so it acts on
the vertex labels of the net tables.  The label permutations that map the
net's faces onto faces map the refined grid onto itself, hence permute its
degrees of freedom.  They map elements onto elements too, so that K and M
commute with them, on the triangle kinds at every resolution and on the cube
at even resolution (see mesh._element_template); at odd resolution split
finds the cube's pencil not invariant, and it is solved whole.

The DOF space splits M- and K-orthogonally by the irreducible representations
(irreps) rho of the label group G, all of them real here (Bossavit, CMAME 56,
1986; Fassler & Stiefel, Group Theoretical Methods and Their Applications,
1992).  A d-dimensional rho gives d sectors, one per row of rho, on which K
and M act alike.  split returns the first row's sector of every irrep, read
off one row of K and M per G-orbit of DOFs; each eigenvalue of it occurs d
times in the whole pencil, and rho's matrices lift each eigenvector to its d
partners.  split checks K and M under two generators of G: sector_plan gives
them, and the tree along which every element composes from them, off one
product table of G; _irreps gives the matrices of every rho.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy.linalg as dla
import scipy.sparse as sparse
from scipy.sparse import csgraph

from .mesh import SurfaceMesh, face_grid, grid_index
from .net import PolyhedronKind, build_net

# largest ||P A P^T - A||_max / ||A||_max accepted as invariant; assembly sums
# element contributions in a mesh-dependent order, so P A P^T equals A only
# to a few ulp
INVARIANCE_TOL = 1e-12


@lru_cache(maxsize=None)
def label_group(kind: PolyhedronKind) -> tuple:
    """Every vertex-label permutation that maps the net onto itself.

    Backtracks over the labels in breadth-first order of the label graph
    (labels joined by a face edge): each label takes an unused image whose
    adjacency to the images so far matches its own.  The label graph is
    3-connected and planar, so each of its automorphisms maps faces to faces
    (Whitney).  Orders: 24 (tetrahedron), 48 (octahedron and cube) and 120
    (icosahedron).  Sorted, so the identity comes first.
    """
    net = build_net(kind)
    near = {}                   # label -> the labels it shares a face edge with
    for f in net.faces:
        for e in range(f.n_sides):
            u, v = f.edge_labels(e)
            near.setdefault(u, set()).add(v)
            near.setdefault(v, set()).add(u)
    # breadth-first, so each label after the first has a placed neighbour,
    # and its image is among the neighbours of any such neighbour's image
    order = [0]
    for v in order:
        order += sorted(near[v] - set(order))
    found = []

    def extend(image):
        if len(image) == len(order):
            found.append(tuple(image[v] for v in range(len(order))))
            return
        v = order[len(image)]
        used = set(image.values())
        want = {image[u] for u in near[v] & image.keys()}
        for w in near[min(want)] - used if want else near:
            if near[w] & used == want:
                extend({**image, v: w})

    extend({})
    return tuple(sorted(found))


@lru_cache(maxsize=None)
def _table(kind: PolyhedronKind) -> np.ndarray:
    """The product table of label_group: entry [a, b] indexes a∘b.

    a∘b applies b, then a; index 0 is the identity.  Label permutations read
    as base-V numbers (V labels, the first most significant) sort as
    label_group does, so each product, its number summed label by label (no
    (|G|, |G|, V) array), is found by binary search.  Read-only: it is cached.
    """
    group = np.array(label_group(kind))
    digits = group.shape[1] ** np.arange(group.shape[1])[::-1]
    keys = group @ digits  # products[a, b] is a∘b's: (a∘b)[x] = a[b[x]]
    products = sum(group[:, group[:, x]] * d for x, d in enumerate(digits))
    table = np.minimum(np.searchsorted(keys, products), len(keys) - 1)
    assert np.array_equal(keys[table], products), "product not in the group"
    table.flags.writeable = False
    return table


def _tree(rows, gens) -> dict:
    """{x: (i, y)} with x = gens[i]∘y over the group gens generate, for rows
    the lists of _table; breadth first from the identity 0 (entry None)."""
    tree, queue = {0: None}, [0]
    for y in queue:
        for i, g in enumerate(gens):
            x = rows[g][y]
            if x not in tree:
                tree[x] = (i, y)
                queue.append(x)
    return tree


class SectorPlan(NamedTuple):
    """G's first spanning pair in group order, as indices of label_group.

    tree[x] is (i, y) with x = pair[i]∘y, or None at the identity.
    """

    pair: tuple
    tree: tuple


@lru_cache(maxsize=None)
def sector_plan(kind: PolyhedronKind) -> SectorPlan:
    """G's first spanning pair and the tree that composes G from it."""
    rows = _table(kind).tolist()
    pair = next((a, b) for a in range(1, len(rows)) for b in range(len(rows))
                if len(_tree(rows, (a, b))) == len(rows))
    return SectorPlan(pair, tuple(map(_tree(rows, pair).get,
                                      range(len(rows)))))


@lru_cache(maxsize=None)
def _irreps(kind: PolyhedronKind) -> tuple:
    """Every real irreducible representation of label_group, once each.

    Each is a read-only (|G|, d, d) array of orthogonal matrices with
    rho[table[a, b]] = rho[a] @ rho[b].  A random symmetric element
    Z = sum_g c_g (P_g + P_g^T) of the right group algebra (P_g e_h = e_{h∘g})
    commutes with the left regular representation R (R_x e_h = e_{x∘h}), so
    each of its eigenspaces Q is, for a generic c, one irreducible copy of
    dimension its multiplicity, and rho[x] = Q^T R_x Q.  One eigenspace is kept
    per character.  Every irrep of these four groups is real, so this finds
    them all: their dimensions squared sum to |G|.  Ordered by dimension,
    then by character, largest first; the trivial representation leads.
    """
    table = _table(kind)
    order = len(table)
    Z = np.zeros((order, order))
    Z[table, np.arange(order)[:, None]] = \
        np.random.default_rng(0).standard_normal(order)
    values, vectors = dla.eigh(Z + Z.T)
    starts = np.r_[0, np.flatnonzero(
        np.diff(values) > 1e-8 * np.abs(values).max()) + 1]
    # a character is constant on conjugacy classes, so it is read at each
    # class's first element: the trace of R_x on eigenspace Q is
    # sum_h Q[x∘h] . Q[h]
    inverse = np.argmin(table, axis=1)      # row a holds 0 at a^-1
    first = np.unique(table[inverse[:, None], table.T].min(axis=0))
    traces = np.array([np.einsum("hk,hk->k", vectors[row], vectors)
                       for row in table[first]])
    found = {}
    for character, a, b in zip(np.add.reduceat(traces, starts, axis=1).T,
                                starts, np.r_[starts[1:], order]):
        found.setdefault(tuple(character.round(6)), vectors.T[a:b])
    irreps = []
    for _, Q in sorted(found.items(), key=lambda item: (
            len(item[1]), [-x for x in item[0]])):
        # rho[x] = Q^T R_x Q, entry [a, b] = sum_h Q[x∘h, a] Q[h, b]
        rho = Q[:, table].transpose(1, 0, 2) @ Q.T
        rho.flags.writeable = False
        irreps.append(rho)
    assert sum(len(rho[0]) ** 2 for rho in irreps) == order, \
        "an irreducible representation was missed"
    return tuple(irreps)


def dof_permutation(mesh: SurfaceMesh, sigma) -> np.ndarray:
    """The DOF permutation p of one label permutation: p[d] is d's image.

    face_grid lists a face's grid points by integer weights on its corners.
    A point's image carries the same weights on the image face's corners
    whose labels are the images of those corners' labels.
    """
    net = mesh.net
    face_of = {frozenset(f.labels): f for f in net.faces}
    images = []
    for f in net.faces:
        image = face_of[frozenset(sigma[x] for x in f.labels)]
        images.append([image.corners[image.labels.index(sigma[x])]
                       for x in f.labels])
    # the grid points of every face, then of every face's image
    grid = face_grid([f.corners for f in net.faces] + images, mesh.resolution)
    a, b = mesh.dof_of[grid_index(mesh.planar_lattice, grid)].reshape(2, -1)
    perm = np.empty(mesh.dof_count, dtype=np.int64)
    perm[a] = b
    assert np.array_equal(perm[a], b), "label permutation splits a DOF"
    assert np.array_equal(np.sort(perm), np.arange(mesh.dof_count)), \
        "label permutation does not permute the DOFs"
    return perm


def _action(mesh: SurfaceMesh):
    """x -> dof_permutation(mesh, label_group[x]), composed along the plan."""
    plan, group = sector_plan(mesh.net.kind), label_group(mesh.net.kind)
    gens = [dof_permutation(mesh, group[g]) for g in plan.pair]

    def perm(x):        # uncached: no intermediate stays on the heap
        if plan.tree[x] is None:
            return np.arange(mesh.dof_count)
        i, y = plan.tree[x]
        return gens[i][perm(y)]

    return perm


def _conjugation(A, perm):
    """P A P^T's pattern, with data indexing A.data, for CSR A and perm's P.

    Entry (i, j) of A moves to (perm[i], perm[j]): one gather of the rows,
    the column indices mapped through perm, and each row sorted.  Every
    matrix with A's pattern shares the result.
    """
    index = sparse.csr_matrix((np.arange(A.nnz), A.indices, A.indptr),
                              shape=A.shape)[np.argsort(perm)]
    index.indices[:] = perm[index.indices]
    index.has_sorted_indices = False
    index.sort_indices()
    return index


def _invariant(A, index) -> bool:
    """is_invariant of CSR A, given its _conjugation index."""
    moved = A.data[index.data]
    if (np.array_equal(index.indptr, A.indptr)
            and np.array_equal(index.indices, A.indices)):
        diff = np.abs(moved - A.data).max(initial=0.0)
    else:
        diff = abs(sparse.csr_matrix((moved, index.indices, index.indptr),
                                     shape=A.shape) - A).max()
    return bool(diff <= INVARIANCE_TOL * np.abs(A.data).max(initial=0.0))


def is_invariant(A, perm) -> bool:
    """||P A P^T - A||_max <= INVARIANCE_TOL * ||A||_max for perm's P."""
    A = sparse.csr_matrix(A)
    return _invariant(A, _conjugation(A, perm))


class Sector(NamedTuple):
    """The pencil of the first row of one irrep rho, and its lift.

    irrep indexes _irreps, and rho is that (|G|, d, d) array.  The sector's
    vectors are the vectors whose value at DOF images[x, o], the image under
    element x of orbit o's smallest DOF, is e_1^T rho[x] w_o, for w_o in the
    span of rho's vectors fixed by o's stabilizer; U maps a sector vector c
    onto the d-vectors w = (U c).reshape(orbits, d) that it stands for.
    """

    irrep: int
    rho: np.ndarray
    U: sparse.csr_matrix
    images: np.ndarray
    K: sparse.csr_matrix
    M: sparse.csr_matrix

    def partners(self, c) -> np.ndarray:
        """The d partner vectors of sector vector c, an (|G|, orbits, d) array.

        Entry [x, o, j] is partner j's value at DOF images[x, o]:
        e_j^T rho[x] w_o.  Partner 0 is c's own vector.  For a pair of the
        sector pencil the d partners are pairs of the whole pencil with the
        same value, M-orthogonal to each other and of equal M-norm (Schur).
        """
        w = (self.U @ c).reshape(-1, self.rho.shape[1])
        return w @ self.rho.transpose(0, 2, 1)


def _fixed(rho, stabilizer) -> np.ndarray:
    """A d-by-d matrix: an orthonormal basis of the vectors that every
    rho[stabilizer] fixes, in its leading columns, and zeros after them."""
    if stabilizer.sum() == 1:           # exact, and as sparse as it can be
        return np.eye(rho.shape[1])
    # the mean over the stabilizer projects onto its fixed vectors
    values, vectors = dla.eigh(rho[stabilizer].mean(axis=0))
    return vectors[:, ::-1] * (values[::-1] > 0.5)


class _Blocks(NamedTuple):
    """An invariant matrix's rows at the orbits' smallest DOFs, as blocks.

    Entry A[x0(o), z] with z = images[h, o'] and o <= o' is h and value
    |O_o| A[x0(o), z], sorted by (o, o'); block i, at (rows[i], cols[i]),
    sums the entries from starts[i] on.  The blocks above the diagonal, at
    above, are also transposed below it; order sorts all of them by row and
    column, for BSR indices and indptr.
    """

    h: np.ndarray
    value: np.ndarray
    starts: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    above: np.ndarray
    order: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray


def _blocks(rows, orbit_of, carrier, size) -> _Blocks:
    """_Blocks of the COO rows A[first], given each DOF's orbit and carrier
    and the orbit sizes."""
    o, p = rows.row, orbit_of[rows.col]
    entries = np.flatnonzero(o <= p)
    entries = entries[np.lexsort((p[entries], o[entries]))]
    o, p = o[entries], p[entries]
    starts = np.flatnonzero(np.diff(o, prepend=-1) | np.diff(p, prepend=-1))
    o, p = o[starts], p[starts]
    above = np.flatnonzero(o < p)
    all_rows, all_cols = np.r_[o, p[above]], np.r_[p, o[above]]
    order = np.lexsort((all_cols, all_rows))
    return _Blocks(carrier[rows.col[entries]],
                   (rows.data * size[rows.row])[entries], starts, o, p, above,
                   order, all_cols[order],
                   np.searchsorted(all_rows[order], np.arange(len(size) + 1)))


def split(K, M):
    """One sector pencil per irrep of G [Sector], or None to solve (K, M) whole.

    Only a K that assemble returned carries its mesh; any other matrix (a
    copy, a test matrix) has none.  The sectors are returned, one per irrep
    in the order of _irreps and possibly empty, only if K and M are
    invariant under both of sector_plan's pair, hence under all of G; this
    also rejects data edited in place.  A pencil invariant under a proper
    subgroup only is solved whole.

    The G-orbits of DOFs are the connected components of the pair's two
    permutations.  For an invariant A, the row of any DOF is the row of its
    orbit's smallest DOF x0, moved, so each sector pencil is read off those
    rows alone: its (o, o') block is (|O_o| / d) sum_z A[x0(o), z] U_o^T
    rho[h] U_o' over the z = images[h, o'], U_o the basis of the vectors
    fixed by o's stabilizer.  Only the blocks with o <= o' are read; those
    below the diagonal are the transposes of those above, and those on it
    are averaged with their own, so each pencil is exactly symmetric.  A
    d-by-d block per entry of those rows makes larger irreps' sectors denser.
    """
    mesh = getattr(K, "_mesh", None)
    n = K.shape[0]
    if (not isinstance(mesh, SurfaceMesh) or mesh.dof_count != n
            or not sparse.issparse(M) or M.shape != K.shape):
        return None
    K, M = K.tocsr(), M.tocsr()
    kind = mesh.net.kind
    plan = sector_plan(kind)
    perm = _action(mesh)
    gens = [perm(g) for g in plan.pair]
    shared = (np.array_equal(K.indptr, M.indptr)
              and np.array_equal(K.indices, M.indices))
    for g in gens:
        index = _conjugation(K, g)
        if not (_invariant(K, index) and _invariant(
                M, index if shared else _conjugation(M, g))):
            return None
    edges = sparse.csr_matrix((np.ones(2 * n), np.column_stack(gens).ravel(),
                               np.arange(0, 2 * n + 1, 2)), shape=(n, n))
    label = csgraph.connected_components(edges, directed=False)[1]
    first = np.full(label.max() + 1, n)
    np.minimum.at(first, label, np.arange(n))
    first.sort()
    orbits = len(first)
    reached = {0: first}

    def image(x):                       # of first, along the tree
        if x not in reached:
            i, y = plan.tree[x]
            reached[x] = gens[i][image(y)]
        return reached[x]

    images = np.array([image(x) for x in range(len(plan.tree))])
    # each DOF's orbit, and an element that takes the orbit's smallest DOF
    # to it: of several (a stabilizer), the last written, which moves only
    # rounding
    owner = np.empty(n, dtype=np.int64)
    owner[images.ravel()] = np.arange(images.size)
    carrier, orbit_of = np.divmod(owner, orbits)
    fixes = images == first             # [x, o]: x is in o's stabilizer
    _, lead, kind_of = np.unique(np.packbits(fixes, axis=0).T, axis=0,
                                 return_index=True, return_inverse=True)
    stabilizer = fixes.sum(axis=0)
    free, size = stabilizer == 1, len(images) / stabilizer     # size: |O_o|
    blocks = [_blocks(A[first].tocoo(), orbit_of, carrier, size)
              for A in (K, M)]
    sectors = []
    for irrep, rho in enumerate(_irreps(kind)):
        d = rho.shape[1]
        bases = np.array([_fixed(rho, fixes[:, o]) for o in lead])[kind_of]
        keep = np.flatnonzero(bases.any(axis=1))    # slots o d + column
        pencil = []
        for b in blocks:
            data = np.add.reduceat((b.value / d)[:, None, None] * rho[b.h],
                                   b.starts)
            o, p = b.rows, b.cols
            k = np.flatnonzero(~(free[o] & free[p]))
            data[k] = bases[o[k]].transpose(0, 2, 1) @ data[k] @ bases[p[k]]
            on = np.flatnonzero(o == p)
            data[on] = 0.5 * (data[on] + data[on].transpose(0, 2, 1))
            data = np.concatenate([data, data[b.above].transpose(0, 2, 1)])
            A = sparse.bsr_matrix((data[b.order], b.indices, b.indptr),
                                  shape=(orbits * d,) * 2)
            pencil.append(A.tocsr()[keep][:, keep])
        U = sparse.bsr_matrix((bases, np.arange(orbits),
                               np.arange(orbits + 1))).tocsr()[:, keep]
        sectors.append(Sector(irrep, rho, U, images, *pencil))
    return sectors
