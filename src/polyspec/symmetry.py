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
product table of G; _irreps gives the matrices of every rho, taken in the
eigenbasis of the two commuting mirrors whose walls K's rows cross most, so
that both walls couple rho's d copies of an orbit diagonally (_wall_basis).
"""

from __future__ import annotations

import concurrent.futures
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
def _irreps(kind: PolyhedronKind, walls=None) -> tuple:
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
    rho[0] is exactly the identity matrix, not Q^T Q, so that the blocks
    that split reads through the identity are exactly diagonal.  Given walls
    (a, b), each rho with d >= 2 is taken in _wall_basis instead (cached).
    """
    if walls is not None:
        return tuple(_wall_basis(rho, *walls) for rho in _irreps(kind))
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
        rho[0] = np.eye(len(Q))
        rho.flags.writeable = False
        irreps.append(rho)
    assert sum(len(rho[0]) ** 2 for rho in irreps) == order, \
        "an irreducible representation was missed"
    return tuple(irreps)


def _wall_basis(rho, a, b) -> np.ndarray:
    """Q^T rho Q for Q the joint eigenbasis of commuting involutions rho[a]
    and rho[b], read-only: each entry within 1e-12 of an integer is set to
    it, so rho[a] and rho[b] are diagonal +-1 and rho[0] the identity."""
    if rho.shape[1] == 1:
        return rho
    # one eigenvalue of rho[a] + pi rho[b] per pair of signs
    Q = dla.eigh(rho[a] + np.pi * rho[b])[1]
    rho = Q.T @ rho @ Q
    near = np.abs(rho - rho.round())
    assert not np.any((near > 1e-12) & (near < 1e-3)), "not a wall basis"
    np.copyto(rho, rho.round(), where=near <= 1e-12)
    rho.flags.writeable = False
    return rho


def dof_permutation(mesh: SurfaceMesh, sigma, dofs=None) -> np.ndarray:
    """The DOF permutation p of one label permutation: p[d] is d's image.

    A point's image carries its face_grid weights on the image face g's
    corners that hold the images of its corners' labels; face_grid, given
    those corners' (u, v) in g's frame, lists it at (u, v), which is place
    u(r+1) - u(u-1)/2 + v of dofs[g] (_face_dofs) or u(r+1) + v on a square.
    """
    net, r = mesh.net, mesh.resolution
    dofs = _face_dofs(mesh) if dofs is None else dofs
    square = net.faces[0].n_sides == 4
    frame = np.array([(0, 0), (1, 0), (1, 1), (0, 1)] if square
                     else [(0, 0), (1, 0), (0, 1)])
    face_of = {frozenset(f.labels): f for f in net.faces}
    images = [face_of[frozenset(sigma[x] for x in f.labels)]
              for f in net.faces]
    u, v = np.moveaxis(face_grid(
        [frame[[g.labels.index(sigma[x]) for x in f.labels]]
         for f, g in zip(net.faces, images)], r), -1, 0)
    place = u * (r + 1) + v - (0 if square else u * (u - 1) // 2)
    moved = dofs[[[g.index] for g in images], place]
    perm = np.empty(mesh.dof_count, dtype=np.int64)
    perm[dofs] = moved
    assert np.array_equal(perm[dofs], moved), "label permutation splits a DOF"
    hit = np.zeros(mesh.dof_count, dtype=bool)
    hit[perm] = True
    assert hit.all(), "label permutation does not permute the DOFs"
    return perm


def _face_dofs(mesh: SurfaceMesh) -> np.ndarray:
    """(faces, points): each face's grid DOFs, in face_grid's order."""
    return mesh.dof_of[grid_index(mesh.planar_lattice, face_grid(
        [f.corners for f in mesh.net.faces], mesh.resolution))]


def _action(mesh: SurfaceMesh):
    """x -> dof_permutation(mesh, label_group[x]), composed along the plan."""
    plan, group = sector_plan(mesh.net.kind), label_group(mesh.net.kind)
    dofs = _face_dofs(mesh)
    gens = [dof_permutation(mesh, group[g], dofs) for g in plan.pair]

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
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(len(perm))
    index = sparse.csr_matrix((np.arange(A.nnz), A.indices, A.indptr),
                              shape=A.shape)[inverse]
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
    owner[z] is the last index of images.ravel() that holds DOF z; every
    sector shares images and owner.
    """

    irrep: int
    rho: np.ndarray
    U: sparse.csr_matrix
    images: np.ndarray
    owner: np.ndarray
    K: sparse.csr_matrix
    M: sparse.csr_matrix

    def partner(self, c, j, out=None) -> np.ndarray:
        """Partner j of sector vector c, a vector on every DOF (into out).

        Its value at DOF images[x, o] is e_j^T rho[x] w_o, taken at owner.
        Partner 0 is c's own vector.  For a pair of the sector pencil the d
        partners are pairs of the whole pencil with the same value,
        M-orthogonal to each other and of equal M-norm (Schur).
        """
        w = (self.U @ c).reshape(-1, self.rho.shape[1])
        values = self.rho[:, j] @ w.T                       # [x, o]
        # "clip" writes into out directly, where "raise" would buffer a copy
        return np.take(values.reshape(-1), self.owner, out=out, mode="clip")


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


def _invariant_pencil(K, M, gens) -> bool:
    """Whether CSR K and M are invariant under each permutation of gens."""
    shared = (np.array_equal(K.indptr, M.indptr)
              and np.array_equal(K.indices, M.indices))
    for g in gens:
        index = _conjugation(K, g)
        if not (_invariant(K, index) and _invariant(
                M, index if shared else _conjugation(M, g))):
            return False
    return True


def split(K, M, cpus=None):
    """One sector pencil per irrep of G [Sector], or None to solve (K, M) whole.

    Only a K that assemble returned carries its mesh; any other matrix (a
    copy, a test matrix) has none.  The sectors are returned, one per irrep
    in the order of _irreps and possibly empty, only if K and M are
    invariant under both of sector_plan's pair, hence under all of G; this
    also rejects data edited in place.  A pencil invariant under a proper
    subgroup only is solved whole.  cpus, if given, maps the sizes of the
    nonempty sectors to the CPUs their solve may use; with two or more, the
    float check runs on a thread of its own while the pencils are built.

    The G-orbits of DOFs are the connected components of the pair's two
    permutations.  For an invariant A, the row of any DOF is the row of its
    orbit's smallest DOF x0, moved, so each sector pencil is read off those
    rows alone: its (o, o') block is (|O_o| / d) sum_z A[x0(o), z] U_o^T
    rho[h] U_o' over the z = images[h, o'], U_o the basis of the vectors
    fixed by o's stabilizer.  Only the blocks with o <= o' are read; those
    below the diagonal are the transposes of those above, and those on it
    are averaged with their own, so each pencil is exactly symmetric.  A
    d-by-d block per entry of those rows makes larger irreps' sectors
    denser; a block through the identity between free orbits (U_o = I) is
    diagonal, and its exact zeros are dropped; so is one through either of
    walls, the commuting involutions through which K's rows reach the most
    entries (ties to the smallest), in whose eigenbasis rho is taken.
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
    rows = K[first].tocoo()
    table = _table(kind)
    count = np.bincount(carrier[rows.col], minlength=len(table))
    count[0] = 0
    mirrors = np.flatnonzero((table.diagonal() == 0) & (count > 0)).tolist()
    walls = max(((a, b) for a in mirrors for b in mirrors
                 if a < b and table[a, b] == table[b, a]),
                key=lambda w: count[list(w)].sum(), default=None)
    irreps = _irreps(kind, walls)
    bases = [np.array([_fixed(rho, fixes[:, o]) for o in lead])[kind_of]
             for rho in irreps]
    keeps = [np.flatnonzero(b.any(axis=1)) for b in bases]  # slots o d + col

    def build():
        blocks = [_blocks(A, orbit_of, carrier, size)
                  for A in (rows, M[first].tocoo())]
        sectors = []
        for irrep, (rho, basis, keep) in enumerate(zip(irreps, bases, keeps)):
            d = rho.shape[1]
            pencil = []
            for b in blocks:
                data = np.add.reduceat(
                    (b.value / d)[:, None, None] * rho[b.h], b.starts)
                o, p = b.rows, b.cols
                k = np.flatnonzero(~(free[o] & free[p]))
                data[k] = (basis[o[k]].transpose(0, 2, 1) @ data[k]
                           @ basis[p[k]])
                on = np.flatnonzero(o == p)
                data[on] = 0.5 * (data[on] + data[on].transpose(0, 2, 1))
                data = np.concatenate([data, data[b.above].transpose(0, 2, 1)])
                A = sparse.bsr_matrix((data[b.order], b.indices, b.indptr),
                                      shape=(orbits * d,) * 2).tocsr()
                A.eliminate_zeros()
                pencil.append(A[keep][:, keep])
            U = sparse.bsr_matrix((basis, np.arange(orbits),
                                   np.arange(orbits + 1))).tocsr()[:, keep]
            sectors.append(Sector(irrep, rho, U, images, owner, *pencil))
        return sectors

    if cpus is None or cpus([len(k) for k in keeps if len(k)]) < 2:
        return build() if _invariant_pencil(K, M, gens) else None
    with concurrent.futures.ThreadPoolExecutor(1) as beside:
        invariant = beside.submit(_invariant_pencil, K, M, gens)
        sectors = build()
        return sectors if invariant.result() else None
