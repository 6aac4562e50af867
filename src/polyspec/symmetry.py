"""Symmetry sectors of the P1 pencil on a refined net.

Every isometry of a regular polyhedron permutes its vertices, so it acts on
the vertex labels of the net tables.  The label permutations that map the
net's faces onto faces map the refined grid onto itself, hence permute its
degrees of freedom.  They map elements onto elements too, so that K and M
commute with them, on the triangle kinds at every resolution and on the cube
at even resolution (see mesh._element_template); at odd resolution split
finds the cube's pencil not invariant, and it is solved whole.  An elementary
abelian 2-subgroup H of them has 2^k sign characters, and the DOF space
splits M- and K-orthogonally into one invariant sector per character
(Bossavit, CMAME 56, 1986; Fassler & Stiefel, Group Theoretical Methods and
Their Applications, 1992).  Each sector has a basis B of +-1 columns, one per
H-orbit of DOFs whose stabilizer the character is trivial on, so the pencil
splits into the 2^k independent pencils (B^T K B, B^T M B).

The normalizer N of H permutes its characters: an element n of N carries
sector chi onto sector h -> chi(n^-1 h n).  Sectors in one N-orbit of
characters therefore have the same spectrum, and the eigenvectors of one are
those of the orbit's representative, moved by n's DOF permutation.  split
returns the representatives only, each with the permutations onto its
conjugates.  It checks K and M under two generators of the label group G;
sector_plan reads these, H and N's orbits off one product table of G.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy.sparse as sparse

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


def _scan(rows, elements) -> tuple:
    """The involutions taken in order from elements: each that commutes with
    those already taken and lies outside their span."""
    gens, span = (), {0}
    for g in elements:
        if (g not in span and rows[g][g] == 0
                and all(rows[g][h] == rows[h][g] for h in gens)):
            gens += (g,)
            span |= {rows[g][h] for h in span}
    return gens


class SectorPlan(NamedTuple):
    """What split needs of label_group, each element as its index there.

    pair is G's first spanning pair in group order; tree[x] is (i, y) with
    x = pair[i]∘y, or None at the identity.  sector_gens generate H.  orbits
    holds the orbits of H's characters under the normalizer N of H, each led
    by its smallest character, its representative, and in order of those;
    conjugators[c] is an element of N that carries the sector of c's
    representative onto sector c (the identity for a representative).
    Characters are numbered as in sector_bases.
    """

    pair: tuple
    tree: tuple
    sector_gens: tuple
    orbits: tuple
    conjugators: tuple


@lru_cache(maxsize=None)
def sector_plan(kind: PolyhedronKind) -> SectorPlan:
    """G's spanning pair, the sector group H and N's orbits on its characters.

    H is a largest elementary abelian 2-subgroup of G.  One scan in group order
    takes each involution that commutes with those already taken and lies
    outside their span; on the four label groups this reaches the largest rank:
    2 on the tetrahedron, 3 on the others.  A normal H is made of involutions
    that commute with all their conjugates n^-1 g n; if these form a group of
    that rank, hence a normal one, the same scan over them gives H instead, so
    that all of G permutes the sectors.  That is the Klein group of the
    tetrahedron's double transpositions and the three coordinate reflections of
    the octahedron (which the scan finds already) and the cube: N = G, with
    orbit sizes 1, 3 and 1, 3, 3, 1, so 2 of 4 and 4 of 8 sectors are solved.
    The icosahedron's only normal one is the central inversion, so it keeps the
    scan's H of rank 3; its N has order 24, with orbit sizes 1, 3, 3, 1.  split
    checks and composes along G's pair, not generators of N.
    """
    table = _table(kind)
    rows, order = table.tolist(), len(table)
    pair = next((a, b) for a in range(1, order) for b in range(order)
                if len(_tree(rows, (a, b))) == order)
    inverse = np.argmin(table, axis=1)      # row a holds 0 at a^-1
    conj = table[inverse[:, None], table.T]     # [n, g] is n^-1 g n
    ids = np.arange(order)      # commutes[g]: g commutes with each n^-1 g n
    commutes = (table[ids, conj] == table[conj, ids]).all(axis=0)
    normal = np.flatnonzero((table[ids, ids] == 0) & commutes).tolist()
    gens = _scan(rows, range(order))
    # closed under composition, involutions form an elementary abelian group
    if len(_tree(rows, normal)) == len(normal) == 2 ** len(gens):
        gens = _scan(rows, normal)
    bit = {0: 0}                        # element of H: the gens it composes
    for i, g in enumerate(gens):
        bit.update({rows[g][h]: b | 1 << i for h, b in bit.items()})
    # masks[n][i] is the bitmask of n^-1 g_i n, None outside H
    masks = [[bit.get(x) for x in row] for row in conj[:, list(gens)].tolist()]
    orbits, conjugators = [], [None] * len(bit)
    for c in range(len(bit)):
        if conjugators[c] is None:
            orbit = {}
            # n is in N when each n^-1 g_i n is in H; it carries chi_c onto
            # h -> chi_c(n^-1 h n), whose bit i is chi_c's sign on n^-1 g_i n
            for n, bits in enumerate(masks):    # the identity first
                if None not in bits:
                    orbit.setdefault(sum(((b & c).bit_count() & 1) << i
                                         for i, b in enumerate(bits)), n)
            orbits.append(tuple(orbit))
            conjugators = [orbit.get(d, n) for d, n in enumerate(conjugators)]
    return SectorPlan(pair, tuple(map(_tree(rows, pair).get, range(order))),
                      gens, tuple(orbits), tuple(conjugators))


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


def sector_bases(perms, n: int, characters) -> list:
    """One sparse n-by-n_chi basis per listed character, in that order.

    The characters are those of the group perms generate: character c takes
    the value (-1)^popcount(b & c) on the element that composes the
    generators in bitmask b.  Its basis has one column per orbit (ordered by
    smallest DOF) whose stabilizer c is trivial on; the column is +-1 on the
    orbit, with sign c(h) at h(smallest DOF).  Over all 2^len(perms)
    characters the column counts sum to n.
    """
    images = [np.arange(n)]
    for g in perms:
        images += [g[h] for h in images]
    images = np.array(images)                          # (|H|, n)
    rep = images.min(axis=0)
    orbit, col_of_rep = np.unique(rep, return_inverse=True)
    carrier = (images[:, rep] == np.arange(n)).argmax(axis=0)
    stabilizes = images[:, orbit] == orbit             # (|H|, orbits)
    bases = []
    for c in characters:
        odd = np.array([bin(b & c).count("1") % 2
                        for b in range(len(images))], dtype=bool)
        sign = np.where(odd, -1.0, 1.0)
        kept = ~(stabilizes & odd[:, None]).any(axis=0)
        column = np.cumsum(kept) - 1
        rows = np.flatnonzero(kept[col_of_rep])
        bases.append(sparse.csr_matrix(
            (sign[carrier[rows]], (rows, column[col_of_rep[rows]])),
            shape=(n, int(kept.sum()))))
    return bases


def _project(A, first, sizes, B):
    """B^T A B for an A invariant under the group, read off few rows of A.

    Column o of B is +-1 on orbit o and +1 at the orbit's smallest DOF,
    first[o].  For an invariant A, every row of A B on orbit o is that DOF's
    row times its sign, so B^T A B = diag(sizes) (A B)[first]; the mean with
    its transpose keeps the result exactly symmetric.
    """
    rows = A[first]
    rows.data *= np.repeat(sizes, np.diff(rows.indptr))
    S = rows @ B
    S = S + S.T
    S.data *= 0.5
    return S


class Sector(NamedTuple):
    """One representative sector and the DOF permutations onto its conjugates.

    A pair (lambda, y) of the sector pencil (K, M) lifts to v = basis @ y;
    its copy in the sector that perm (an entry of copies) leads to is the w
    with w[perm] = v.
    """

    character: int
    basis: sparse.csr_matrix
    K: sparse.csr_matrix
    M: sparse.csr_matrix
    copies: tuple


def split(K, M):
    """Representative sector pencils [Sector], or None to solve (K, M) whole.

    Only a K that assemble returned carries its mesh; any other matrix (a
    copy, a test matrix) has none.  The sectors are returned, one per orbit
    of conjugate characters and possibly empty, only if K and M are
    invariant under both of sector_plan's pair, hence under all of G, which
    contains H and every conjugator; this also rejects data edited in
    place.  A pencil invariant under N but not G is solved whole.
    """
    mesh = getattr(K, "_mesh", None)
    n = K.shape[0]
    if (not isinstance(mesh, SurfaceMesh) or mesh.dof_count != n
            or not sparse.issparse(M) or M.shape != K.shape):
        return None
    K, M = K.tocsr(), M.tocsr()
    plan = sector_plan(mesh.net.kind)
    perm = _action(mesh)
    shared = (np.array_equal(K.indptr, M.indptr)
              and np.array_equal(K.indices, M.indices))
    for g in plan.pair:
        index = _conjugation(K, perm(g))
        if not (_invariant(K, index) and _invariant(
                M, index if shared else _conjugation(M, perm(g)))):
            return None
    bases = sector_bases([perm(g) for g in plan.sector_gens], n,
                         [orbit[0] for orbit in plan.orbits])
    sectors = []
    for orbit, B in zip(plan.orbits, bases):
        C = B.tocsc()
        first, sizes = C.indices[C.indptr[:-1]], np.diff(C.indptr)
        copies = tuple(perm(plan.conjugators[c]) for c in orbit[1:])
        sectors.append(Sector(orbit[0], B, _project(K, first, sizes, B),
                              _project(M, first, sizes, B), copies))
    return sectors
