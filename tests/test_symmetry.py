import hashlib
import itertools

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

import polyspec as ps
from polyspec import PolyhedronKind
from polyspec import symmetry as sym
from polyspec.mesh import face_grid, grid_index

from conftest import CLUSTER_GAP, KINDS, span_distance

# (order of the label group, number of its irreducible representations,
# each of which split gives one sector)
GROUPS = {
    PolyhedronKind.TETRAHEDRON: (24, 5),
    PolyhedronKind.OCTAHEDRON: (48, 10),
    PolyhedronKind.ICOSAHEDRON: (120, 10),
    PolyhedronKind.CUBE: (48, 10),
}


def compose(a, b):
    return tuple(a[x] for x in b)


def elements(kind, indices):
    """The label permutations at indices of label_group."""
    return tuple(sym.label_group(kind)[x] for x in indices)


def group_generators(kind):
    return elements(kind, sym.sector_plan(kind).pair)


def conjugated(A, perm):
    """P A P^T for the permutation matrix P that sends d to perm[d]."""
    inv = np.argsort(perm)
    return A[inv][:, inv]


@pytest.mark.parametrize("kind", KINDS)
def test_group_orders_and_sector_counts(kind):
    order, sectors = GROUPS[kind]
    group = sym.label_group(kind)
    assert len(group) == order == len(set(group))
    identity = tuple(range(len(group[0])))
    assert identity in group
    assert all(compose(g, h) in group for g in group for h in group)
    irreps = sym._irreps(kind)
    assert len(irreps) == sectors
    assert sum(rho.shape[1] ** 2 for rho in irreps) == order


@pytest.mark.parametrize("kind", KINDS)
def test_irreps_are_orthogonal_and_irreducible(kind):
    table = sym._table(kind)
    order = len(table)
    irreps = sym._irreps(kind)
    assert sym._irreps(kind) is irreps
    for rho in irreps:
        d = rho.shape[1]
        assert rho.shape == (order, d, d) and not rho.flags.writeable
        assert np.abs(rho @ rho.transpose(0, 2, 1) - np.eye(d)).max() < 1e-13
        # a homomorphism through the product table: rho[a∘b] = rho[a] rho[b]
        assert np.abs(rho[table] - rho[:, None] @ rho[None, :]).max() < 1e-13
    # the characters are orthonormal, so each irrep is irreducible and no
    # two are equivalent; with the dimensions squared summing to the order,
    # every irrep is there
    chi = np.array([np.trace(rho, axis1=1, axis2=2) for rho in irreps])
    assert np.abs(chi @ chi.T / order - np.eye(len(irreps))).max() < 1e-12


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("r", [16, 32])
def test_sector_pencils_are_exactly_sparse(kind, r, bench):
    # rho(identity) is the identity matrix itself, so every block read
    # through the identity between free orbits is exactly diagonal, and
    # split stores none of its zeros.  With them, the sectors held 0.67 to
    # 0.87 times nnz(K) at these points
    for rho in sym._irreps(kind):
        assert np.array_equal(rho[0], np.eye(rho.shape[1]))
    K, M = bench.matrices(kind, r)
    sectors = sym.split(K, M)
    for s in sectors:
        assert np.all(s.K.data != 0) and np.all(s.M.data != 0)
    assert sum(s.K.nnz for s in sectors) <= 0.5 * K.nnz


# the commuting pair of involutions through which the orbits' representative
# rows of K reach the most entries, at every r >= 6 (the cube at even r):
# the irreps with d >= 2 are built in its joint eigenbasis
WALLS = {
    PolyhedronKind.TETRAHEDRON: (5, 14),
    PolyhedronKind.OCTAHEDRON: (4, 18),
    PolyhedronKind.ICOSAHEDRON: (4, 22),
    PolyhedronKind.CUBE: (5, 14),
}
# sum of nnz(L + U) over the sector factors at r=32 in the basis of _irreps
# alone, which the wall basis cuts by 25% to 39%
IRREP_BASIS_FILL = {
    PolyhedronKind.TETRAHEDRON: 22454,
    PolyhedronKind.OCTAHEDRON: 44790,
    PolyhedronKind.ICOSAHEDRON: 109578,
    PolyhedronKind.CUBE: 86484,
}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("r", [8, 32])
def test_split_builds_the_irreps_at_the_listed_walls(kind, r, bench):
    a, b = WALLS[kind]
    table = sym._table(kind)
    assert table[a, a] == table[b, b] == 0 and table[a, b] == table[b, a]
    walled = sym._irreps(kind, (a, b))
    assert sym._irreps(kind, (a, b)) is walled
    K, M = bench.matrices(kind, r)
    for s in sym.split(K, M):
        assert s.rho is walled[s.irrep]


@pytest.mark.parametrize("kind", KINDS)
def test_wall_basis_is_diagonal_at_the_walls(kind):
    a, b = WALLS[kind]
    table = sym._table(kind)
    for rho, plain in zip(sym._irreps(kind, (a, b)), sym._irreps(kind)):
        d = rho.shape[1]
        assert rho.shape == plain.shape and not rho.flags.writeable
        if d == 1:
            assert rho is plain
            continue
        # exactly diagonal, with entries exactly +-1
        assert np.array_equal(np.abs(rho[a]), np.eye(d))
        assert np.array_equal(np.abs(rho[b]), np.eye(d))
        assert np.array_equal(rho[0], np.eye(d))
        assert np.abs(rho @ rho.transpose(0, 2, 1) - np.eye(d)).max() < 1e-13
        assert np.abs(rho[table] - rho[:, None] @ rho[None, :]).max() < 1e-13
        assert np.abs(np.trace(rho, axis1=1, axis2=2)
                      - np.trace(plain, axis1=1, axis2=2)).max() < 1e-12


@pytest.mark.parametrize("kind", KINDS)
def test_wall_basis_cuts_the_factor_fill(kind, bench):
    # the factors that eigen._lowest makes of the sector pencils
    K, M = bench.matrices(kind, 32)
    fill = 0
    for s in sym.split(K, M):
        if s.K.shape[0]:
            lu = spla.splu(sparse.csc_matrix(s.K - ps.eigen._SHIFT * s.M),
                           permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                           options={"SymmetricMode": True})
            fill += lu.L.nnz + lu.U.nnz
    assert fill <= 0.8 * IRREP_BASIS_FILL[kind]


# an elementary abelian 2-subgroup H of each label group, which the fallback
# tests below average over: the tetrahedron's is the Klein group of double
# transpositions, the cube's the three coordinate reflections of its binary
# vertex labels
SECTOR_GENERATORS = {
    PolyhedronKind.TETRAHEDRON: ((1, 0, 3, 2), (2, 3, 0, 1)),
    PolyhedronKind.OCTAHEDRON: ((0, 1, 4, 3, 2, 5), (0, 3, 2, 1, 4, 5),
                                (5, 1, 2, 3, 4, 0)),
    PolyhedronKind.ICOSAHEDRON: ((0, 1, 5, 4, 3, 2, 10, 9, 8, 7, 6, 11),
                                 (1, 0, 2, 6, 10, 5, 3, 7, 11, 9, 4, 8),
                                 (8, 11, 7, 3, 4, 9, 6, 2, 0, 5, 10, 1)),
    PolyhedronKind.CUBE: ((1, 0, 3, 2, 5, 4, 7, 6), (2, 3, 0, 1, 6, 7, 4, 5),
                          (4, 5, 6, 7, 0, 1, 2, 3)),
}
# the first pair of each label group, in group order, that generates it; the
# DOF permutations of these two are the only ones split builds from the mesh
GROUP_GENERATORS = {
    PolyhedronKind.TETRAHEDRON: ((0, 1, 3, 2), (1, 2, 0, 3)),
    PolyhedronKind.OCTAHEDRON: ((0, 2, 1, 4, 3, 5), (1, 2, 5, 4, 0, 3)),
    PolyhedronKind.ICOSAHEDRON: ((0, 1, 5, 4, 3, 2, 10, 9, 8, 7, 6, 11),
                                 (1, 2, 0, 5, 10, 6, 3, 4, 9, 11, 7, 8)),
    PolyhedronKind.CUBE: ((0, 1, 4, 5, 2, 3, 6, 7), (1, 3, 0, 2, 5, 7, 4, 6)),
}


@pytest.mark.parametrize("kind", KINDS)
def test_product_table_matches_composition(kind):
    group = sym.label_group(kind)
    table = sym._table(kind)
    assert table.shape == (len(group), len(group))
    assert not table.flags.writeable
    for a, x in enumerate(group):
        for b, y in enumerate(group):
            assert group[table[a, b]] == compose(x, y)


def span(gens, identity):
    """The set of elements that gens generate, by closure under gens."""
    out, todo = {identity}, [identity]
    while todo:
        x = todo.pop()
        for g in gens:
            y = compose(g, x)
            if y not in out:
                out.add(y)
                todo.append(y)
    return out


@pytest.mark.parametrize("kind", [k for k in KINDS
                                  if k is not PolyhedronKind.ICOSAHEDRON])
def test_label_group_matches_brute_force(kind):
    # every label permutation, in lexicographic order, that maps faces onto
    # faces
    labels = [f.labels for f in ps.build_net(kind).faces]
    faces = {frozenset(f) for f in labels}
    count = 1 + max(max(f) for f in labels)
    want = tuple(s for s in itertools.permutations(range(count))
                 if all(frozenset(s[x] for x in f) in faces for f in faces))
    assert sym.label_group(kind) == want


def test_icosahedron_label_group_is_pinned():
    group = sym.label_group(PolyhedronKind.ICOSAHEDRON)
    assert hashlib.sha256(repr(group).encode()).hexdigest() == \
        "4afc409bd235d009b4b48174d8a829b5bd2c0076c6d17504867eee19120088d1"


@pytest.mark.parametrize("kind", KINDS)
def test_group_generators_are_the_first_spanning_pair(kind):
    gens = group_generators(kind)
    assert gens == GROUP_GENERATORS[kind]
    assert sym._table(kind) is sym._table(kind)
    group = sym.label_group(kind)
    identity = group[0]
    assert span(gens, identity) == set(group)
    a, b = (group.index(g) for g in gens)
    for i, x in enumerate(group[:a + 1]):
        for y in group[:b] if i == a else group:
            assert span((x, y), identity) != set(group), (x, y)
    # the tree leads every element to the identity along the pair
    plan = sym.sector_plan(kind)
    assert sym.sector_plan(kind) is plan
    assert len(plan.tree) == len(group) and plan.tree[0] is None
    for x, entry in enumerate(plan.tree[1:], 1):
        i, y = entry
        assert group[x] == compose(gens[i], group[y])


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("r", [1, 2, 3, 7])
def test_action_is_dof_permutation(kind, r, bench):
    # a permutation composed along the generators' tree is the same integer
    # array as the one built from the mesh
    mesh = bench.mesh(kind, r)
    action = sym._action(mesh)
    for x, sigma in enumerate(sym.label_group(kind)):
        want = sym.dof_permutation(mesh, sigma)
        got = action(x)
        assert got.dtype == want.dtype and np.array_equal(got, want)


# the cube mesh keeps its 48 symmetries at even resolution only
@pytest.mark.parametrize("r, kind", [
    (r, kind) for r in [1, 2, 3, 4, 7, 16] for kind in KINDS
    if (r in (2, 4, 16) if kind is PolyhedronKind.CUBE else r != 4)])
def test_pencil_is_invariant_under_every_group_element(kind, r, bench):
    mesh = bench.mesh(kind, r)
    K, M = bench.matrices(kind, r)
    for sigma in sym.label_group(kind):
        perm = sym.dof_permutation(mesh, sigma)
        for A in (K, M):
            moved = conjugated(A, perm)
            diff = abs(moved - A).max()
            assert diff <= 1e-12 * abs(A).max()
            assert sym.is_invariant(A, perm)
            if kind is PolyhedronKind.CUBE:
                # K's element terms are halves and M's entries sums of equal
                # terms, so no rounding depends on the summation order
                assert (moved != A).nnz == 0


def test_cube_has_no_spurious_gaps(bench):
    # with every cell split along one planar diagonal, the lowest 52 values
    # at r=32 held 28 relative gaps in (1e-10, 2e-3): clusters that the
    # cube's symmetry makes degenerate came apart.  The quadrant split keeps
    # all 48 symmetries, so the clusters stay whole
    vals = np.array([p.value for p in bench.pairs(PolyhedronKind.CUBE, 32, 52)])
    rel = np.diff(vals) / vals[1:]
    assert np.count_nonzero((rel > 1e-10) & (rel < 2e-3)) == 0


def test_odd_resolution_cube_is_solved_whole(bench):
    # the middle row and column of cells cannot follow the quadrant rule, so
    # the cube's pencil at odd r is not invariant and split declines it.  K
    # is the five-point stencil whichever way a cell is split; M is not
    kind = PolyhedronKind.CUBE
    mesh = bench.mesh(kind, 3)
    K, M = bench.matrices(kind, 3)
    perms = [sym.dof_permutation(mesh, g) for g in group_generators(kind)]
    assert all(sym.is_invariant(K, p) for p in perms)
    assert not all(sym.is_invariant(M, p) for p in perms)
    assert sym.split(K, M) is None
    pairs = ps.solve_lowest(K, M, 12, seed=0)
    assert max(ps.residual(K, M, p) for p in pairs) <= 1e-9
    dense = ps.dense_solve(K, M)[:12]
    assert np.allclose([p.value for p in pairs], [p.value for p in dense],
                       rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("r", [1, 2, 7])
def test_conjugation_index_is_the_permuted_copy(kind, r, bench):
    # the gather index reproduces P A P^T entry for entry, and one index
    # serves K and M wherever their patterns agree (every kind but the cube,
    # whose K drops the zero cell diagonals)
    mesh = bench.mesh(kind, r)
    K, M = bench.matrices(kind, r)
    shared = (K.indices.shape == M.indices.shape
              and np.array_equal(K.indices, M.indices))
    assert shared == (kind is not PolyhedronKind.CUBE)
    for sigma in group_generators(kind):
        perm = sym.dof_permutation(mesh, sigma)
        index = sym._conjugation(K, perm)
        for A in (K, M):
            if A is K or shared:
                moved = conjugated(A, perm)
                moved.sort_indices()
                assert np.array_equal(index.indptr, moved.indptr)
                assert np.array_equal(index.indices, moved.indices)
                assert np.array_equal(A.data[index.data], moved.data)


def test_invariance_check_survives_a_different_pattern(bench):
    # an explicit zero at one position only: the pattern is no longer
    # invariant, but the matrix still is; a changed value then is not
    kind = PolyhedronKind.OCTAHEDRON
    mesh = bench.mesh(kind, 4)
    K, _ = bench.matrices(kind, 4)
    perm = sym.dof_permutation(mesh, group_generators(kind)[0])
    coo = K.tocoo()
    i = int(np.flatnonzero(perm != np.arange(len(perm)))[0])
    j = next(j for j in range(K.shape[0]) if K[i, j] == 0 and j != i)
    rows, cols = np.r_[coo.row, i], np.r_[coo.col, j]
    A = sparse.csr_matrix((np.r_[coo.data, 0.0], (rows, cols)), shape=K.shape)
    assert A.nnz == K.nnz + 1
    index = sym._conjugation(A, perm)
    assert not np.array_equal(index.indices, A.indices)
    assert sym.is_invariant(A, perm)
    A[i, j] = 1.0                       # stored already: no new entry
    assert A.nnz == K.nnz + 1
    assert abs(conjugated(A, perm) - A).max() > 1e-12 * abs(A).max()
    assert not sym.is_invariant(A, perm)


def planar_oracle(mesh, sigma):
    """sigma's DOF permutation from float planar coordinates alone.

    The grid points of a face are the planar vertices inside its polygon.
    The affine map that sends each face corner to the image face's corner
    carrying the image label moves them onto planar vertices, which are
    matched by coordinates rounded to 9 decimals.
    """
    net, xy = mesh.net, mesh.planar_vertices
    row_of = {p: i for i, p in enumerate(map(tuple, np.round(xy, 9)))}
    face_of = {frozenset(f.labels): f for f in net.faces}
    perm = np.full(mesh.dof_count, -1)
    for f in net.faces:
        corners = np.array(f.vertices)
        edges = np.roll(corners, -1, axis=0) - corners
        rel = xy[:, None, :] - corners[None]
        cross = edges[:, 0] * rel[..., 1] - edges[:, 1] * rel[..., 0]
        inside = np.flatnonzero((cross >= -1e-9).all(axis=1))
        image = face_of[frozenset(sigma[x] for x in f.labels)]
        target = [image.vertices[image.labels.index(sigma[x])]
                  for x in f.labels]
        ones = np.ones((len(corners), 1))
        affine = np.linalg.lstsq(np.hstack([corners, ones]), np.array(target),
                                 rcond=None)[0]
        mapped = xy[inside] @ affine[:2] + affine[2]
        for src, q in zip(inside, map(tuple, np.round(mapped, 9))):
            d, e = mesh.dof_of[src], mesh.dof_of[row_of[q]]
            assert perm[d] in (-1, e)
            perm[d] = e
    assert (perm >= 0).all()
    return perm


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("r", [1, 2, 3, 7])
def test_dof_permutation_matches_planar_oracle(kind, r, bench):
    mesh = bench.mesh(kind, r)
    for sigma in sym.label_group(kind):
        assert np.array_equal(sym.dof_permutation(mesh, sigma),
                              planar_oracle(mesh, sigma))


def grid_oracle(mesh, sigma):
    """sigma's DOF permutation by looking up every face's grid points and
    their images, with the image face's corners carrying the image labels,
    in planar_lattice."""
    net = mesh.net
    face_of = {frozenset(f.labels): f for f in net.faces}
    images = []
    for f in net.faces:
        image = face_of[frozenset(sigma[x] for x in f.labels)]
        images.append([image.corners[image.labels.index(sigma[x])]
                       for x in f.labels])
    grid = face_grid([f.corners for f in net.faces] + images, mesh.resolution)
    a, b = mesh.dof_of[grid_index(mesh.planar_lattice, grid)].reshape(2, -1)
    perm = np.full(mesh.dof_count, -1)
    perm[a] = b
    assert np.array_equal(perm[a], b)
    return perm


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("r", [1, 2, 3, 33])
def test_dof_permutation_matches_grid_oracle(kind, r, bench):
    # the image point's place in its face's list, read off its corner
    # weights, is where the lookup finds it; the odd-r cube too, whose
    # pencil is not invariant though its grid is
    mesh = bench.mesh(kind, r)
    for sigma in sym.label_group(kind):
        want = grid_oracle(mesh, sigma)
        assert np.array_equal(sym.dof_permutation(mesh, sigma), want)
        assert np.array_equal(np.sort(want), np.arange(mesh.dof_count))


def explicit_bases(sector, n):
    """The (d, n, n_rho) dense bases of the d rows of sector's irrep: column
    c of row j is partner j of the unit sector vector e_c."""
    size = sector.K.shape[0]
    B = np.zeros((sector.rho.shape[1], n, size))
    for c, unit in enumerate(np.eye(size)):
        for j, row in enumerate(B):
            row[:, c] = sector.partner(unit, j)
    return B


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("r", [1, 2, 3, 7, 16])
def test_sector_bases_split_the_dofs(kind, r, bench):
    mesh = bench.mesh(kind, r)
    n = mesh.dof_count
    K, M = bench.matrices(kind, r)
    sectors = sym.split(K, M)
    if kind is PolyhedronKind.CUBE and r % 2:
        assert sectors is None          # see the odd-resolution test below
        return
    assert len(sectors) == GROUPS[kind][1]
    assert [s.irrep for s in sectors] == list(range(len(sectors)))
    # each sector counts once per row of its irrep
    assert sum(s.rho.shape[1] * s.K.shape[0] for s in sectors) == n
    if r > 7:
        return
    # the rows of every irrep together: n mutually orthogonal columns, so
    # they span R^n
    together = np.hstack([B for s in sectors if s.K.shape[0]
                          for B in explicit_bases(s, n)])
    assert together.shape == (n, n)
    gram = together.T @ together
    off = gram - np.diag(np.diag(gram))
    assert np.abs(off).max() <= 1e-12 * np.diag(gram).max()
    assert np.all(np.diag(gram) > 0.5)


def normalizer(kind):
    """The n of label_group with n^-1 h n in H for every h in H, in group
    order, by trying every pair (n, h)."""
    group = sym.label_group(kind)
    subgroup = span(SECTOR_GENERATORS[kind], group[0])
    return [n for n in group
            if all(compose(tuple(np.argsort(n).tolist()), compose(h, n))
                   in subgroup for h in subgroup)]


# sha256 over split's integer output at r=4: each sector's irrep, its
# dimension, its character to 6 decimals (which no choice of basis moves)
# and its size, then the orbits' images.  The irrep order seeds each
# sector's Lanczos start vector
SPLIT_SHA256 = {
    PolyhedronKind.TETRAHEDRON:
        "867ebc4329c6d050468456248396c2f223c265795ec07a6edf87fbf770ebf4e2",
    PolyhedronKind.OCTAHEDRON:
        "e5564e559d0c313f7135b3860e5b9dad83cf9e614f3acb746ffaac539027aeab",
    PolyhedronKind.ICOSAHEDRON:
        "724ca33fe81f08d8c2a9a5f5f4305628465082d0d55e97a3dd18009d80418b2b",
    PolyhedronKind.CUBE:
        "4a92eba598e2a3c162f84939814237b69a8e9ed25c8688e0ac2ca2d2abbc5c99",
}


@pytest.mark.parametrize("kind", KINDS)
def test_split_is_pinned(kind):
    K, M = ps.assemble(ps.build_mesh(ps.build_net(kind), 4))
    digest = hashlib.sha256()
    for s in sym.split(K, M):
        character = np.rint(np.trace(s.rho, axis1=1, axis2=2) * 1e6)
        for x in (s.irrep, s.rho.shape[1], character, s.K.shape[0]):
            digest.update(np.asarray(x, np.int64).tobytes())
    digest.update(np.asarray(s.images, np.int64).tobytes())
    assert digest.hexdigest() == SPLIT_SHA256[kind]


@pytest.mark.parametrize("r, kind", [
    (r, kind) for r in [1, 2, 3, 4, 7, 8] for kind in KINDS
    if (r % 2 == 0 if kind is PolyhedronKind.CUBE else r != 8)])
def test_conjugate_sectors_share_the_spectrum(kind, r, bench):
    # the d rows of an irrep span d sectors that K and M treat alike: the
    # explicit basis B_j of every row j gives the pencil (B_j^T K B_j,
    # B_j^T M B_j) that split reads off the orbits' smallest DOFs, and an
    # element h moves row j's basis onto sum_i rho[h]_ij B_i
    mesh = bench.mesh(kind, r)
    K, M = bench.matrices(kind, r)
    n = mesh.dof_count
    pair = sym.sector_plan(kind).pair
    perms = [sym.dof_permutation(mesh, sigma)
             for sigma in elements(kind, pair)]
    for s in sym.split(K, M):
        if not s.K.shape[0]:
            continue
        B = explicit_bases(s, n)
        for A, S in ((K, s.K.toarray()), (M, s.M.toarray())):
            assert np.array_equal(S, S.T)
            for Bj in B:
                bound = abs(A).max() * np.abs(Bj).sum(axis=0).max() ** 2
                assert np.abs(Bj.T @ (A @ Bj) - S).max() <= 1e-12 * bound
        for g, perm in zip(pair, perms):
            moved = B[:, np.argsort(perm)]
            assert np.abs(moved - np.einsum("ij,ink->jnk", s.rho[g], B)
                          ).max() < 1e-12


@pytest.mark.parametrize("kind", KINDS)
def test_copies_repeat_their_representative_bit_for_bit(kind, bench,
                                                        monkeypatch):
    # every value a sector finds is placed once per row of its irrep, bit
    # for bit; the d partners of each pair pass the residual contract and
    # are M-orthonormal
    K, M = bench.matrices(kind, 16)
    n, m = K.shape[0], 60
    sectors = sym.split(K, M)
    found = {}
    solve = ps.eigen._sector_lowest

    def recorded(sectors, i, *args):
        found[i] = solve(sectors, i, *args)
        return found[i]

    monkeypatch.setattr(ps.eigen, "_sector_lowest", recorded)
    vals, vecs, _ = ps.eigen._lowest_by_sector(sectors, n, m, 0, None)
    assert len(vecs) == m and all(v.shape == (n,) for v in vecs)
    assert np.array_equal(vals, np.sort(np.concatenate(
        [np.repeat(found[i][0], sectors[i].rho.shape[1]) for i in found]))[:m])
    for i, (values, vectors, _) in found.items():
        s = sectors[i]
        for value, c in zip(values[values < vals[-1]], vectors.T):
            V = np.column_stack([s.partner(c, j)
                                 for j in range(s.rho.shape[1])])
            V /= np.sqrt(np.einsum("ij,ij->j", V, M @ V))
            assert np.abs(V.T @ (M @ V) - np.eye(len(V.T))).max() < 1e-12
            for v in V.T:
                assert ps.residual(K, M, ps.EigenPair(value, v)) <= 1e-9


def test_sectors_label_the_clusters(bench):
    # each value's sector is its irrep label (ROADMAP item 2), at r=32
    def clusters(kind, m):
        K, M = bench.matrices(kind, 32)
        found = []
        for s in sym.split(K, M):
            size, d = s.K.shape[0], s.rho.shape[1]
            # at most m // d of a sector's values lie among the m lowest
            for p in ps.solve_lowest(s.K, s.M, min(size, m // d + 1), seed=0):
                found += [(ps.normalize(p.value, kind), s.irrep, d)] * d
        found.sort()
        ends = np.cumsum([0] + [k for _, k in ps.group_clusters(
            [v for v, _, _ in found[:m]], rel_tol=CLUSTER_GAP)]).tolist()
        return [found[lo:hi] for lo, hi in zip(ends[:-1], ends[1:])]

    octahedron = clusters(PolyhedronKind.OCTAHEDRON, 20)
    third, = [c for c in octahedron if abs(c[0][0] - 4 / 3) < 0.01]
    assert {(i, d) for _, i, d in third} == {(4, 2)} and len(third) == 2
    four, = [c for c in octahedron if abs(c[0][0] - 4) < 0.02]
    assert len(four) == 2 and [d for _, _, d in four] == [1, 1]
    assert four[0][1] != four[1][1]
    icosahedron = clusters(PolyhedronKind.ICOSAHEDRON, 40)
    labels = [{(i, d) for _, i, d in c} for c in icosahedron[:11]]
    assert all(len(label) == 1 for label in labels)
    assert [d for (_, d), in labels] == [1, 3, 5, 3, 4, 5, 4, 3, 3, 5, 1]
    assert [len(c) for c in icosahedron[:11]] == \
        [1, 3, 5, 3, 4, 5, 4, 3, 3, 5, 1]


@pytest.mark.parametrize("kind", KINDS)
def test_sectors_match_the_whole_pencil(kind, bench):
    K, M = bench.matrices(kind, 16)
    assert sym.split(K, M) is not None
    m = 30
    whole = ps.solve_lowest(K.copy(), M, m, seed=0)
    split = ps.solve_lowest(K, M, m, seed=0)
    a = np.array([p.value for p in whole])
    b = np.array([p.value for p in split])
    assert np.all(np.abs(a - b) <= 1e-10 * np.maximum(1.0, a))
    V = np.column_stack([p.vector for p in split])
    assert np.abs(V.T @ (M @ V) - np.eye(m)).max() < 1e-10
    assert max(ps.residual(K, M, p) for p in split) <= 1e-9
    sizes = [n for _, n in ps.group_clusters(a, rel_tol=CLUSTER_GAP)]
    assert sizes == [n for _, n in ps.group_clusters(b, rel_tol=CLUSTER_GAP)]
    ends = np.cumsum([0] + sizes).tolist()
    # the final cluster may be truncated by m and then depends on rounding
    for lo, hi in zip(ends[:-2], ends[1:-1]):
        assert span_distance(whole[lo:hi], split[lo:hi], M) < 1e-8


@pytest.mark.parametrize("kind", KINDS)
def test_zero_margin_merges_through_resolves(kind, bench, monkeypatch):
    K, M = bench.matrices(kind, 16)
    # at m=20 some sector of every kind needs more pairs than its share
    m = 20
    want = np.array([p.value for p in ps.solve_lowest(K.copy(), M, m)])
    runs = []
    lowest = ps.eigen._lowest

    def counted(*args):
        runs.append(args[2])
        return lowest(*args)

    monkeypatch.setattr(ps.eigen, "_SECTOR_MARGIN", 0)
    monkeypatch.setattr(ps.eigen, "_lowest", counted)
    got = np.array([p.value for p in ps.solve_lowest(K, M, m)])
    # some sector ran twice
    assert len(runs) > sum(1 for s in sym.split(K, M) if s.K.shape[0])
    assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, want))


@pytest.mark.parametrize("kind, r", [(PolyhedronKind.OCTAHEDRON, 32),
                                     (PolyhedronKind.ICOSAHEDRON, 32),
                                     (PolyhedronKind.CUBE, 32),
                                     (PolyhedronKind.TETRAHEDRON, 64)])
def test_first_asks_solve_each_representative_once(kind, r, bench,
                                                   monkeypatch):
    # at m=200 every sector's first ask reaches past the merged 200th value,
    # so no sector is solved a second time, unless its largest value ties
    # with the 200th to rounding: a cluster that two sectors share, as the
    # tetrahedron's 3-dimensional irreps do at lattice coincidences
    K, M = bench.matrices(kind, r)
    runs = []
    solve = ps.eigen._sector_lowest

    def counted(sectors, i, *args):
        out = solve(sectors, i, *args)
        runs.append((i, out[0].max()))
        return out

    monkeypatch.setattr(ps.eigen, "_POOL_DOFS", K.shape[0] + 1)
    monkeypatch.setattr(ps.eigen, "_sector_lowest", counted)
    pairs = ps.solve_lowest(K, M, 200, seed=1)
    assert max(ps.residual(K, M, p) for p in pairs) <= 1e-9
    solved = [i for i, s in enumerate(sym.split(K, M)) if s.K.shape[0]]
    assert len(solved) == GROUPS[kind][1]
    assert [i for i, _ in runs[:len(solved)]] == solved
    first = dict(runs[:len(solved)])
    top = pairs[-1].value
    for i, _ in runs[len(solved):]:
        assert first[i] <= top and top - first[i] <= 1e-12 * top


def test_untagged_or_edited_pencils_are_solved_whole(bench):
    mesh = bench.mesh(PolyhedronKind.OCTAHEDRON, 8)
    K, M = ps.assemble(mesh)
    assert sym.split(K, M) is not None and sym.split(K, M.tocsc()) is not None
    copy = K.copy()
    assert not hasattr(copy, "_mesh") and sym.split(copy, M) is None
    # scale one off-diagonal pair in place: K keeps its mesh and stays
    # symmetric, but is no longer invariant
    i, j = 0, K.indices[K.indptr[0]:K.indptr[1]].max()
    for a, b in ((i, j), (j, i)):
        row = slice(K.indptr[a], K.indptr[a + 1])
        K.data[row][K.indices[row] == b] *= 1.5
    assert K._mesh is mesh and sym.split(K, M) is None
    for A in (copy, K):
        assert sym.split(A, M) is None
        pairs = ps.solve_lowest(A, M, 10, seed=0)
        assert max(ps.residual(A, M, p) for p in pairs) <= 1e-9
        dense = ps.dense_solve(A, M)[:10]
        assert np.allclose([p.value for p in pairs],
                           [p.value for p in dense], rtol=1e-10, atol=1e-12)


def check_averaged_edit_is_solved_whole(bench, kind, r, images):
    """Scale one off-diagonal pair of K, average it over the DOF
    permutations images, and check that split rejects the result, which is
    not invariant under the whole group, and that it is solved whole."""
    mesh = bench.mesh(kind, r)
    K, M = bench.matrices(kind, r)
    E = K.copy().tolil()
    i = K.shape[0] // 3
    j = max(k for k in K[i].indices if k != i)
    E[i, j] *= 1.5
    E[j, i] *= 1.5
    E = E.tocsr()
    A = sum(conjugated(E, p) for p in images) / len(images)
    A._mesh = mesh
    assert all(sym.is_invariant(A, p) for p in images)
    assert not all(sym.is_invariant(A, sym.dof_permutation(mesh, g))
                   for g in group_generators(kind))
    assert sym.split(A, M) is None
    pairs = ps.solve_lowest(A, M, 10, seed=0)
    assert max(ps.residual(A, M, p) for p in pairs) <= 1e-9
    dense = ps.dense_solve(A, M)[:10]
    assert np.allclose([p.value for p in pairs], [p.value for p in dense],
                       rtol=1e-10, atol=1e-12)


def test_h_invariant_but_not_n_invariant_pencils_are_solved_whole(bench):
    kind = PolyhedronKind.OCTAHEDRON
    mesh = bench.mesh(kind, 8)
    images = [np.arange(mesh.dof_count)]
    for g in SECTOR_GENERATORS[kind]:
        p = sym.dof_permutation(mesh, g)
        images += [p[h] for h in images]
    check_averaged_edit_is_solved_whole(bench, kind, 8, images)


@pytest.mark.parametrize("kind", [PolyhedronKind.TETRAHEDRON,
                                  PolyhedronKind.ICOSAHEDRON])
def test_n_invariant_but_not_g_invariant_pencils_are_solved_whole(kind,
                                                                   bench):
    # on the icosahedron N is a proper subgroup (24 of 120): the average over
    # N keeps every sector and conjugator, but not the whole group.  The
    # tetrahedron's H is normal, so N = G there; its rotations (the even
    # label permutations, 12 of 24) contain H and still permute the three
    # nontrivial sectors transitively, but are not the whole group
    group = sym.label_group(kind)
    normal = normalizer(kind)
    if kind is PolyhedronKind.TETRAHEDRON:
        assert len(normal) == len(group)
        inversions = [sum(a > b for a, b in itertools.combinations(g, 2))
                      for g in group]
        subgroup = [g for g, n in zip(group, inversions) if n % 2 == 0]
        assert span(SECTOR_GENERATORS[kind], group[0]) <= set(subgroup)
    else:
        subgroup = normal
    assert len(subgroup) < len(group)
    assert all(compose(a, b) in subgroup for a in subgroup for b in subgroup)
    mesh = bench.mesh(kind, 4)
    images = [sym.dof_permutation(mesh, g) for g in subgroup]
    check_averaged_edit_is_solved_whole(bench, kind, 4, images)


@pytest.mark.parametrize("kind", KINDS)
def test_edited_mass_matrix_is_solved_whole(kind, bench):
    # K untouched; on the triangle kinds M is checked through K's index, on
    # the cube, whose K drops the zero cell diagonals, through its own
    mesh = bench.mesh(kind, 4)
    K, M = ps.assemble(mesh)
    assert sym.split(K, M) is not None
    i, j = 0, M.indices[M.indptr[0]:M.indptr[1]].max()
    for a, b in ((i, j), (j, i)):
        row = slice(M.indptr[a], M.indptr[a + 1])
        M.data[row][M.indices[row] == b] *= 1.5
    assert sym.split(K, M) is None
