import hashlib
import itertools

import numpy as np
import pytest
import scipy.sparse as sparse

import polyspec as ps
from polyspec import PolyhedronKind
from polyspec import symmetry as sym

from conftest import CLUSTER_GAP, KINDS, span_distance

# (order of the label group, number of sectors)
GROUPS = {
    PolyhedronKind.TETRAHEDRON: (24, 4),
    PolyhedronKind.OCTAHEDRON: (48, 8),
    PolyhedronKind.ICOSAHEDRON: (120, 8),
    PolyhedronKind.CUBE: (48, 8),
}
# (order of the normalizer of the sector group, orbit sizes of its action on
# the characters)
ORBITS = {
    PolyhedronKind.TETRAHEDRON: (24, [1, 3]),
    PolyhedronKind.OCTAHEDRON: (48, [1, 3, 3, 1]),
    PolyhedronKind.ICOSAHEDRON: (24, [1, 3, 3, 1]),
    PolyhedronKind.CUBE: (48, [1, 3, 3, 1]),
}


def compose(a, b):
    return tuple(a[x] for x in b)


def elements(kind, indices):
    """The label permutations at indices of label_group."""
    return tuple(sym.label_group(kind)[x] for x in indices)


def sector_generators(kind):
    return elements(kind, sym.sector_plan(kind).sector_gens)


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
    gens = sector_generators(kind)
    assert 2 ** len(gens) == sectors
    for g in gens:
        assert g in group and g != identity
        assert compose(g, g) == identity
        assert all(compose(g, h) == compose(h, g) for h in gens)


# the sector group of each kind; its generators fix the numbering of the
# sectors and so the seed each sector's Lanczos start vector is drawn from.
# The tetrahedron's are two double transpositions (the Klein group), the
# cube's the three coordinate reflections of its binary vertex labels
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


def first_fitting(elements, identity):
    """The involutions taken one by one from elements, in order, that commute
    with those taken before and lie outside their span."""
    gens, span = [], {identity}
    while True:
        fits = [g for g in elements if compose(g, g) == identity
                and g not in span
                and all(compose(g, h) == compose(h, g) for h in gens)]
        if not fits:
            return tuple(gens)
        gens.append(fits[0])
        span |= {compose(fits[0], h) for h in span}


def largest_normal_2_subgroup(group):
    """The largest elementary abelian 2-subgroup that is a union of whole
    conjugacy classes, by trying every union of involution classes."""
    identity = group[0]
    inverse = {g: tuple(np.argsort(g).tolist()) for g in group}
    classes = []
    for g in group:
        if compose(g, g) == identity and g != identity and \
                not any(g in c for c in classes):
            classes.append({compose(compose(h, g), inverse[h])
                            for h in group})
    best = {identity}
    for k in range(1, len(classes) + 1):
        for chosen in itertools.combinations(classes, k):
            subgroup = {identity}.union(*chosen)
            if len(subgroup) > len(best) and all(
                    compose(x, y) in subgroup
                    and compose(x, y) == compose(y, x)
                    for x in subgroup for y in subgroup):
                best = subgroup
    return best


@pytest.mark.parametrize("kind", KINDS)
def test_sector_generators_are_the_first_fitting_involutions(kind):
    # the first-fitting involutions of the largest normal elementary abelian
    # 2-subgroup if that reaches the rank of the first-fitting involutions of
    # the whole group; of the whole group otherwise (the icosahedron, whose
    # only normal one is the central inversion)
    gens = sector_generators(kind)
    assert gens == SECTOR_GENERATORS[kind]
    group = sym.label_group(kind)
    identity = group[0]
    normal = largest_normal_2_subgroup(group)
    scan = first_fitting(group, identity)
    assert len(scan) == (2 if kind is PolyhedronKind.TETRAHEDRON else 3)
    if len(normal) == 2 ** len(scan):
        assert kind is not PolyhedronKind.ICOSAHEDRON
        assert gens == first_fitting([g for g in group if g in normal],
                                     identity)
        assert span(gens, identity) == normal
    else:
        assert kind is PolyhedronKind.ICOSAHEDRON and len(normal) == 2
        assert gens == scan


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


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("r", [1, 2, 3, 7, 16])
def test_sector_bases_split_the_dofs(kind, r, bench):
    mesh = bench.mesh(kind, r)
    n = mesh.dof_count
    gens = sector_generators(kind)
    perms = [sym.dof_permutation(mesh, g) for g in gens]
    bases = sym.sector_bases(perms, n, range(1 << len(perms)))
    sizes = [B.shape[1] for B in bases]
    assert len(bases) == GROUPS[kind][1]
    assert sum(sizes) == n
    if r == 1:
        # 6 and 12 DOFs cannot fill 8 sectors; the Klein group and the
        # cube's reflections act freely on the 4 and 8 vertices
        assert (0 in sizes) == (kind in (PolyhedronKind.OCTAHEDRON,
                                         PolyhedronKind.ICOSAHEDRON))
    for c, B in enumerate(bases):
        # generator i acts on sector c as the sign (-1)^(bit i of c)
        for i, perm in enumerate(perms):
            sign = -1.0 if c >> i & 1 else 1.0
            assert (B[np.argsort(perm)] != sign * B).nnz == 0
        # +-1 columns with disjoint supports
        assert np.array_equal(abs(B).sum(axis=1).A1 <= 1, np.ones(n, bool))
        assert np.all(abs(B.data) == 1)
    # all n columns are mutually orthogonal, so together they span R^n
    together = sparse.hstack(bases).tocsr()
    gram = (together.T @ together).toarray()
    assert np.array_equal(gram, np.diag(np.diag(gram)))
    assert np.all(np.diag(gram) > 0)


def characters_of(V, perms):
    """The character of each column of V, read off its exact H-signs."""
    out = []
    for v in V.T:
        c = 0
        for i, perm in enumerate(perms):
            image = v[np.argsort(perm)]
            assert np.array_equal(image, v) or np.array_equal(image, -v)
            c |= (not np.array_equal(image, v)) << i
        out.append(c)
    return np.array(out)


def normalizer(kind):
    """The n of label_group with n^-1 h n in H for every h in H, in group
    order, by trying every pair (n, h)."""
    group = sym.label_group(kind)
    subgroup = span(sector_generators(kind), group[0])
    return [n for n in group
            if all(compose(tuple(np.argsort(n).tolist()), compose(h, n))
                   in subgroup for h in subgroup)]


@pytest.mark.parametrize("kind", KINDS)
def test_normalizer_orbits(kind):
    order, sizes = ORBITS[kind]
    plan = sym.sector_plan(kind)
    assert sym.sector_plan(kind) is plan
    group = sym.label_group(kind)
    identity = group[0]
    normal = normalizer(kind)
    assert len(normal) == order and identity in normal
    assert set(normal) <= set(group)
    # two generators span G, which contains N; the tree leads every element
    # to the identity along them
    gens = group_generators(kind)
    assert len(gens) == 2
    assert span(gens, identity) == set(group)
    assert len(plan.tree) == len(group) and plan.tree[0] is None
    for x, entry in enumerate(plan.tree[1:], 1):
        i, y = entry
        assert group[x] == compose(gens[i], group[y])
    assert set(sector_generators(kind)) <= set(normal)
    assert [len(o) for o in plan.orbits] == sizes
    assert sorted(c for o in plan.orbits for c in o) == \
        list(range(GROUPS[kind][1]))
    conjugators = elements(kind, plan.conjugators)
    for orbit in plan.orbits:
        assert orbit[0] == min(orbit)
        assert conjugators[orbit[0]] == identity
        assert all(conjugators[c] in normal for c in orbit)


# sha256 over split's integer and +-1 output at r=4: each sector's character,
# basis pattern and signs, and copies.  The conjugators decide the copied
# vectors bit for bit
SPLIT_SHA256 = {
    PolyhedronKind.TETRAHEDRON:
        "f6440bb594b915e7c5ab7355677b84e6399128b0c42167d593fadb596189f367",
    PolyhedronKind.OCTAHEDRON:
        "ad3871898ab885545862b55050be6bcec3aee16129795aa5e5706990c3d3f7f7",
    PolyhedronKind.ICOSAHEDRON:
        "485436337b7d8cc0f67e5bd05c21c4ad79391c7f2e2ad2f67f8f64de67f1d318",
    PolyhedronKind.CUBE:
        "8d4c0f7ad3b5bc9d348815a7c74af4ba6f18e32dff3c979bba8d10fb007afe43",
}


@pytest.mark.parametrize("kind", KINDS)
def test_split_is_pinned(kind):
    K, M = ps.assemble(ps.build_mesh(ps.build_net(kind), 4))
    digest = hashlib.sha256()
    for s in sym.split(K, M):
        B = s.basis
        assert np.all(np.abs(B.data) == 1)
        digest.update(np.int64(s.character).tobytes())
        for x in (B.indptr, B.indices, B.data, *s.copies):
            digest.update(np.asarray(x, np.int64).tobytes())
    assert digest.hexdigest() == SPLIT_SHA256[kind]


@pytest.mark.parametrize("r, kind", [
    (r, kind) for r in [4, 7, 8] for kind in KINDS
    if (r != 7 if kind is PolyhedronKind.CUBE else r != 8)])
def test_conjugate_sectors_share_the_spectrum(kind, r, bench):
    mesh = bench.mesh(kind, r)
    K, M = bench.matrices(kind, r)
    n = mesh.dof_count
    plan = sym.sector_plan(kind)
    conjugators = elements(kind, plan.conjugators)
    perms = [sym.dof_permutation(mesh, g) for g in sector_generators(kind)]
    bases = sym.sector_bases(perms, n, range(1 << len(perms)))
    sectors = sym.split(K, M)
    assert [s.character for s in sectors] == [o[0] for o in plan.orbits]

    def spectrum(B):
        return np.array([p.value for p in ps.dense_solve(B.T @ K @ B,
                                                         B.T @ M @ B)])

    for orbit, sector in zip(plan.orbits, sectors):
        rep = spectrum(bases[orbit[0]])
        assert len(sector.copies) == len(orbit) - 1
        for c, copy in zip(orbit[1:], sector.copies):
            assert np.array_equal(
                copy, sym.dof_permutation(mesh, conjugators[c]))
            # the conjugator carries the representative's basis into sector
            # c: every H generator acts on the moved columns with c's sign
            moved = sparse.csr_matrix(bases[orbit[0]])[np.argsort(copy)]
            for i, perm in enumerate(perms):
                sign = -1.0 if c >> i & 1 else 1.0
                assert (moved[np.argsort(perm)] != sign * moved).nnz == 0
            other = spectrum(bases[c])
            assert len(other) == len(rep)
            assert np.all(np.abs(other - rep) <= 1e-12 * np.maximum(1.0, rep))


@pytest.mark.parametrize("kind", KINDS)
def test_copies_repeat_their_representative_bit_for_bit(kind, bench):
    mesh = bench.mesh(kind, 16)
    K, M = bench.matrices(kind, 16)
    n, m = K.shape[0], 60
    sectors = sym.split(K, M)
    vals, vecs, _ = ps.eigen._lowest_by_sector(sectors, n, m, 0, None)
    assert vecs.shape == (n, m) and np.all(np.diff(vals) >= 0)
    perms = [sym.dof_permutation(mesh, g) for g in sector_generators(kind)]
    chars = characters_of(vecs, perms)
    # every value below the m-th is kept in each sector of its orbit
    below = vals < vals[-1]
    for orbit in sym.sector_plan(kind).orbits:
        rep = vals[below & (chars == orbit[0])]
        for c in orbit[1:]:
            assert np.array_equal(vals[below & (chars == c)], rep)


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
    # some sector ran twice; only one sector per orbit is ever solved
    assert len(runs) > len(sym.sector_plan(kind).orbits)
    assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, want))


@pytest.mark.parametrize("kind, r", [(PolyhedronKind.OCTAHEDRON, 32),
                                     (PolyhedronKind.ICOSAHEDRON, 32),
                                     (PolyhedronKind.CUBE, 32),
                                     (PolyhedronKind.TETRAHEDRON, 64)])
def test_first_asks_solve_each_representative_once(kind, r, bench,
                                                   monkeypatch):
    # at m=200 every representative's first ask, the symmetric sector's
    # extra included, reaches past the merged 200th value, so no sector is
    # solved a second time
    K, M = bench.matrices(kind, r)
    runs = []
    lowest = ps.eigen._lowest

    def counted(*args):
        runs.append(args[0].shape[0])
        return lowest(*args)

    monkeypatch.setattr(ps.eigen, "_POOL_DOFS", K.shape[0] + 1)
    monkeypatch.setattr(ps.eigen, "_lowest", counted)
    pairs = ps.solve_lowest(K, M, 200, seed=1)
    assert runs == [s.basis.shape[1] for s in sym.split(K, M)]
    assert len(runs) == len(sym.sector_plan(kind).orbits)
    assert max(ps.residual(K, M, p) for p in pairs) <= 1e-9


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
    for g in sector_generators(kind):
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
        assert span(sector_generators(kind), group[0]) <= set(subgroup)
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
