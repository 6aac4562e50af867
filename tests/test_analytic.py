import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyspec as ps
from polyspec import PolyhedronKind
from polyspec.analytic import SymmetryType as ST

SQRT3 = math.sqrt(3.0)
ND = 4 * math.pi ** 2 / 3

TABLE_MULTIPLICITIES = {0: 1, 1: 3, 3: 3, 4: 3, 7: 6, 9: 3, 12: 3, 13: 6,
                        16: 3, 19: 6, 21: 6, 25: 3, 27: 3, 28: 6, 31: 6}


def all_functions(nmax=48, kinds=None, with_enlarged=False):
    out = []
    for kind in kinds or list(PolyhedronKind):
        for t, orb in ps.admissible_orbits(kind, nmax):
            f = ps.build_trig_eigenfunction(kind, t, orb)
            out.append(f)
            if with_enlarged and kind is PolyhedronKind.OCTAHEDRON:
                out.append(ps.enlarge(f))
    return out


# ---------------------------------------------------------------------------
# lattice counting


@pytest.mark.parametrize("call, message", [
    (lambda: ST.parse("xx"), "unknown symmetry type"),
    (lambda: ps.hexagonal_multiplicity(-1), "n must be >= 0"),
    (lambda: ps.torus_count(-1), "t must be >= 0"),
    (lambda: ps.exact_spectrum("cube", 10), "unhandled kind"),
] + [(lambda kind=kind: ps.exact_spectrum(kind, 0), "nmax must be > 0")
     for kind in PolyhedronKind] + [
    (lambda kind=kind: ps.admissible_orbits(kind, -1), "nmax must be >= 0")
    for kind in PolyhedronKind],
    ids=["parse_xx", "multiplicity_negative", "torus_negative",
         "spectrum_kind_string"]
    + [f"spectrum_{kind.value}_nmax_0" for kind in PolyhedronKind]
    + [f"orbits_{kind.value}_nmax_negative" for kind in PolyhedronKind])
def test_invalid_arguments_raise_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_hexagonal_multiplicity_examples():
    assert ps.hexagonal_multiplicity(0) == 1
    assert ps.hexagonal_multiplicity(1) == 3
    assert ps.hexagonal_multiplicity(7) == 6
    # 49 = 7^2 and 49 = 3^2 + 5^2 + 3*5: the brute-force count is 9
    assert ps.hexagonal_multiplicity(49) == 9


@given(st.integers(min_value=0, max_value=120))
@settings(max_examples=40, deadline=None)
def test_hexagonal_multiplicity_against_independent_enumeration(n):
    if n == 0:
        assert ps.hexagonal_multiplicity(0) == 1
        return
    # independent oracle: enumerate over a disc in cartesian frequency space
    u = np.array([0.5, SQRT3 / 6])
    v = np.array([0.0, SQRT3 / 3])
    bound = 3 * int(math.isqrt(n)) + 3
    count = 0
    for j in range(-bound, bound + 1):
        for k in range(-bound, bound + 1):
            if j == 0 and k == 0:
                continue
            xi = k * u + j * v
            if abs(3 * (xi @ xi) - n) < 1e-9:
                count += 1
    assert ps.hexagonal_multiplicity(n) * 2 == count


@pytest.mark.parametrize(
    "bound", [math.inf, math.nan, 1e6, pytest.param(10**400, id="10**400")])
def test_lattice_entry_points_reject_bounds_above_limit(bound):
    # ValueError, not a TypeError from math.isqrt, an OverflowError from an
    # int beyond the float range, or an allocation of about isqrt(bound)^2
    # entries; the counting functions take raw values, 4 pi^2 / 3 ~ 13.2
    # times the normalized bound, so 14 * bound is above the limit too
    calls = [lambda: ps.hexagonal_multiplicity(bound),
             lambda: ps.exact_tetra_eigenvalues(bound),
             lambda: ps.torus_count(14 * bound),
             lambda: ps.tetra_count_exact(14 * bound)]
    for kind in PolyhedronKind:
        calls += [lambda kind=kind: ps.admissible_orbits(kind, bound),
                  lambda kind=kind: ps.exact_spectrum(kind, bound)]
    for call in calls:
        with pytest.raises(ValueError, match="at most 100000"):
            call()


@pytest.mark.parametrize(
    "bound", [2.5, 10.5, pytest.param(Fraction(7, 2), id="7/2")])
def test_lattice_entry_points_reject_non_integers(bound):
    # ValueError, not a TypeError from math.isqrt
    calls = [lambda: ps.hexagonal_multiplicity(bound)]
    calls += [lambda kind=kind: ps.admissible_orbits(kind, bound)
              for kind in PolyhedronKind]
    for call in calls:
        with pytest.raises(ValueError, match="must be an integer"):
            call()


def test_exact_spectrum_tetrahedron_table():
    lines = ps.exact_spectrum(PolyhedronKind.TETRAHEDRON, 31)
    got = {int(line.value): line.multiplicity for line in lines}
    assert got == TABLE_MULTIPLICITIES
    for line in lines:
        k, j = line.witness
        assert k * k + j * j + k * j == line.value


def test_spectrum_multiplicities_match_per_value_oracle():
    lines = ps.exact_spectrum(PolyhedronKind.TETRAHEDRON, 80)
    for line in lines:
        assert line.multiplicity == ps.hexagonal_multiplicity(int(line.value))


def test_exact_spectrum_octahedron_contains_thirds():
    vals = {line.value: line.tag
            for line in ps.exact_spectrum(PolyhedronKind.OCTAHEDRON, 17)}
    assert vals == {Fraction(0): "hexLattice", Fraction(4, 3): "third",
                    Fraction(4): "hexLattice", Fraction(16, 3): "third",
                    Fraction(28, 3): "third", Fraction(12): "hexLattice",
                    Fraction(16): "hexLattice"}


def test_exact_spectrum_icosahedron_no_thirds():
    vals = [line.value for line in
            ps.exact_spectrum(PolyhedronKind.ICOSAHEDRON, 17)]
    assert vals == [0, 4, 12, 16]


def test_exact_spectrum_cube():
    vals = [int(line.value) for line in
            ps.exact_spectrum(PolyhedronKind.CUBE, 10)]
    assert vals == [0, 2, 4, 8, 10]
    assert 5 not in vals


def _brute_force_spectrum(kind, nmax):
    # value -> [tag, multiplicity, witness] by direct double loops: every
    # lattice point for the tetrahedron's multiplicities, canonical
    # k >= j >= 0 in increasing (k, j) order for the witnesses
    bound = 2 * math.isqrt(3 * math.ceil(nmax)) + 2
    out = {}
    if kind is PolyhedronKind.TETRAHEDRON:
        for a in range(-bound, bound + 1):
            for b in range(-bound, bound + 1):
                n = a * a + a * b + b * b
                if n <= nmax:
                    out.setdefault(Fraction(n), ["hexLattice", 0, None])[1] += 1
        for line in out.values():
            line[1] = max(1, line[1] // 2)
    for k in range(bound + 1):
        for j in range(k + 1):
            if kind is PolyhedronKind.CUBE:
                n = k * k + j * j
                if (k - j) % 2 == 0 and n <= nmax:
                    out.setdefault(Fraction(n), ["squareLattice", 1, (k, j)])
            elif kind is PolyhedronKind.TETRAHEDRON:
                n = k * k + k * j + j * j
                if n <= nmax and out[Fraction(n)][2] is None:
                    out[Fraction(n)][2] = (k, j)
            elif k % 2 == 0 and j % 2 == 0:
                n = k * k + k * j + j * j
                if n <= nmax:
                    out.setdefault(Fraction(n), ["hexLattice", 1, (k, j)])
    if kind is PolyhedronKind.OCTAHEDRON:
        # thirds of the even-orbit values that are not direct values
        for k in range(0, bound + 1, 2):
            for j in range(0, k + 1, 2):
                third = Fraction(k * k + k * j + j * j, 3)
                if third <= nmax:
                    out.setdefault(third, ["third", 1, (k, j)])
    return out


@pytest.mark.parametrize("kind", list(PolyhedronKind))
@pytest.mark.parametrize("nmax", [37.5, 400])
def test_exact_spectrum_against_brute_force(kind, nmax):
    want = _brute_force_spectrum(kind, nmax)
    lines = ps.exact_spectrum(kind, nmax)
    assert [line.value for line in lines] == sorted(want)
    for line in lines:
        tag, multiplicity, witness = want[line.value]
        assert (line.tag, line.multiplicity) == (tag, multiplicity)
        # the smallest canonical orbit of the value: even for the octahedron
        # and icosahedron, of equal parity for the cube
        assert line.witness == witness


def test_torus_counting_examples():
    assert ps.torus_count(0) == 1
    assert ps.tetra_count_exact(0) == 1
    t1 = ND * (1 + 1e-12)
    assert ps.torus_count(t1) == 7
    assert ps.tetra_count_exact(t1) == 4
    t3 = ND * (3 + 1e-12)
    assert ps.torus_count(t3) == 13
    assert ps.tetra_count_exact(t3) == 7


def test_cumulative_multiplicity_matches_covering_count():
    lines = ps.exact_spectrum(PolyhedronKind.TETRAHEDRON, 200)
    cum = 0
    for line in lines:
        cum += line.multiplicity
        assert cum == ps.tetra_count_exact(ND * (float(line.value) + 1e-9))


# ---------------------------------------------------------------------------
# trig eigenfunctions


def test_constant_function_values():
    f = ps.build_trig_eigenfunction(PolyhedronKind.TETRAHEDRON,
                                    ST.ONE_PLUS, (0, 0))
    assert f.lambda_value == 0
    assert ps.evaluate(f, (0.0, 0.0)) == pytest.approx(3.0, abs=1e-12)
    g = ps.build_trig_eigenfunction(PolyhedronKind.CUBE, ST.PP, (0, 0))
    assert ps.evaluate(g, (0.5, 0.5)) == pytest.approx(2.0, abs=1e-12)


def test_generic_values_at_origin():
    fp = ps.build_trig_eigenfunction(PolyhedronKind.TETRAHEDRON,
                                     ST.ONE_PLUS, (4, 2))
    fm = ps.build_trig_eigenfunction(PolyhedronKind.TETRAHEDRON,
                                     ST.ONE_MINUS, (4, 2))
    assert ps.evaluate(fp, (0.0, 0.0)) == pytest.approx(6.0, abs=1e-12)
    assert ps.evaluate(fm, (0.0, 0.0)) == pytest.approx(0.0, abs=1e-12)
    center = (0.5, 0.5)  # cube face center is the formula origin
    cp = ps.build_trig_eigenfunction(PolyhedronKind.CUBE, ST.PP, (4, 2))
    cm = ps.build_trig_eigenfunction(PolyhedronKind.CUBE, ST.MM, (4, 2))
    assert ps.evaluate(cp, center) == pytest.approx(4.0, abs=1e-12)
    assert ps.evaluate(cm, center) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("kind,sym,orbit", [
    (PolyhedronKind.TETRAHEDRON, ST.ONE_MINUS, (2, 0)),
    (PolyhedronKind.TETRAHEDRON, ST.ONE_MINUS, (2, 2)),
    (PolyhedronKind.TETRAHEDRON, ST.ONE_MINUS, (0, 0)),
    (PolyhedronKind.TETRAHEDRON, ST.ONE_PLUS, (3, 1)),
    (PolyhedronKind.TETRAHEDRON, ST.PP, (2, 0)),
    (PolyhedronKind.ICOSAHEDRON, ST.ONE_MINUS, (4, 0)),
    (PolyhedronKind.OCTAHEDRON, ST.MM, (2, 2)),
    (PolyhedronKind.OCTAHEDRON, ST.PM, (2, 2)),
    (PolyhedronKind.OCTAHEDRON, ST.MP, (2, 0)),
    (PolyhedronKind.CUBE, ST.PP, (3, 1)),
    (PolyhedronKind.CUBE, ST.PM, (4, 2)),
    (PolyhedronKind.CUBE, ST.MP, (3, 3)),
    (PolyhedronKind.CUBE, ST.MM, (2, 0)),
    (PolyhedronKind.CUBE, ST.ONE_PLUS, (2, 0)),
    (PolyhedronKind.TETRAHEDRON, ST.ONE_PLUS, (2, 4)),
    # non-integral entries, which int() would truncate or fail on
    (PolyhedronKind.OCTAHEDRON, ST.PP, (2.9, 0.5)),
    (PolyhedronKind.ICOSAHEDRON, ST.ONE_PLUS, (math.nan, 0)),
    (PolyhedronKind.CUBE, ST.PP, (2, math.inf)),
])
def test_inadmissible_orbits_raise(kind, sym, orbit):
    with pytest.raises(ps.InadmissibleOrbitError):
        ps.build_trig_eigenfunction(kind, sym, orbit)


@pytest.mark.parametrize("kind, sym, orbit, message", [
    # one entry raised IndexError, a third entry was silently dropped
    (PolyhedronKind.CUBE, ST.PP, (2,), "two integers"),
    (PolyhedronKind.OCTAHEDRON, ST.PM, (2, 0, 7), "two integers"),
    (PolyhedronKind.TETRAHEDRON, ST.ONE_PLUS, (), "two integers"),
    # admissible on the lattice, but lambda_value raises OverflowError
    # (10**5000, 10**400, 10**200) or is inf (10**154); the message prints
    # no entry, which beyond 4300 digits would raise str()'s ValueError
    (PolyhedronKind.OCTAHEDRON, ST.PM, (10**5000, 0), "finite float"),
    (PolyhedronKind.OCTAHEDRON, ST.PM, (10**400, 0), "finite float"),
    (PolyhedronKind.OCTAHEDRON, ST.PM, (10**200, 0), "finite float"),
    (PolyhedronKind.OCTAHEDRON, ST.PM, (10**154, 0), "finite float"),
    (PolyhedronKind.CUBE, ST.PP, (10**154, 0), "finite float"),
], ids=["one_entry", "three_entries", "empty", "octa_1e5000", "octa_1e400",
        "octa_1e200", "octa_1e154", "cube_1e154"])
def test_orbit_must_be_two_integers_with_a_finite_eigenvalue(kind, sym, orbit,
                                                             message):
    with pytest.raises(ps.InadmissibleOrbitError, match=message):
        ps.build_trig_eigenfunction(kind, sym, orbit)


@pytest.mark.parametrize("kind, sym, orbit", [
    # each rule's message formatted these entries, and str() refuses an int
    # of more than 4300 digits with ValueError
    (PolyhedronKind.OCTAHEDRON, ST.PM, (0, 10**5000)),
    (PolyhedronKind.OCTAHEDRON, ST.PM, (-10**5000, 0)),
    (PolyhedronKind.OCTAHEDRON, ST.PM, (10**5000, 1)),
    (PolyhedronKind.CUBE, ST.PP, (10**5000 + 1, 0)),
    (PolyhedronKind.OCTAHEDRON, ST.PM, (10**5000, 0.5)),
    (PolyhedronKind.OCTAHEDRON, ST.PM, (10**5000,)),
], ids=["k_below_j", "negative_k", "odd_j", "cube_parity", "half_j",
        "one_entry"])
def test_huge_orbits_are_rejected_without_printing_them(kind, sym, orbit):
    with pytest.raises(ps.InadmissibleOrbitError) as info:
        ps.build_trig_eigenfunction(kind, sym, orbit)
    assert len(str(info.value)) < 100


def test_large_orbits_with_a_finite_eigenvalue_are_built():
    f = ps.build_trig_eigenfunction(PolyhedronKind.OCTAHEDRON, ST.PM,
                                    (10**150, 0))
    assert math.isfinite(f.lambda_value)
    assert np.isfinite(f.frequencies).all()


@pytest.mark.parametrize("text, want", [
    ("1+", ST.ONE_PLUS), ("1-", ST.ONE_MINUS), ("++", ST.PP), ("--", ST.MM),
    ("+-", ST.PM), ("-+", ST.MP), (" -+ ", ST.MP), ("\t1-\n", ST.ONE_MINUS),
    ("ONE_PLUS", ST.ONE_PLUS), ("one_plus", ST.ONE_PLUS),
    ("One_Minus", ST.ONE_MINUS), ("pp", ST.PP), ("MM", ST.MM),
    ("Mp", ST.MP), (" pM ", ST.PM),
])
def test_symmetry_type_parses_values_and_names(text, want):
    assert ST.parse(text) is want


@pytest.mark.parametrize("text", [
    "", " ", "+", "1", "+++", "+ -", "1+-", "11", "one plus", "oneplus",
    "one-plus", "ONE_PLUS_", "p", "PLUS", "2+", "+1",
])
def test_symmetry_type_rejects_other_strings(text):
    with pytest.raises(ValueError, match="unknown symmetry type"):
        ST.parse(text)


def test_mirror_signs_are_read_off_the_type_name():
    # (bisector sign, edge sign); the cube reads each name reversed
    named = {ST.ONE_PLUS: (1, 1), ST.ONE_MINUS: (-1, -1), ST.PP: (1, 1),
             ST.MM: (-1, -1), ST.PM: (1, -1), ST.MP: (-1, 1)}
    for kind in PolyhedronKind:
        cube = kind is PolyhedronKind.CUBE
        for t, signs in named.items():
            assert ps.analytic._mirror_signs(kind, t) == \
                (signs[::-1] if cube else signs)
    one = (ST.ONE_PLUS, ST.ONE_MINUS)
    two = (ST.PP, ST.MM, ST.PM, ST.MP)
    assert [ps.analytic._admitted_types(kind) for kind in PolyhedronKind] == \
        [one if kind in (PolyhedronKind.TETRAHEDRON,
                         PolyhedronKind.ICOSAHEDRON) else two
         for kind in PolyhedronKind]


def _mirror_pair(sym_type):
    """(first, second) sign of a type, read from its name: "1+" is "++"."""
    name = sym_type.value
    return tuple(1 if c == "+" else -1
                 for c in (name[1] * 2 if name[0] == "1" else name))


def _character_sum(kind, sym_type, orbit):
    """{g xi: sum of chi(g)} over the whole point group of the frequencies.

    The group is generated from two mirrors with their characters.  Square
    lattice: the diagonal mirror (b, a) carries the first sign, the straight
    mirror (a, -b) the second.  Hexagonal lattice in the dual basis: the
    bisector mirror (a + b, -b), which fixes the short vector (1, 0),
    carries the first sign, the edge mirror (b, a), which fixes the long
    vector (1, 1), the second.
    """
    first, second = _mirror_pair(sym_type)
    swap = np.array([[0, 1], [1, 0]])
    if kind is PolyhedronKind.CUBE:
        gens = [(swap, first), (np.array([[1, 0], [0, -1]]), second)]
    else:
        gens = [(np.array([[1, 1], [0, -1]]), first), (swap, second)]
    group = {(1, 0, 0, 1): 1}
    todo = [np.eye(2, dtype=int)]
    while todo:
        g = todo.pop()
        for h, chi in gens:
            hg = h @ g
            key, value = tuple(hg.ravel()), group[tuple(g.ravel())] * chi
            if key not in group:
                group[key] = value
                todo.append(hg)
            assert group[key] == value          # chi is a character
    assert len(group) == (8 if kind is PolyhedronKind.CUBE else 12)
    out = {}
    for key, chi in group.items():
        image = tuple(np.array(key).reshape(2, 2) @ orbit)
        out[image] = out.get(image, 0) + chi
    return {xi: c for xi, c in out.items() if c}


def _exponential_sum(f):
    """{xi: coefficient} of f written as a sum of e(xi . x), times 2 (or 2i)."""
    w = -1 if f.waveform == "sin" else 1
    out = {}
    for s, (a, b) in zip(f.signs, f.coeffs):
        out[a, b] = out.get((a, b), 0) + s
        out[-a, -b] = out.get((-a, -b), 0) + w * s
    return {xi: c for xi, c in out.items() if c}


@pytest.mark.parametrize("kind", list(PolyhedronKind))
def test_terms_are_the_character_sum_over_the_point_group(kind):
    square = kind is PolyhedronKind.CUBE
    checked = 0
    for t in ps.analytic._admitted_types(kind):
        first, second = _mirror_pair(t)
        parity = int(first != second) if square else 0
        for k in range(9):
            for j in range(k + 1):
                if k % 2 != parity or j % 2 != parity or \
                        k * k + j * j + (0 if square else k * j) > 60:
                    continue
                want = _character_sum(kind, t, (k, j))
                if not want:
                    with pytest.raises(ps.InadmissibleOrbitError):
                        ps.build_trig_eigenfunction(kind, t, (k, j))
                    continue
                f = ps.build_trig_eigenfunction(kind, t, (k, j))
                got = _exponential_sum(f)
                assert got.keys() == want.keys()
                ratio = Fraction(want[k, j], got[k, j])
                assert ratio > 0
                assert all(want[xi] == ratio * got[xi] for xi in want)
                assert set(map(abs, f.signs)) == {1}
                checked += 1
    assert checked > 5


def test_readme_example_terms():
    f = ps.build_trig_eigenfunction(PolyhedronKind.OCTAHEDRON, ST.PM, (2, 0))
    assert (list(f.signs), f.waveform, list(f.coeffs)) == \
        ([1, -1, -1], "sin", [(2, 0), (0, 2), (2, -2)])


def test_cube_parity_follows_the_mirror_signs():
    # k and j are both even iff the two mirror signs agree, else both odd
    for t in (ST.PP, ST.MM, ST.PM, ST.MP):
        odd = t in (ST.PM, ST.MP)
        for k in range(1, 8):
            for j in range(1, k):
                if k % 2 == j % 2 == odd:
                    ps.build_trig_eigenfunction(PolyhedronKind.CUBE, t, (k, j))
                else:
                    with pytest.raises(ps.InadmissibleOrbitError,
                                       match="odd" if odd else "even"):
                        ps.build_trig_eigenfunction(PolyhedronKind.CUBE, t,
                                                    (k, j))


def test_frequencies_are_built_once_and_read_only():
    f = ps.build_trig_eigenfunction(PolyhedronKind.ICOSAHEDRON, ST.ONE_PLUS,
                                    (4, 2))
    assert f.frequencies is f.frequencies
    with pytest.raises(ValueError, match="read-only"):
        f.frequencies[0, 0] = 1.0


def test_frequencies_and_tetra_eigenvalues_equal_their_loops():
    u, v = np.array(ps.analytic.U_VEC), np.array(ps.analytic.V_VEC)
    for f in all_functions(nmax=200):
        if f.kind is PolyhedronKind.CUBE:
            want = [(a / 2.0, b / 2.0) for a, b in f.coeffs]
        else:
            want = [a * u + b * v for a, b in f.coeffs]
        assert np.array_equal(f.frequencies, np.array(want))
    lines = ps.exact_spectrum(PolyhedronKind.TETRAHEDRON, 5000)
    want = [float(sl.value) for sl in lines for _ in range(sl.multiplicity)]
    assert np.array_equal(ps.exact_tetra_eigenvalues(5000),
                          np.array(want) * ps.analytic.TRIANGLE_NORMALIZER)


def test_per_term_eigen_relation():
    for f in all_functions(with_enlarged=True):
        lam = f.lambda_value * 3 ** f.enlargement_depth
        for freq in f.frequencies:
            assert abs((2 * math.pi) ** 2 * (freq @ freq) - lam) \
                <= 1e-12 * max(1.0, lam)


def test_term_counts():
    for f in all_functions():
        assert len(f.signs) in (2, 3, 4, 6)


def test_waveforms_by_type():
    for f in all_functions():
        if f.kind is PolyhedronKind.OCTAHEDRON and \
                f.sym_type in (ST.PM, ST.MP):
            assert f.waveform == "sin"
        else:
            assert f.waveform == "cos"


def test_evaluate_is_the_raw_trigonometric_sum():
    rng = np.random.default_rng(0)
    # the enlargement similarity: turn 30 degrees, shrink by sqrt(3)
    similarity = np.array([[0.5, -0.5 / SQRT3], [0.5 / SQRT3, 0.5]])
    for f in all_functions(nmax=28, with_enlarged=True):
        net = ps.build_net(f.kind)
        pts = rng.uniform(-2.0, 4.0, size=(40, 2))
        got = ps.evaluate(f, pts, check_domain=False)
        q = pts - np.array(net.formula_origin)
        if f.enlargement_depth:
            q = q @ similarity.T
        ph = 2 * math.pi * (q @ f.frequencies.T)
        w = np.sin(ph) if f.waveform == "sin" else np.cos(ph)
        want = w @ np.array(f.signs, float)
        tol = 1e-12 * max(1.0, sum(abs(s) for s in f.signs))
        assert np.abs(got - want).max() < tol


def test_half_turn_parity():
    rng = np.random.default_rng(1)
    for f in all_functions(nmax=28):
        net = ps.build_net(f.kind)
        c = np.array(net.formula_origin)
        pts = c + rng.uniform(-1, 1, size=(30, 2))
        v1 = ps.evaluate(f, pts, check_domain=False)
        v2 = ps.evaluate(f, 2 * c - pts, check_domain=False)
        sign = -1.0 if f.waveform == "sin" else 1.0
        assert np.abs(v2 - sign * v1).max() < 1e-9


def test_reflection_signs():
    rng = np.random.default_rng(2)
    for f in all_functions(nmax=28, with_enlarged=True):
        for (px, py), (dx, dy), sign in ps.mirror_lines(f):
            d = np.array([dx, dy]) / math.hypot(dx, dy)
            R = 2 * np.outer(d, d) - np.eye(2)
            pts = rng.uniform(-1.5, 2.5, size=(25, 2))
            ref = (pts - [px, py]) @ R.T + [px, py]
            v1 = ps.evaluate(f, pts, check_domain=False)
            v2 = ps.evaluate(f, ref, check_domain=False)
            assert np.abs(v2 - sign * v1).max() < 1e-9


def test_skew_type_vanishes_on_mirror_lines():
    f = ps.build_trig_eigenfunction(PolyhedronKind.TETRAHEDRON,
                                    ST.ONE_MINUS, (4, 2))
    for (px, py), (dx, dy), sign in ps.mirror_lines(f):
        assert sign == -1
        ts = np.linspace(-1, 2, 30)
        pts = np.column_stack([px + ts * dx, py + ts * dy])
        vals = ps.evaluate(f, pts, check_domain=False)
        assert np.abs(vals).max() < 1e-9


def test_glued_edge_continuity():
    for f in all_functions(nmax=48, with_enlarged=True):
        net = ps.build_net(f.kind)
        for g in net.identifications:
            ss = np.linspace(0.0, 1.0, 13)
            pa = np.array([ps.edge_point(net, g.face_a, g.edge_a, s)
                           for s in ss])
            pb = []
            for s in ss:
                fb, eb, t = ps.glue_map(net, g.face_a, g.edge_a, s)
                pb.append(ps.edge_point(net, fb, eb, t))
            va = ps.evaluate(f, pa)
            vb = ps.evaluate(f, np.array(pb))
            assert np.abs(va - vb).max() < 1e-9, \
                (f.kind, f.sym_type, f.orbit, f.enlargement_depth)


def _interior_points(net, n, rng):
    pts = []
    faces = net.faces
    for i in range(n):
        f = faces[i % len(faces)]
        v = np.array(f.vertices)
        w = rng.dirichlet(np.ones(len(v)))
        w = 0.6 * w + 0.4 / len(v)   # keep the FD stencil inside the face
        pts.append(w @ v)
    return np.array(pts)


@pytest.mark.parametrize("kind,sym,orbit", [
    (PolyhedronKind.TETRAHEDRON, ST.ONE_PLUS, (2, 2)),
    (PolyhedronKind.TETRAHEDRON, ST.ONE_MINUS, (4, 2)),
    (PolyhedronKind.OCTAHEDRON, ST.PM, (2, 0)),
    (PolyhedronKind.OCTAHEDRON, ST.MP, (2, 2)),
    (PolyhedronKind.ICOSAHEDRON, ST.ONE_PLUS, (2, 0)),
    (PolyhedronKind.CUBE, ST.PM, (3, 1)),
    (PolyhedronKind.CUBE, ST.MM, (4, 2)),
])
def test_five_point_laplacian(kind, sym, orbit):
    f = ps.build_trig_eigenfunction(kind, sym, orbit)
    net = ps.build_net(kind)
    rng = np.random.default_rng(4)
    pts = _interior_points(net, 100, rng)
    h = 1e-3
    lam = f.lambda_value
    sup = max(abs(s) for s in f.signs) * len(f.signs)
    tol = 10 * h ** 2 * lam ** 2 * sup
    c = ps.evaluate(f, pts, check_domain=False)
    lap = (ps.evaluate(f, pts + [h, 0], check_domain=False)
           + ps.evaluate(f, pts - [h, 0], check_domain=False)
           + ps.evaluate(f, pts + [0, h], check_domain=False)
           + ps.evaluate(f, pts - [0, h], check_domain=False) - 4 * c) / h ** 2
    assert np.abs(lap + lam * c).max() < tol


def test_rayleigh_consistency_up_to_16(bench):
    for kind in PolyhedronKind:
        mesh = bench.mesh(kind, 32)
        K, M = bench.matrices(kind, 32)
        for t, orb in ps.admissible_orbits(kind, 16):
            f = ps.build_trig_eigenfunction(kind, t, orb)
            vals = ps.evaluate(f, mesh.planar_vertices, check_domain=False)
            v = np.empty(mesh.dof_count)
            v[mesh.dof_of] = vals
            num = v @ (K @ v)
            den = v @ (M @ v)
            if f.lambda_value == 0:
                assert num / den < 1e-10
            else:
                assert abs(num / den - f.lambda_value) <= 0.02 * f.lambda_value


def test_evaluate_out_of_domain():
    f = ps.build_trig_eigenfunction(PolyhedronKind.TETRAHEDRON,
                                    ST.ONE_PLUS, (2, 0))
    with pytest.raises(ps.OutOfDomainError):
        ps.evaluate(f, (-5.0, 0.3))
    ps.evaluate(f, (-5.0, 0.3), check_domain=False)  # well-defined anyway


@pytest.mark.parametrize("kind, sym_type, orbit, enlarged", [
    (PolyhedronKind.TETRAHEDRON, ST.ONE_PLUS, (2, 0), False),
    (PolyhedronKind.OCTAHEDRON, ST.PM, (4, 2), False),
    (PolyhedronKind.OCTAHEDRON, ST.MP, (4, 2), True),
    (PolyhedronKind.ICOSAHEDRON, ST.ONE_MINUS, (4, 2), False),
], ids=["tetrahedron", "octahedron", "octahedron_enlarged", "icosahedron"])
def test_far_points_fold_like_their_lattice_translates(kind, sym_type, orbit,
                                                       enlarged):
    f = ps.build_trig_eigenfunction(kind, sym_type, orbit)
    if enlarged:
        f = ps.enlarge(f)
    near = ps.evaluate(f, (1.25, 0.3), check_domain=False)
    # (+-999999, 0) is in the translation lattice {(i, j) : i = j mod 3}
    for x in (1e6 + 0.25, 1.25 - 999_999):
        far = ps.evaluate(f, (x, 0.3), check_domain=False)
        assert far == pytest.approx(near, abs=1e-7)


@pytest.mark.parametrize("kind", [PolyhedronKind.TETRAHEDRON,
                                  PolyhedronKind.OCTAHEDRON,
                                  PolyhedronKind.ICOSAHEDRON])
def test_nan_points_evaluate_to_nan_without_warnings(kind):
    f = all_functions(4, kinds=[kind])[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for point in ((math.nan, 0.3), (0.3, math.nan)):
            assert math.isnan(ps.evaluate(f, point, check_domain=False))


# ---------------------------------------------------------------------------
# enlargement


def test_enlarge_scales_lambda_by_exactly_one_third():
    f = ps.build_trig_eigenfunction(PolyhedronKind.OCTAHEDRON, ST.PP, (2, 0))
    g = ps.enlarge(f)
    assert g.normalized == Fraction(f.norm_value, 3)
    assert g.normalized * 3 == f.normalized
    assert g.lambda_value == pytest.approx(f.lambda_value / 3, rel=1e-15)
    f16 = ps.build_trig_eigenfunction(PolyhedronKind.OCTAHEDRON, ST.PP, (4, 0))
    assert ps.enlarge(f16).normalized == Fraction(16, 3)


def test_enlarge_rejects_wrong_inputs():
    t = ps.build_trig_eigenfunction(PolyhedronKind.TETRAHEDRON,
                                    ST.ONE_PLUS, (2, 0))
    with pytest.raises(ps.NotOctahedronError):
        ps.enlarge(t)
    f = ps.build_trig_eigenfunction(PolyhedronKind.OCTAHEDRON, ST.PM, (2, 0))
    with pytest.raises(ps.NotOneDimensionalTypeError):
        ps.enlarge(ps.enlarge(f))


def test_enlarged_functions_solve_the_eigenproblem():
    rng = np.random.default_rng(9)
    net = ps.build_net(PolyhedronKind.OCTAHEDRON)
    for t, orb in ps.admissible_orbits(PolyhedronKind.OCTAHEDRON, 16):
        f = ps.build_trig_eigenfunction(PolyhedronKind.OCTAHEDRON, t, orb)
        if f.norm_value == 0:
            continue
        g = ps.enlarge(f)
        pts = _interior_points(net, 40, rng)
        h = 1e-3
        lam = g.lambda_value
        sup = len(g.signs)
        tol = 10 * h ** 2 * (lam * 3) ** 2 * sup
        c = ps.evaluate(g, pts, check_domain=False)
        lap = (ps.evaluate(g, pts + [h, 0], check_domain=False)
               + ps.evaluate(g, pts - [h, 0], check_domain=False)
               + ps.evaluate(g, pts + [0, h], check_domain=False)
               + ps.evaluate(g, pts - [0, h], check_domain=False)
               - 4 * c) / h ** 2
        assert np.abs(lap + lam * c).max() < tol
