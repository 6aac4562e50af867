import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import polyspec as ps
from polyspec import PolyhedronKind
from polyspec.analysis import counting_constants
from polyspec.analytic import LATTICE_LIMIT

from conftest import KINDS

SQRT3 = math.sqrt(3.0)
ND = 4 * math.pi ** 2 / 3


@pytest.fixture(scope="module")
def tetra_series():
    return ps.make_counting_series(
        PolyhedronKind.TETRAHEDRON, ps.exact_tetra_eigenvalues(220))


@pytest.mark.parametrize("call, message", [
    (lambda s: ps.normalize(math.nan, PolyhedronKind.CUBE),
     "eigenvalue must be >= 0"),
    (lambda s: ps.counting(s, math.nan), "t must be >= 0"),
    (lambda s: ps.remainder_series(s, math.nan, 5), "tmax must be > 0"),
    (lambda s: ps.classify(math.nan, PolyhedronKind.CUBE),
     "normalized eigenvalue must be >= 0"),
    (lambda s: ps.classify(2.0, PolyhedronKind.CUBE, tol=math.nan),
     "tol must be > 0"),
    (lambda s: ps.make_counting_series(PolyhedronKind.CUBE, [0, math.nan, 5]),
     "eigenvalues must be finite"),
    (lambda s: ps.make_counting_series(PolyhedronKind.CUBE, [0, 5, math.inf]),
     "eigenvalues must be finite"),
], ids=["normalize", "counting", "remainder_series", "classify_value",
        "classify_tol", "series_nan", "series_inf"])
def test_nan_arguments_are_rejected(tetra_series, call, message):
    with pytest.raises(ValueError, match=message):
        call(tetra_series)


def test_normalize_examples():
    assert ps.normalize(0.0, PolyhedronKind.OCTAHEDRON) == 0
    assert ps.normalize(ND * 7, PolyhedronKind.TETRAHEDRON) == pytest.approx(7, rel=1e-15)
    assert ps.normalize(math.pi ** 2 * 2, PolyhedronKind.CUBE) == pytest.approx(2, rel=1e-15)
    with pytest.raises(ValueError):
        ps.normalize(-1.0, PolyhedronKind.CUBE)


def test_weyl_slopes_are_area_over_4pi():
    # literal slopes; the values derived from the net match them bit for bit
    slopes = {PolyhedronKind.TETRAHEDRON: SQRT3 / (4 * math.pi),
              PolyhedronKind.OCTAHEDRON: SQRT3 / (2 * math.pi),
              PolyhedronKind.ICOSAHEDRON: 5 * SQRT3 / (4 * math.pi),
              PolyhedronKind.CUBE: 3 / (2 * math.pi)}
    for kind in KINDS:
        slope, _ = counting_constants(kind)
        assert slope == slopes[kind]
        assert slope == ps.build_net(kind).area / (4 * math.pi)
        assert ps.make_counting_series(kind, [0.0]).weyl_slope == slope


def test_counting_constants():
    from fractions import Fraction
    want = {PolyhedronKind.TETRAHEDRON: Fraction(1, 2),
            PolyhedronKind.OCTAHEDRON: Fraction(5, 12),
            PolyhedronKind.ICOSAHEDRON: Fraction(11, 30),
            PolyhedronKind.CUBE: Fraction(7, 18)}
    for kind in KINDS:
        _, c = counting_constants(kind)
        assert type(c) is Fraction and c == want[kind]
        assert ps.make_counting_series(kind, [0.0]).c == float(want[kind])


def test_aitken_examples():
    assert ps.aitken_extrapolate(2.0, 2.0, 2.0) == 2.0
    assert ps.aitken_extrapolate(1.4, 1.2, 1.1) == pytest.approx(1.0, abs=1e-12)


@given(st.floats(-10, 10), st.floats(0.05, 5),
       st.floats(min_value=0.05, max_value=0.8))
@settings(max_examples=60, deadline=None)
def test_aitken_recovers_geometric_limits(limit, amp, theta):
    seq = [limit + amp * theta ** k for k in range(3)]
    got = ps.aitken_extrapolate(*seq)
    assert got == pytest.approx(limit, abs=1e-8 * max(1, abs(limit), amp))


def test_counting_function(tetra_series):
    s = tetra_series
    assert ps.counting(s, 0.5 * ND) == 1     # below the first nonzero value
    assert ps.counting(s, ND * (1 + 1e-12)) == 4
    rng = np.random.default_rng(0)
    for t in rng.uniform(0, ND * 200, 300):
        assert ps.counting(s, t) == ps.tetra_count_exact(t)


def test_counting_series_validation():
    with pytest.raises(ValueError):
        ps.CountingSeries(np.array([1.0, 0.5]), 1.0, 0.5)
    with pytest.raises(ValueError):
        ps.CountingSeries(np.array([5.0, 6.0]), 1.0, 0.5)  # missing zero mode
    with pytest.raises(ValueError, match="nonempty"):
        ps.CountingSeries(np.array([]), 1.0, 0.5)


def test_remainder_at_zero(tetra_series):
    table = ps.remainder_series(tetra_series, ND, 3)
    assert table.d[0] == pytest.approx(0.5, abs=1e-12)
    assert table.a[0] == pytest.approx(0.5, abs=1e-12)


def test_averaged_remainder_matches_quadrature(tetra_series):
    s = tetra_series
    ts = [ND * 0.7, ND * 3.3, ND * 11.7]
    for t in ts:
        exact = float(ps.averaged_remainder(s, np.array([t]))[0])
        # adaptive quadrature of D between consecutive eigenvalues
        knots = [0.0] + [x for x in s.eigenvalues if 0 < x < t] + [t]
        total = 0.0
        for a, b in zip(knots[:-1], knots[1:]):
            if b - a < 1e-15:
                continue
            val, _ = quad(lambda x: float(ps.remainder(s, np.array([x]))[0]),
                          a, b, epsabs=1e-12, limit=200)
            total += val
        assert abs(exact - total / t) < 1e-9


def test_remainder_structure(tetra_series):
    s = tetra_series
    # between eigenvalues D decreases linearly with slope -weyl_slope
    t0, t1 = ND * 1.2, ND * 2.8   # open interval between values 1 and 3
    d0 = float(ps.remainder(s, np.array([t0]))[0])
    d1 = float(ps.remainder(s, np.array([t1]))[0])
    assert d1 - d0 == pytest.approx(-s.weyl_slope * (t1 - t0), abs=1e-12)
    # unit jump of size multiplicity at an eigenvalue
    lam = ND * 3
    before = ps.counting(s, lam * (1 - 1e-9))
    after = ps.counting(s, lam * (1 + 1e-9))
    assert after - before == ps.hexagonal_multiplicity(3)


def test_counting_slope_least_squares():
    ev = ps.exact_tetra_eigenvalues(2000)
    s = ps.make_counting_series(PolyhedronKind.TETRAHEDRON, ev)
    ts = np.linspace(100 * ND, 2000 * ND, 400)
    ns = np.array([ps.counting(s, t) for t in ts], dtype=float)
    slope = np.polyfit(ts, ns, 1)[0]
    assert abs(slope - SQRT3 / (4 * math.pi)) <= 0.02 * SQRT3 / (4 * math.pi)


def test_remainder_series_needs_two_samples(tetra_series):
    with pytest.raises(ValueError, match="samples must be >= 2"):
        ps.remainder_series(tetra_series, ND, 1)


def test_remainder_series_coverage(tetra_series):
    s = tetra_series
    with pytest.raises(ps.InsufficientSpectrumError):
        ps.remainder_series(s, s.coverage * 2, 10)
    table = ps.remainder_series(s, ND * 210, 64)
    tg = math.sqrt(s.coverage)
    assert np.all(np.isnan(table.g[table.t > tg + 1e-9]))
    assert not np.any(np.isnan(table.g[table.t <= tg]))


def test_g_equals_sqrt_t_times_a_of_t_squared(tetra_series):
    s = tetra_series
    t = 12.3
    g = math.sqrt(t) * float(ps.averaged_remainder(s, np.array([t * t]))[0])
    table = ps.remainder_series(s, t, 2)
    assert table.g[-1] == pytest.approx(g, rel=1e-12)


def test_classify_examples():
    c = ps.classify(8.06, PolyhedronKind.CUBE, 0.02)
    assert c.label == "singular"
    c = ps.classify(8.004, PolyhedronKind.CUBE, 0.02)
    assert (c.label, int(c.value), c.witness) == ("nonsingular", 8, (2, 2))
    c = ps.classify(1.3334, PolyhedronKind.OCTAHEDRON, 0.02)
    assert (c.label, str(c.value), c.tag) == ("nonsingular", "4/3", "third")
    c = ps.classify(9.33771, PolyhedronKind.OCTAHEDRON, 0.02)
    assert (c.label, str(c.value)) == ("nonsingular", "28/3")
    assert ps.classify(9.18907, PolyhedronKind.OCTAHEDRON, 0.02).label == \
        "singular"


def test_classify_is_tolerance_monotone():
    vals = [0.42105, 1.9, 4.003, 8.06, 9.33]
    for v in vals:
        for kind in (PolyhedronKind.CUBE, PolyhedronKind.OCTAHEDRON):
            small = ps.classify(v, kind, 0.01)
            for tol in (0.02, 0.05, 0.2):
                big = ps.classify(v, kind, tol)
                if small.label == "nonsingular":
                    assert big.label == "nonsingular"


def rebuilt_classify(v, kind, tol):
    """Reference classify: a fresh spectrum up to v + tol + 1 for each value."""
    line = min(ps.exact_spectrum(kind, v + tol + 1.0),
               key=lambda sl: abs(float(sl.value) - v))
    if abs(float(line.value) - v) <= tol:
        return ps.Classification("nonsingular", line.value, line.witness,
                                 line.tag)
    return ps.Classification("singular", None, None, None)


ORACLE_TOLS = (1e-9, 0.02, 0.5, 2.0)


@functools.cache
def line_values(kind):
    return [float(sl.value) for sl in ps.exact_spectrum(kind, 3000)]


@st.composite
def classify_cases(draw):
    """(value, kind, tol): random values, exact lines, lines +- tol (the
    boundary) and midpoints between neighbouring lines (ties)."""
    kind = draw(st.sampled_from(KINDS))
    tol = draw(st.sampled_from(ORACLE_TOLS))
    lines = line_values(kind)
    i = draw(st.integers(0, len(lines) - 2))
    value = draw(st.sampled_from([
        lines[i], lines[i] - tol, lines[i] + tol,
        (lines[i] + lines[i + 1]) / 2,
        draw(st.floats(0, lines[-1]))]))
    assume(value >= 0)
    return value, kind, tol


@given(classify_cases())
@settings(max_examples=400, deadline=None)
def test_classify_matches_rebuilt_spectrum(case):
    assert ps.classify(*case) == rebuilt_classify(*case)


@given(st.floats(0, LATTICE_LIMIT - 3), st.sampled_from(KINDS),
       st.sampled_from(ORACLE_TOLS))
@settings(max_examples=25, deadline=None)
def test_classify_matches_rebuilt_spectrum_up_to_the_limit(value, kind, tol):
    assert ps.classify(value, kind, tol) == rebuilt_classify(value, kind, tol)


@pytest.mark.parametrize("kind", KINDS)
def test_classify_range_error_matches_rebuilt_spectrum(kind):
    tol = 0.02
    edge = LATTICE_LIMIT - tol - 1.0
    for value in (edge, math.nextafter(edge, 0), math.nextafter(edge, math.inf),
                  LATTICE_LIMIT, math.inf):
        try:
            want = rebuilt_classify(value, kind, tol)
        except ValueError:
            with pytest.raises(ValueError, match="at most 100000"):
                ps.classify(value, kind, tol)
        else:
            assert ps.classify(value, kind, tol) == want


def test_classify_keeps_one_table_per_kind(monkeypatch):
    # the largest table of each kind serves every smaller bound, so a value
    # below it builds nothing and the cache never holds a second table
    builds = []

    def counted(kind, nmax):
        builds.append((kind, nmax))
        return ps.exact_spectrum(kind, nmax)

    monkeypatch.setattr(ps.analysis, "_TABLES", {})
    monkeypatch.setattr(ps.analysis, "exact_spectrum", counted)
    for kind in KINDS:
        for value in (900.0, 3.0, 40.0, 1022.0, 5000.0, 0.0, 900.5, 8190.0):
            assert ps.classify(value, kind) == \
                rebuilt_classify(value, kind, 0.02)
    assert builds == [(kind, b) for kind in KINDS for b in (1024, 8192)]
    assert {kind: table[0] for kind, table in ps.analysis._TABLES.items()} \
        == {kind: 8192 for kind in KINDS}


def test_classify_range_error_names_value_and_tol():
    with pytest.raises(ValueError) as info:
        ps.classify(200000, PolyhedronKind.OCTAHEDRON)
    message = str(info.value)
    assert "200000" in message and "tol 0.02" in message
    assert "at most 100000" in message and "200001" not in message


def test_group_clusters():
    vals = [0.0, 1.0001, 1.0002, 1.0, 3.0, 3.0004, 9.5]
    groups = ps.group_clusters(vals, rel_tol=0.005)
    assert [m for _, m in groups] == [1, 3, 2, 1]


def test_cluster_rules_split_alike():
    # gaps 0.5 at value 0.5 and 2 at value 4 sit exactly on the bound
    # 0.5 * max(1, value) and do not split; 1 at 1.5 and 8 at 12 do
    vals = [0.0, 0.5, 1.5, 2.0, 4.0, 12.0, 16.0]
    grouped = [n for _, n in ps.group_clusters(vals, rel_tol=0.5)]
    assert grouped == [2, 3, 2]
    assert ps.group_clusters([], rel_tol=0.5) == []
