"""Exact spectra and closed-form trigonometric eigenfunctions.

The triangle-faced surfaces lift to the hexagonal torus: eigenvalues are
(4 pi^2 / 3) N with N = j^2 + k^2 + jk, and the one-dimensional symmetry
types are finite cosine/sine sums over dual-lattice orbits.  The cube's
eigenfunctions are cosine sums over the integer lattice with eigenvalue
pi^2 (j^2 + k^2), k and j of equal parity.  Each eigenfunction lifts to a
periodic trigonometric polynomial on the plane, so its value anywhere on a
net is that polynomial summed at the point; the octahedron enlargement first
maps the point by a sqrt(3) similarity, scaling the eigenvalue by 1/3.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .errors import (InadmissibleOrbitError, NotOctahedronError,
                     NotOneDimensionalTypeError, OutOfDomainError)
from .net import (SQRT3, PolyhedronKind, build_net, face_containing,
                  lattice_to_xy)

# dual-lattice generators of the hexagonal torus: |u|^2 = |v|^2 = 1/3, u.v = 1/6
U_VEC = (0.5, SQRT3 / 6.0)
V_VEC = (0.0, SQRT3 / 3.0)

TRIANGLE_NORMALIZER = 4.0 * math.pi ** 2 / 3.0
SQUARE_NORMALIZER = math.pi ** 2

# largest normalized bound the lattice side accepts; exact_spectrum stays
# well under a second up to here for every kind
LATTICE_LIMIT = 1e5


def normalizer(kind: PolyhedronKind) -> float:
    """Division constant turning raw eigenvalues into lattice-integer scale."""
    if kind is PolyhedronKind.CUBE:
        return SQUARE_NORMALIZER
    return TRIANGLE_NORMALIZER


class SymmetryType(enum.Enum):
    """One-dimensional symmetry types.

    ONE_PLUS / ONE_MINUS apply to the tetrahedron and icosahedron (symmetric /
    skew-symmetric under every reflection).  The two-character types apply to
    the octahedron (first sign: in-face reflections, second: face-to-face) and
    the cube (first: diagonal reflections, second: straight reflections).
    A type is a character of the reflection group; its name gives its two
    mirror signs, which fix the terms, the waveform, the cube's parity rule
    and which nongeneric orbits are excluded (see _terms).
    """

    ONE_PLUS = "1+"
    ONE_MINUS = "1-"
    PP = "++"
    MM = "--"
    PM = "+-"
    MP = "-+"

    @classmethod
    def parse(cls, name: str) -> "SymmetryType":
        key = name.strip()
        for t in cls:
            if t.value == key or t.name.lower() == key.lower():
                return t
        raise ValueError(f"unknown symmetry type {name!r}")


# A type's name spells its (bisector-family sign, edge-family sign).  For the
# octahedron the bisector family is the in-face reflections and the edge
# family the face-to-face ones.  On the cube the two families swap: the first
# character is the diagonal family (edge lines and face diagonals), the second
# the straight family (face bisectors), so its pair is read reversed.
def _mirror_signs(kind: PolyhedronKind, sym_type: SymmetryType) -> tuple:
    """(bisector sign, edge sign): + is 1, - is -1, 1+ and 1- repeat it."""
    name = sym_type.value.replace("1", sym_type.value[1])
    signs = tuple(1 if c == "+" else -1 for c in name)
    return signs[::-1] if kind is PolyhedronKind.CUBE else signs


def _admitted_types(kind: PolyhedronKind) -> tuple:
    """The one-dimensional symmetry types of a kind, in enum order."""
    one = kind in (PolyhedronKind.TETRAHEDRON, PolyhedronKind.ICOSAHEDRON)
    return tuple(t for t in SymmetryType if t.value.startswith("1") == one)


# ---------------------------------------------------------------------------
# lattice counting


def _check_bound(bound, scale=1.0):
    """The normalized bound bound / scale, if it is at most LATTICE_LIMIT.

    An int beyond the float range counts as infinite, so it raises the same
    ValueError as inf instead of an OverflowError.
    """
    try:
        normalized = bound / scale
    except OverflowError:
        normalized = math.inf
    if not normalized <= LATTICE_LIMIT:     # also rejects nan
        raise ValueError(f"normalized bound must be finite and at most "
                         f"{LATTICE_LIMIT:g}, got {normalized:g}")
    return normalized


def _sweep(nmax: int, square: bool = False):
    """Norms and orbits of every canonical k >= j >= 0 with Q(k, j) <= nmax.

    Q is k^2 + kj + j^2 (hexagonal) or k^2 + j^2 (square).  Returns int
    arrays (q, k, j) in k-major order, i.e. lexicographic in (k, j).
    """
    k, j = np.tril_indices(math.isqrt(nmax) + 1)
    q = k * k + j * j + (0 if square else k * j)
    keep = q <= nmax
    return q[keep], k[keep], j[keep]


def _orbit_size(k, j):
    # eigenfunctions per hexagonal orbit: half of its 12 lattice points, or of
    # 6 when j = 0 or j = k; the constant counts once
    return np.where(k == 0, 1, np.where((j == 0) | (j == k), 3, 6))


def hexagonal_multiplicity(n: int) -> int:
    """Number of eigenfunctions of the hexagonal form with j^2+k^2+jk = n.

    Defined as half the number of nonzero integer solutions; n = 0 gives 1
    (the constant).  Raises ValueError unless n is an integer with
    0 <= n <= LATTICE_LIMIT.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    _check_bound(n)
    if n % 1:
        raise ValueError(f"n must be an integer, got {n}")
    q, k, j = _sweep(int(n))
    return int(_orbit_size(k, j)[q == n].sum())


def torus_count(t: float) -> int:
    """Number of torus eigenvalues (with multiplicity) not exceeding t.

    Raises ValueError unless 0 <= t / TRIANGLE_NORMALIZER <= LATTICE_LIMIT.
    """
    return 2 * tetra_count_exact(t) - 1


def tetra_count_exact(t: float) -> int:
    """Exact tetrahedron counting function; raises ValueError as torus_count."""
    if t < 0:
        raise ValueError("t must be >= 0")
    q, k, j = _sweep(int(_check_bound(t, TRIANGLE_NORMALIZER)) + 1)
    # compare the products, not q against t / normalizer: at t = n * normalizer
    # the quotient can round below n
    keep = q * TRIANGLE_NORMALIZER <= t
    return int(_orbit_size(k[keep], j[keep]).sum())


@dataclass(frozen=True)
class SpectrumLine:
    """One exact spectrum entry: normalized value, multiplicity, provenance.

    For the tetrahedron the multiplicity is exact; for the other kinds the
    operation only asserts membership and reports multiplicity 1.
    """

    value: Fraction
    multiplicity: int
    tag: str                 # hexLattice | squareLattice | third
    witness: tuple | None


def exact_spectrum(kind: PolyhedronKind, nmax: float):
    """Known analytic (nonsingular) normalized eigenvalues up to nmax.

    Tetrahedron: the full spectrum with exact multiplicities.  Octahedron:
    the even-orbit values and their thirds (membership only).  Icosahedron:
    the even-orbit values.  Cube: j^2 + k^2 with j, k of equal parity.
    Each witness is the smallest admissible (k, j) with k >= j >= 0.
    Raises ValueError unless 0 < nmax <= LATTICE_LIMIT.
    """
    if not isinstance(kind, PolyhedronKind):
        raise ValueError(f"unhandled kind {kind}")
    if nmax <= 0:
        raise ValueError("nmax must be > 0")
    _check_bound(nmax)
    square = kind is PolyhedronKind.CUBE
    octa = kind is PolyhedronKind.OCTAHEDRON
    # the octahedron adds n/3 for each value n with 3 not dividing n (else n/3
    # is itself a value); floor(3 nmax) is exact, so a float nmax rounds no
    # line in or out
    q, k, j = _sweep(math.floor(3 * Fraction(nmax) if octa else nmax),
                     square)
    if kind is PolyhedronKind.TETRAHEDRON:
        keep = np.full(q.shape, True)
        mult = np.bincount(q, weights=_orbit_size(k, j)).astype(int).tolist()
    else:
        keep = (k - j) % 2 == 0 if square else (k % 2 == 0) & (j % 2 == 0)
        mult = [1] * (int(q.max()) + 1)
    tag = "squareLattice" if square else "hexLattice"
    # np.unique reports each norm's first occurrence, which is its smallest
    # orbit (k, j) because the sweep is k-major
    norms, first = np.unique(q[keep], return_index=True)
    orbits = zip(k[keep][first].tolist(), j[keep][first].tolist())
    lines = []
    for n, w in zip(norms.tolist(), orbits):
        if n <= nmax:
            lines.append(SpectrumLine(Fraction(n), mult[n], tag, w))
        if octa and n % 3:
            lines.append(SpectrumLine(Fraction(n, 3), 1, "third", w))
    if octa:
        # 3 * value is an integer, and ints compare far faster than Fractions
        lines.sort(key=lambda sl: 3 * sl.value.numerator
                   // sl.value.denominator)
    return lines


def exact_tetra_eigenvalues(nmax: float) -> np.ndarray:
    """Raw tetrahedron eigenvalues (with multiplicity) up to normalized nmax."""
    lines = exact_spectrum(PolyhedronKind.TETRAHEDRON, nmax)
    return np.repeat([float(sl.value) for sl in lines],
                     [sl.multiplicity for sl in lines]) * TRIANGLE_NORMALIZER


# ---------------------------------------------------------------------------
# trigonometric eigenfunctions


@dataclass(frozen=True)
class TrigEigenfunction:
    """A finite cosine/sine sum that solves -Lap u = lambda u on the surface.

    coeffs are integer coefficient pairs in the dual basis (triangle kinds) or
    half-integer frequency numerators (cube); signs the per-term signs;
    waveform "cos" or "sin"; the type's two mirror signs fix all three.
    enlargement_depth 1 marks an octahedron enlargement (eigenvalue / 3).
    """

    kind: PolyhedronKind
    sym_type: SymmetryType
    orbit: tuple
    signs: tuple
    waveform: str
    coeffs: tuple
    enlargement_depth: int = 0

    @property
    def norm_value(self) -> int:
        k, j = self.orbit
        if self.kind is PolyhedronKind.CUBE:
            return k * k + j * j
        return k * k + j * j + k * j

    @property
    def normalized(self) -> Fraction:
        return Fraction(self.norm_value, 3 ** self.enlargement_depth)

    @property
    def lambda_value(self) -> float:
        return (normalizer(self.kind) * self.norm_value
                / 3 ** self.enlargement_depth)

    @cached_property
    def frequencies(self) -> np.ndarray:
        """Base-term frequency vectors (cycles per unit length), shape (T, 2).

        Built once, read-only; an enlarged function keeps them, and evaluate
        maps its points by the enlargement similarity instead.
        """
        c = np.array(self.coeffs, dtype=np.float64)
        if self.kind is PolyhedronKind.CUBE:
            freqs = c / 2.0
        else:
            freqs = c[:, :1] * np.array(U_VEC) + c[:, 1:] * np.array(V_VEC)
        freqs.flags.writeable = False
        return freqs


def _terms(kind, sym_type, k, j):
    """(signs, waveform, coeffs) of the type's character sum over (k, j).

    The sum of chi(g) e(g xi) over the frequency lattice's point group pairs
    g xi with -g xi into a cosine (chi(-1) = 1) or sine (chi(-1) = -1), so it
    runs over coset representatives of {1, -1}.  Terms +-w xi that coincide
    merge, w the waveform's sign under -1, and their coefficients are divided
    by the largest magnitude; None if all of them vanish.
    """
    bis, edge = _mirror_signs(kind, sym_type)
    if kind is PolyhedronKind.CUBE:
        # xi, sigma xi, tau xi, tau sigma xi: sigma(a, b) = (b, a) and
        # tau(a, b) = (a, -b) have characters edge and bis, -1 is (sigma tau)^2
        wave, reps = 1, [((k, j), 1), ((j, k), edge), ((k, -j), bis),
                         ((j, -k), bis * edge)]
    else:
        # R^i xi and R^i sigma xi: the 60 degree turn R(a, b) = (a + b, -a)
        # has character bis edge and R^3 = -1
        wave, reps, x, y = bis * edge, [], (k, j), (j, k)
        for chi in (1, wave, 1):
            reps += [(x, chi), (y, chi * edge)]
            x, y = (x[0] + x[1], -x[0]), (y[0] + y[1], -y[0])
    if k == 0:          # the constant keeps one unit term per coset pair
        n = len(reps) // 2
        return ([1] * n, "cos", [(0, 0)] * n) if bis == edge == 1 else None
    merged = {}
    for (a, b), chi in reps:
        key, c = ((-a, -b), wave * chi) if (-a, -b) in merged else ((a, b), chi)
        merged[key] = merged.get(key, 0) + c
    peak = max(map(abs, merged.values()))
    if not peak:
        return None
    return ([c // peak for c in merged.values()],
            "sin" if wave < 0 else "cos", list(merged))


def build_trig_eigenfunction(kind: PolyhedronKind, sym_type: SymmetryType,
                             orbit) -> TrigEigenfunction:
    """Construct the eigenfunction of one admissible (kind, type, orbit).

    Orbits are given as (k, j) with k >= j >= 0; k > j > 0 is the generic
    case, j = 0 and j = k the two nongeneric ones.  The type's two mirror
    signs fix the terms and waveform, the cube's parity rule (k and j both
    even iff the signs agree, else both odd) and the nongeneric exclusions
    (orbits whose character sum vanishes); the orbit must be exactly two
    integers whose eigenvalue lambda_value is a finite float.  Raises
    InadmissibleOrbitError naming the violated rule.
    """
    if len(orbit) != 2 or any(x % 1 != 0 for x in orbit):  # inf % 1 is nan
        raise InadmissibleOrbitError("orbit must be two integers (k, j)")
    k, j = int(orbit[0]), int(orbit[1])
    # first, so that no message formats an int past str()'s 4300 digits
    f = TrigEigenfunction(kind, sym_type, (k, j), (), "", ())
    try:
        finite = math.isfinite(f.lambda_value)
    except OverflowError:                   # an int beyond the float range
        finite = False
    if not finite:
        raise InadmissibleOrbitError(
            "orbit (k, j) too large: its eigenvalue must be a finite float")
    if not k >= j >= 0:
        raise InadmissibleOrbitError(
            f"orbit must satisfy k >= j >= 0, got ({k}, {j})")
    types = _admitted_types(kind)
    if sym_type not in types:
        raise InadmissibleOrbitError(
            f"{kind.value} admits types "
            f"{'/'.join(t.value for t in types)}, not {sym_type.value}")
    cube = kind is PolyhedronKind.CUBE
    if cube:
        bis, edge = _mirror_signs(kind, sym_type)
        if not k % 2 == j % 2 == (bis != edge):
            raise InadmissibleOrbitError(
                f"{sym_type.value} needs k, j both "
                f"{('even', 'odd')[bis != edge]}, got ({k}, {j})")
    elif k % 2 or j % 2:
        raise InadmissibleOrbitError(
            f"triangle-faced orbits need k, j both even, got ({k}, {j})")
    made = _terms(kind, sym_type, k, j)
    if made is None:
        raise InadmissibleOrbitError(
            f"nongeneric {'cube ' if cube else ''}orbit ({k}, {j}) has no "
            f"{sym_type.value} eigenfunction")
    signs, waveform, coeffs = made
    return replace(f, signs=tuple(signs), waveform=waveform,
                   coeffs=tuple(coeffs))


def enlarge(f: TrigEigenfunction) -> TrigEigenfunction:
    """Octahedron enlargement: same trig data, eigenvalue divided by 3.

    Evaluation of the result maps the point by the sqrt(3) similarity that
    takes the face's edge mirrors onto the base function's bisector mirrors,
    so the two mirror families swap their signs.
    """
    if f.kind is not PolyhedronKind.OCTAHEDRON:
        raise NotOctahedronError("enlargement is defined on the octahedron only")
    if f.enlargement_depth != 0:
        raise NotOneDimensionalTypeError(
            "an enlarged eigenfunction no longer transforms by a "
            "one-dimensional symmetry type and cannot be enlarged again")
    return replace(f, enlargement_depth=f.enlargement_depth + 1)


# ---------------------------------------------------------------------------
# evaluation


def evaluate(f: TrigEigenfunction, points, check_domain: bool = True):
    """Evaluate the eigenfunction at planar net points.

    points may be a single (x, y) pair or an (n, 2) array.  With
    check_domain=True (default) points outside the net raise
    OutOfDomainError.  With check_domain=False the polynomial is summed at
    any point, but its phases round more coarsely far from the net: for the
    icosahedron's 1+ (8, 4), whose values reach 6, a point 1e3, 1e6 or 1e9
    away differs from its lattice translate near the net by about 2e-11,
    2e-8 or 2e-5.
    """
    pts = np.asarray(points, dtype=np.float64)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    net = build_net(f.kind)
    if check_domain:
        for x, y in pts:
            if face_containing(net, float(x), float(y)) is None:
                raise OutOfDomainError(f"point ({x}, {y}) is not on the net")
    pts = pts - net.formula_origin
    if f.enlargement_depth:
        # the similarity onto the base function: turn 30 deg, shrink sqrt 3
        x, y = pts.T
        pts = np.column_stack([x * 0.5 - y / (2.0 * SQRT3),
                               x / (2.0 * SQRT3) + y * 0.5])
    phases = 2.0 * math.pi * (pts @ f.frequencies.T)
    wave = np.sin(phases) if f.waveform == "sin" else np.cos(phases)
    vals = wave @ np.array(f.signs, dtype=np.float64)
    return float(vals[0]) if single else vals


def mirror_lines(f: TrigEigenfunction):
    """Declared mirror lines of the eigenfunction in net coordinates.

    Returns a list of (point, direction, expected sign): reflecting a planar
    point across such a line multiplies the function value by the sign.
    """
    ox, oy = build_net(f.kind).formula_origin
    b, e = _mirror_signs(f.kind, f.sym_type)
    if f.enlargement_depth % 2:         # enlargement swaps the two families
        b, e = e, b
    if f.kind is PolyhedronKind.CUBE:
        return [((ox + 0.5, oy), (0.0, 1.0), e),        # edge x = 1
                ((ox, oy + 0.5), (1.0, 0.0), e),        # edge y = 1
                ((ox, oy), (1.0, 1.0), e),              # face diagonals
                ((ox, oy), (1.0, -1.0), e),
                ((ox, oy), (0.0, 1.0), b),              # straight bisectors
                ((ox, oy), (1.0, 0.0), b)]
    c60 = lattice_to_xy(0, 1)
    c120 = lattice_to_xy(-1, 1)
    edges = [((0.0, 0.0), (1.0, 0.0)), ((0.0, 0.0), c60), ((1.0, 0.0), c120)]
    c30 = (SQRT3 / 2.0, 0.5)
    c150 = (-SQRT3 / 2.0, 0.5)
    medians = [((0.0, 0.0), c30), ((1.0, 0.0), c150), (c60, (0.0, 1.0))]
    out = [(p, d, e) for p, d in edges]
    # after an enlargement only the propagated median family remains a mirror
    for p, d in medians[:1] if f.enlargement_depth else medians:
        out.append((p, d, b))
    return out


@lru_cache(maxsize=None)
def admissible_orbits(kind: PolyhedronKind, nmax: int):
    """All admissible (sym_type, orbit) pairs with normalized value <= nmax.

    Raises ValueError unless nmax is an integer from 0 to LATTICE_LIMIT.
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    _check_bound(nmax)
    if nmax % 1:
        raise ValueError(f"nmax must be an integer, got {nmax}")
    _, ks, js = _sweep(int(nmax), square=kind is PolyhedronKind.CUBE)
    out = []
    for orbit in zip(ks.tolist(), js.tolist()):
        for t in _admitted_types(kind):
            try:
                build_trig_eigenfunction(kind, t, orbit)
            except InadmissibleOrbitError:
                continue
            out.append((t, orbit))
    return tuple(out)
