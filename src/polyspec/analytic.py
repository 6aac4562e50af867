"""Exact spectra and closed-form trigonometric eigenfunctions.

The triangle-faced surfaces lift to the hexagonal torus: eigenvalues are
(4 pi^2 / 3) N with N = j^2 + k^2 + jk, and the one-dimensional symmetry
types are finite cosine/sine sums over dual-lattice orbits.  The cube's
eigenfunctions are cosine sums over the integer lattice with eigenvalue
pi^2 (j^2 + k^2), k and j of equal parity.  Values anywhere on a net are
produced by folding the point into the base face through the reflection
tiling while accumulating the symmetry type's signs; the octahedron
enlargement composes one extra fold into a half-face with a sqrt(3)
contraction, scaling the eigenvalue by 1/3.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import (InadmissibleOrbitError, NotOctahedronError,
                     NotOneDimensionalTypeError, OutOfDomainError)
from .net import SQRT3, PolyhedronKind, build_net

# dual-lattice generators of the hexagonal torus: |u|^2 = |v|^2 = 1/3, u.v = 1/6
U_VEC = (0.5, SQRT3 / 6.0)
V_VEC = (0.0, SQRT3 / 3.0)

TRIANGLE_NORMALIZER = 4.0 * math.pi ** 2 / 3.0
SQUARE_NORMALIZER = math.pi ** 2

# largest normalized bound the lattice side accepts; exact_spectrum stays
# well under a second up to here for every kind
LATTICE_LIMIT = 1e5

_FOLD_EPS = 1e-12
_MAX_FOLDS = 4096


class SymmetryType(enum.Enum):
    """One-dimensional symmetry types.

    ONE_PLUS / ONE_MINUS apply to the tetrahedron and icosahedron (symmetric /
    skew-symmetric under every reflection).  The two-character types apply to
    the octahedron (first sign: in-face reflections, second: face-to-face) and
    the cube (first: diagonal reflections, second: straight reflections).
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


# (bisector-family sign, edge-family sign) of the base formulas.  For the
# octahedron the bisector family is the in-face reflections and the edge
# family the face-to-face ones; for the cube the edge lines and face diagonals
# form the diagonal family while the face bisectors form the straight family.
_TYPE_SIGNS = {
    SymmetryType.ONE_PLUS: (1, 1),
    SymmetryType.ONE_MINUS: (-1, -1),
    SymmetryType.PP: (1, 1),
    SymmetryType.MM: (-1, -1),
    SymmetryType.PM: (1, -1),
    SymmetryType.MP: (-1, 1),
}


def _cube_signs(sym_type):
    # cube: first character = diagonal family = edge lines + face diagonals
    bis, edge = {
        SymmetryType.PP: (1, 1),
        SymmetryType.MM: (-1, -1),
        SymmetryType.PM: (-1, 1),
        SymmetryType.MP: (1, -1),
    }[sym_type]
    return bis, edge


# ---------------------------------------------------------------------------
# lattice counting


def _check_bound(bound):
    if not bound <= LATTICE_LIMIT:     # also rejects nan
        raise ValueError(f"normalized bound must be finite and at most "
                         f"{LATTICE_LIMIT:g}, got {bound:g}")


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


def _first_orbits(q, k, j):
    """Distinct norms, ascending, with the smallest (k, j) of each.

    np.unique reports the first occurrence of each norm, which is the
    lexicographically smallest orbit because the sweep is k-major.
    """
    norms, first = np.unique(q, return_index=True)
    return norms.tolist(), list(zip(k[first].tolist(), j[first].tolist()))


def hexagonal_multiplicity(n: int) -> int:
    """Number of eigenfunctions of the hexagonal form with j^2+k^2+jk = n.

    Defined as half the number of nonzero integer solutions; n = 0 gives 1
    (the constant).  Raises ValueError unless 0 <= n <= LATTICE_LIMIT.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    _check_bound(n)
    q, k, j = _sweep(n)
    return int(_orbit_size(k, j)[q == n].sum())


def torus_count(t: float) -> int:
    """Number of torus eigenvalues (with multiplicity) not exceeding t.

    Raises ValueError unless 0 <= t / TRIANGLE_NORMALIZER <= LATTICE_LIMIT.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    _check_bound(t / TRIANGLE_NORMALIZER)
    q, k, j = _sweep(int(t / TRIANGLE_NORMALIZER) + 1)
    # compare the products, not q against t / normalizer: at t = n * normalizer
    # the quotient can round below n
    keep = q * TRIANGLE_NORMALIZER <= t
    return 2 * int(_orbit_size(k[keep], j[keep]).sum()) - 1


def tetra_count_exact(t: float) -> int:
    """Exact tetrahedron counting function via the torus covering."""
    nt = torus_count(t)
    assert nt % 2 == 1
    return nt // 2 + 1


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
    if nmax <= 0:
        raise ValueError("nmax must be > 0")
    _check_bound(nmax)
    if kind is PolyhedronKind.TETRAHEDRON:
        q, k, j = _sweep(math.floor(nmax))
        mult = np.bincount(q, weights=_orbit_size(k, j)).astype(np.int64)
        return [SpectrumLine(Fraction(n), int(mult[n]), "hexLattice", w)
                for n, w in zip(*_first_orbits(q, k, j))]
    if kind is PolyhedronKind.CUBE:
        q, k, j = _sweep(math.floor(nmax), square=True)
        same = (k - j) % 2 == 0
        return [SpectrumLine(Fraction(n), 1, "squareLattice", w)
                for n, w in zip(*_first_orbits(q[same], k[same], j[same]))]
    if kind not in (PolyhedronKind.OCTAHEDRON, PolyhedronKind.ICOSAHEDRON):
        raise ValueError(f"unhandled kind {kind}")
    # an even orbit 2(k, j) has value 4m with m = Q(k, j); the octahedron adds
    # 4m/3, except when 3 | m, where 4m/3 is itself a direct value; both
    # bounds on m are exact, so a float nmax rounds no line in or out
    direct = math.floor(nmax) // 4
    third = 3 * Fraction(nmax) // 4 if kind is PolyhedronKind.OCTAHEDRON \
        else -1
    lines = []
    for m, (k, j) in zip(*_first_orbits(*_sweep(max(direct, third)))):
        if m <= direct:
            lines.append(SpectrumLine(Fraction(4 * m), 1, "hexLattice",
                                      (2 * k, 2 * j)))
        if m <= third and m % 3:
            lines.append(SpectrumLine(Fraction(4 * m, 3), 1, "third",
                                      (2 * k, 2 * j)))
    lines.sort(key=lambda sl: sl.value)
    return lines


def exact_tetra_eigenvalues(nmax: float) -> np.ndarray:
    """Raw tetrahedron eigenvalues (with multiplicity) up to normalized nmax."""
    vals = []
    for line in exact_spectrum(PolyhedronKind.TETRAHEDRON, nmax):
        vals.extend([float(line.value)] * line.multiplicity)
    return np.array(vals) * TRIANGLE_NORMALIZER


# ---------------------------------------------------------------------------
# trigonometric eigenfunctions


@dataclass(frozen=True)
class TrigEigenfunction:
    """A finite cosine/sine sum that solves -Lap u = lambda u on the surface.

    coeffs are integer coefficient pairs in the dual basis (triangle kinds) or
    half-integer frequency numerators (cube); signs the per-term signs;
    waveform "cos" or "sin".  enlargement_depth 1 marks an octahedron
    enlargement, which divides the eigenvalue by 3.
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
        base = SQUARE_NORMALIZER if self.kind is PolyhedronKind.CUBE \
            else TRIANGLE_NORMALIZER
        return base * self.norm_value / 3 ** self.enlargement_depth

    @property
    def frequencies(self) -> np.ndarray:
        """Base-term frequency vectors (cycles per unit length), shape (T, 2)."""
        if self.kind is PolyhedronKind.CUBE:
            return np.array([(a / 2.0, b / 2.0) for a, b in self.coeffs])
        u = np.array(U_VEC)
        v = np.array(V_VEC)
        return np.array([a * u + b * v for a, b in self.coeffs])

    @property
    def terms(self):
        """Per-term view: list of (sign, waveform, frequency vector)."""
        return [(s, self.waveform, tuple(f))
                for s, f in zip(self.signs, self.frequencies)]

    def _base_signs(self):
        if self.kind is PolyhedronKind.CUBE:
            return _cube_signs(self.sym_type)
        return _TYPE_SIGNS[self.sym_type]

    @property
    def bisector_sign(self) -> int:
        """Sign across the bisector-family mirrors (swapped by enlargement)."""
        bis, edge = self._base_signs()
        return edge if self.enlargement_depth % 2 else bis

    @property
    def edge_sign(self) -> int:
        """Sign across the edge-family mirrors (swapped by enlargement)."""
        bis, edge = self._base_signs()
        return bis if self.enlargement_depth % 2 else edge


def _triangle_terms(sym_type, k, j):
    if k == 0 and j == 0:
        if sym_type in (SymmetryType.ONE_PLUS, SymmetryType.PP):
            return [1, 1, 1], "cos", [(0, 0), (0, 0), (0, 0)]
        return None
    if j == 0:
        if sym_type in (SymmetryType.ONE_PLUS, SymmetryType.PP):
            return [1, 1, 1], "cos", [(k, 0), (k, -k), (0, k)]
        if sym_type is SymmetryType.PM:
            return [1, -1, -1], "sin", [(k, 0), (0, k), (k, -k)]
    elif j == k:
        if sym_type in (SymmetryType.ONE_PLUS, SymmetryType.PP):
            return [1, 1, 1], "cos", [(k, k), (2 * k, -k), (k, -2 * k)]
        if sym_type is SymmetryType.MP:
            return [1, -1, 1], "sin", [(k, k), (2 * k, -k), (k, -2 * k)]
    else:
        plus = [(k, j), (k + j, -k), (j, -(k + j))]
        minus = [(j, k), (k + j, -j), (k, -(k + j))]
        if sym_type in (SymmetryType.ONE_PLUS, SymmetryType.PP):
            return [1, 1, 1, 1, 1, 1], "cos", plus + minus
        if sym_type in (SymmetryType.ONE_MINUS, SymmetryType.MM):
            return [1, 1, 1, -1, -1, -1], "cos", plus + minus
        pairs = [(k, j), (j, k), (k + j, -j), (k + j, -k),
                 (j, -(j + k)), (k, -(k + j))]
        if sym_type is SymmetryType.PM:
            return [1, -1, 1, -1, 1, -1], "sin", pairs
        if sym_type is SymmetryType.MP:
            # sign pattern pinned by the reflection families and by collapsing
            # to the three-term j = k form
            return [1, 1, -1, -1, 1, 1], "sin", pairs
    return None


def _cube_terms(sym_type, k, j):
    if j == 0:
        if sym_type is SymmetryType.PP:
            return [1, 1], "cos", [(k, 0), (0, k)]
    elif j == k:
        if sym_type is SymmetryType.PP and k % 2 == 0:
            return [1, 1], "cos", [(k, k), (k, -k)]
        if sym_type is SymmetryType.PM and k % 2 == 1:
            return [1, -1], "cos", [(k, k), (k, -k)]
    else:
        quad = [(k, j), (j, k), (k, -j), (j, -k)]
        signs = {
            SymmetryType.PP: [1, 1, 1, 1],
            SymmetryType.MM: [1, -1, -1, 1],
            SymmetryType.PM: [1, 1, -1, -1],
            SymmetryType.MP: [1, -1, 1, -1],
        }.get(sym_type)
        if signs is not None:
            return signs, "cos", quad
    return None


def build_trig_eigenfunction(kind: PolyhedronKind, sym_type: SymmetryType,
                             orbit) -> TrigEigenfunction:
    """Construct the eigenfunction of one admissible (kind, type, orbit).

    Orbits are given as (k, j) with k >= j >= 0; k > j > 0 is the generic
    case, j = 0 and j = k the two nongeneric ones.  Raises
    InadmissibleOrbitError naming the violated rule otherwise.
    """
    k, j = int(orbit[0]), int(orbit[1])
    if not k >= j >= 0:
        raise InadmissibleOrbitError(
            f"orbit must satisfy k >= j >= 0, got ({k}, {j})")
    if kind is PolyhedronKind.CUBE:
        if sym_type not in (SymmetryType.PP, SymmetryType.MM,
                            SymmetryType.PM, SymmetryType.MP):
            raise InadmissibleOrbitError(
                f"cube admits ++/--/+-/-+ types, not {sym_type.value}")
        if sym_type in (SymmetryType.PP, SymmetryType.MM):
            if k % 2 or j % 2:
                raise InadmissibleOrbitError(
                    f"{sym_type.value} needs k, j both even, got ({k}, {j})")
        else:
            if k % 2 == 0 or j % 2 == 0:
                raise InadmissibleOrbitError(
                    f"{sym_type.value} needs k, j both odd, got ({k}, {j})")
        made = _cube_terms(sym_type, k, j)
        if made is None:
            raise InadmissibleOrbitError(
                f"nongeneric cube orbit ({k}, {j}) has no {sym_type.value} "
                "eigenfunction")
    else:
        if kind is PolyhedronKind.OCTAHEDRON:
            allowed = (SymmetryType.PP, SymmetryType.MM,
                       SymmetryType.PM, SymmetryType.MP)
        else:
            allowed = (SymmetryType.ONE_PLUS, SymmetryType.ONE_MINUS)
        if sym_type not in allowed:
            raise InadmissibleOrbitError(
                f"{kind.value} admits types "
                f"{'/'.join(t.value for t in allowed)}, not {sym_type.value}")
        if k % 2 or j % 2:
            raise InadmissibleOrbitError(
                f"triangle-faced orbits need k, j both even, got ({k}, {j})")
        made = _triangle_terms(sym_type, k, j)
        if made is None:
            raise InadmissibleOrbitError(
                f"nongeneric orbit ({k}, {j}) has no {sym_type.value} "
                "eigenfunction")
    signs, waveform, coeffs = made
    return TrigEigenfunction(kind=kind, sym_type=sym_type, orbit=(k, j),
                             signs=tuple(signs), waveform=waveform,
                             coeffs=tuple(coeffs))


def enlarge(f: TrigEigenfunction) -> TrigEigenfunction:
    """Octahedron enlargement: same trig data, eigenvalue divided by 3.

    Evaluation of the result composes the sqrt(3) similarity from a half-face
    onto a sixth-face with the base function's reflection rules (the two
    mirror families swap their signs).
    """
    if f.kind is not PolyhedronKind.OCTAHEDRON:
        raise NotOctahedronError("enlargement is defined on the octahedron only")
    if f.enlargement_depth != 0:
        raise NotOneDimensionalTypeError(
            "an enlarged eigenfunction no longer transforms by a "
            "one-dimensional symmetry type and cannot be enlarged again")
    return replace(f, enlargement_depth=f.enlargement_depth + 1)


# ---------------------------------------------------------------------------
# evaluation by folding


def _fold_triangular(x, y):
    """Fold cartesian points into the base cell (0,0),(1,0),(1/2,sqrt3/2).

    Returns lattice coordinates (sigma, tau) inside the cell and the number of
    reflections applied per point (mod 2 determines the orientation sign).
    """
    s = x - y / SQRT3
    t = 2.0 * y / SQRT3
    parity = np.zeros(s.shape, dtype=np.int64)
    for _ in range(_MAX_FOLDS):
        m = t < -_FOLD_EPS
        if m.any():
            s = np.where(m, s + t, s)
            t = np.where(m, -t, t)
            parity += m
        m = s < -_FOLD_EPS
        if m.any():
            t = np.where(m, s + t, t)
            s = np.where(m, -s, s)
            parity += m
        m = s + t > 1.0 + _FOLD_EPS
        if m.any():
            s, t = np.where(m, 1.0 - t, s), np.where(m, 1.0 - s, t)
            parity += m
        if not ((t < -_FOLD_EPS) | (s < -_FOLD_EPS)
                | (s + t > 1.0 + _FOLD_EPS)).any():
            return s, t, parity
    raise RuntimeError("triangular fold did not terminate")


def _fold_axis(x):
    # tent-fold onto [-1/2, 1/2] with mirrors at half-integers
    k = np.floor(x + 0.5)
    z = (x + 0.5) - 2.0 * np.floor((x + 0.5) / 2.0)
    z = np.where(z > 1.0, 2.0 - z, z)
    return z - 0.5, k.astype(np.int64)


def _trig_sum(f: TrigEigenfunction, pts):
    phases = 2.0 * math.pi * (pts @ f.frequencies.T)
    wave = np.sin(phases) if f.waveform == "sin" else np.cos(phases)
    return wave @ np.array(f.signs, dtype=np.float64)


def evaluate(f: TrigEigenfunction, points, check_domain: bool = True):
    """Evaluate the eigenfunction at planar net points.

    points may be a single (x, y) pair or an (n, 2) array.  With
    check_domain=True (default) points outside the net raise
    OutOfDomainError; mesh-sampling callers may disable the check.
    """
    pts = np.asarray(points, dtype=np.float64)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if check_domain:
        from .mesh import _face_containing
        net = build_net(f.kind)
        for x, y in pts:
            if _face_containing(net, float(x), float(y), 1e-9) is None:
                raise OutOfDomainError(f"point ({x}, {y}) is not on the net")
    ox, oy = build_net(f.kind).formula_origin
    x = pts[:, 0] - ox
    y = pts[:, 1] - oy

    if f.kind is PolyhedronKind.CUBE:
        fx, kx = _fold_axis(x)
        fy, ky = _fold_axis(y)
        sign = np.where((kx + ky) % 2 == 0, 1.0, float(f.edge_sign))
        vals = sign * _trig_sum(f, np.column_stack([fx, fy]))
    else:
        s, t, parity = _fold_triangular(x, y)
        sign = np.where(parity % 2 == 0, 1.0, float(f.edge_sign))
        if f.enlargement_depth:
            swap = t > s
            sign = np.where(swap, sign * f.bisector_sign, sign)
            s2 = np.where(swap, t, s)
            t2 = np.where(swap, s, t)
            qx = s2 + 0.5 * t2
            qy = t2 * (SQRT3 / 2.0)
            # similarity half-face -> sixth-face: rotate 30 deg, shrink sqrt 3
            rx = qx * 0.5 - qy / (2.0 * SQRT3)
            ry = qx / (2.0 * SQRT3) + qy * 0.5
            vals = sign * _trig_sum(f, np.column_stack([rx, ry]))
        else:
            qx = s + 0.5 * t
            qy = t * (SQRT3 / 2.0)
            vals = sign * _trig_sum(f, np.column_stack([qx, qy]))
    return float(vals[0]) if single else vals


def mirror_lines(f: TrigEigenfunction):
    """Declared mirror lines of the eigenfunction in net coordinates.

    Returns a list of (point, direction, expected sign): reflecting a planar
    point across such a line multiplies the function value by the sign.
    """
    ox, oy = build_net(f.kind).formula_origin
    out = []
    if f.kind is PolyhedronKind.CUBE:
        e, b = f.edge_sign, f.bisector_sign
        out.append(((ox + 0.5, oy), (0.0, 1.0), e))      # edge x = 1
        out.append(((ox, oy + 0.5), (1.0, 0.0), e))      # edge y = 1
        out.append(((ox, oy), (1.0, 1.0), e))            # face diagonal
        out.append(((ox, oy), (1.0, -1.0), e))
        out.append(((ox, oy), (0.0, 1.0), b))            # straight bisectors
        out.append(((ox, oy), (1.0, 0.0), b))
        return out
    c60 = (0.5, SQRT3 / 2.0)
    c120 = (-0.5, SQRT3 / 2.0)
    edges = [((0.0, 0.0), (1.0, 0.0)), ((0.0, 0.0), c60), ((1.0, 0.0), c120)]
    c30 = (SQRT3 / 2.0, 0.5)
    c150 = (-SQRT3 / 2.0, 0.5)
    medians = [((0.0, 0.0), c30), ((1.0, 0.0), c150), ((0.5, SQRT3 / 2), (0.0, 1.0))]
    if f.enlargement_depth:
        for p, d in edges:
            out.append((p, d, f.edge_sign))
        # only the propagated median family remains a mirror
        out.append((medians[0][0], medians[0][1], f.bisector_sign))
    else:
        for p, d in edges:
            out.append((p, d, f.edge_sign))
        for p, d in medians:
            out.append((p, d, f.bisector_sign))
    return out


@lru_cache(maxsize=None)
def admissible_orbits(kind: PolyhedronKind, nmax: int):
    """All admissible (sym_type, orbit) pairs with normalized value <= nmax.

    Raises ValueError unless nmax <= LATTICE_LIMIT.
    """
    _check_bound(nmax)
    if kind in (PolyhedronKind.TETRAHEDRON, PolyhedronKind.ICOSAHEDRON):
        types = (SymmetryType.ONE_PLUS, SymmetryType.ONE_MINUS)
    else:
        types = (SymmetryType.PP, SymmetryType.MM, SymmetryType.PM,
                 SymmetryType.MP)
    _, ks, js = _sweep(nmax, square=kind is PolyhedronKind.CUBE)
    out = []
    for orbit in zip(ks.tolist(), js.tolist()):
        for t in types:
            try:
                build_trig_eigenfunction(kind, t, orbit)
            except InadmissibleOrbitError:
                continue
            out.append((t, orbit))
    return tuple(out)
