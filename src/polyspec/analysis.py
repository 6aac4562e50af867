"""Normalization, extrapolation, counting, classification and clustering.

The counting function N(t) of a sorted eigenvalue series is compared against
the affine prediction slope * t + c, with slope = area / (4 pi) and the
additive constant c fixed by the cone angles; counting_constants derives both
from the net.  D is the raw remainder, A its running average (computed
exactly, since N is a step function), and g(t) = sqrt(t) * A(t^2) the
rescaled average.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .analytic import LATTICE_LIMIT, exact_spectrum, normalizer
from .errors import InsufficientSpectrumError
from .net import PolyhedronKind, build_net


def counting_constants(kind: PolyhedronKind) -> tuple[float, Fraction]:
    """Weyl slope area / (4 pi) and the exact additive constant c of a kind.

    c sums the flat-cone heat invariant (2 pi / theta - theta / 2 pi) / 12
    over the V vertices of cone angle theta = 2 pi q, q = (V - 2) / V.
    """
    net = build_net(kind)
    v = len(net.cone_points)
    q = Fraction(v - 2, v)
    return net.area / (4 * math.pi), v * (1 / q - q) / 12


def normalize(lam: float, kind: PolyhedronKind) -> float:
    """Normalized eigenvalue: lambda / (4 pi^2 / 3), or lambda / pi^2 (cube)."""
    if not lam >= 0:                        # also rejects nan
        raise ValueError("eigenvalue must be >= 0")
    return lam / normalizer(kind)


def aitken_extrapolate(l_r: float, l_2r: float, l_4r: float) -> float:
    """Limit of the exponential fit through three successive refinements.

    Fits l(k) = l_inf + A * theta^k and returns l_inf; if the three values
    have (numerically) converged already, returns the finest one.
    """
    d1 = l_2r - l_r
    d2 = l_4r - l_2r
    den = d2 - d1
    if abs(den) < 1e-14 * max(1.0, abs(l_4r)):
        return l_4r
    return l_4r - d2 * d2 / den


def richardson_extrapolate(coarse, fine) -> np.ndarray:
    """Order-2 limit (4 fine - coarse) / 3 of values at r and 2r, by index.

    Removes the C h^2 term of the P1 error, leaving O(h^4).
    """
    return (4 * np.asarray(fine, float) - np.asarray(coarse, float)) / 3


@dataclass(frozen=True)
class CountingSeries:
    """Sorted raw eigenvalues with the surface's counting constants."""

    eigenvalues: np.ndarray
    weyl_slope: float
    c: float

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=np.float64)
        if ev.ndim != 1 or len(ev) == 0:
            raise ValueError("eigenvalues must be a nonempty 1-D array")
        if not np.isfinite(ev).all():
            raise ValueError("eigenvalues must be finite")
        if np.any(np.diff(ev) < 0):
            raise ValueError("eigenvalues must be nondecreasing")
        if ev[0] > 1e-6:
            raise ValueError("series must start at the zero eigenvalue")
        object.__setattr__(self, "eigenvalues", ev)

    @property
    def coverage(self) -> float:
        return float(self.eigenvalues[-1])


def make_counting_series(kind: PolyhedronKind, eigenvalues) -> CountingSeries:
    """CountingSeries with the slope and constant belonging to the kind."""
    slope, c = counting_constants(kind)
    return CountingSeries(eigenvalues=np.sort(np.asarray(eigenvalues, float)),
                          weyl_slope=slope, c=float(c))


def counting(series: CountingSeries, t: float) -> int:
    """N(t): number of eigenvalues <= t, including the zero eigenvalue."""
    if not t >= 0:
        raise ValueError("t must be >= 0")
    return int(np.searchsorted(series.eigenvalues, t, side="right"))


def _integral_n(series: CountingSeries, t):
    """Exact integral of N over [0, t]: sum of (t - lambda_j)+ terms."""
    ev = series.eigenvalues
    prefix = np.concatenate([[0.0], np.cumsum(ev)])
    t = np.asarray(t, dtype=np.float64)
    k = np.searchsorted(ev, t, side="right")
    return k * t - prefix[k]


def remainder(series: CountingSeries, t) -> np.ndarray:
    """D(t) = N(t) - (slope * t + c)."""
    t = np.asarray(t, dtype=np.float64)
    n = np.searchsorted(series.eigenvalues, t, side="right")
    return n - (series.weyl_slope * t + series.c)


def averaged_remainder(series: CountingSeries, t) -> np.ndarray:
    """A(t) = (1/t) * integral of D over [0, t], exact piecewise form.

    The t -> 0 limit 1 - c is used at t = 0.
    """
    t = np.asarray(t, dtype=np.float64)
    out = np.empty(t.shape)
    pos = t > 0
    tp = t[pos]
    out[pos] = (_integral_n(series, tp)
                - 0.5 * series.weyl_slope * tp * tp - series.c * tp) / tp
    out[~pos] = 1.0 - series.c
    return out


@dataclass(frozen=True)
class RemainderTable:
    """Sampled counting diagnostics; g is NaN where the series is uncovered."""

    t: np.ndarray
    n: np.ndarray
    d: np.ndarray
    a: np.ndarray
    g: np.ndarray


def remainder_series(series: CountingSeries, tmax: float,
                     samples: int) -> RemainderTable:
    """Tabulate (t, N, D, A, g) on an even grid over [0, tmax].

    D and A require the series to cover [0, tmax]; g(t) = sqrt(t) * A(t^2)
    additionally needs coverage up to t^2 and is emitted only where covered.
    """
    if not tmax > 0:
        raise ValueError("tmax must be > 0")
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if tmax > series.coverage:
        raise InsufficientSpectrumError(
            f"series covers eigenvalues up to {series.coverage:.6g}, "
            f"cannot tabulate D/A up to {tmax:.6g}")
    t = np.linspace(0.0, tmax, samples)
    n = np.searchsorted(series.eigenvalues, t, side="right").astype(float)
    d = remainder(series, t)
    a = averaged_remainder(series, t)
    g = np.full(t.shape, np.nan)
    ok = t * t <= series.coverage
    g[ok] = np.sqrt(t[ok]) * averaged_remainder(series, t[ok] ** 2)
    return RemainderTable(t=t, n=n, d=d, a=a, g=g)


# kind -> (bound, lines, float values) of the largest table classify built
_TABLES = {}


def _spectrum_table(kind: PolyhedronKind, bound: float):
    """Lines of exact_spectrum(kind, b), b >= bound, and their float values.

    exact_spectrum(kind, b) begins with every smaller bound's lines, so the
    largest table of each kind serves every bound up to its own; classify
    passes powers of two, so a column costs O(log(largest value)) builds.
    """
    if kind not in _TABLES or _TABLES[kind][0] < bound:
        lines = exact_spectrum(kind, bound)
        values = np.array([float(sl.value) for sl in lines])
        _TABLES[kind] = bound, lines, values
    return _TABLES[kind][1:]


@dataclass(frozen=True)
class Classification:
    """Result of the nonsingular/singular identification heuristic."""

    label: str               # "nonsingular" | "singular"
    value: Fraction | None   # matched exact normalized eigenvalue
    witness: tuple | None    # lattice orbit (k, j) producing the value
    tag: str | None          # hexLattice | squareLattice | third


def classify(normalized_lambda: float, kind: PolyhedronKind,
             tol: float = 0.02) -> Classification:
    """Match a normalized eigenvalue against the exact admissible set.

    Nonsingular if within tol of a member (with the matching orbit as
    witness); singular otherwise.  A numerical-identification heuristic, not
    a proof.
    """
    if not normalized_lambda >= 0:
        raise ValueError("normalized eigenvalue must be >= 0")
    if not tol > 0:
        raise ValueError("tol must be > 0")
    top = normalized_lambda + tol + 1.0
    if not top <= LATTICE_LIMIT:            # also rejects inf
        raise ValueError(
            f"normalized eigenvalue {normalized_lambda:g} with tol {tol:g} "
            f"is out of range: value + tol + 1 must be at most "
            f"{LATTICE_LIMIT:g}")
    lines, values = _spectrum_table(
        kind, min(1 << (math.ceil(top) - 1).bit_length(), LATTICE_LIMIT))
    # the bound is at least the least power of two >= top, so every line
    # within tol, which lies below top, is in the table; values is sorted and
    # holds 0, and of two equally near neighbours argmin keeps the lower one
    i = int(np.searchsorted(values, normalized_lambda))
    lo = max(i - 1, 0)
    line = lines[lo + int(np.argmin(np.abs(values[lo:i + 1]
                                           - normalized_lambda)))]
    if abs(float(line.value) - normalized_lambda) <= tol:
        return Classification(label="nonsingular", value=line.value,
                              witness=line.witness, tag=line.tag)
    return Classification(label="singular", value=None, witness=None, tag=None)


def group_clusters(values, rel_tol: float = 0.005):
    """Group values, sorted first, into (mean value, multiplicity) pairs.

    A cluster ends where the gap to the next value exceeds
    rel_tol * max(1, |next value|); a gap exactly at that bound does not
    split.  No values give no clusters.
    """
    vals = np.sort(np.asarray(values, dtype=np.float64))
    if not len(vals):
        return []
    split = np.diff(vals) > rel_tol * np.maximum(1.0, np.abs(vals[1:]))
    return [(float(c.mean()), len(c))
            for c in np.split(vals, np.flatnonzero(split) + 1)]
