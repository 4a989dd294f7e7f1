"""Empirical spectral distributions, kernel density estimates, and distances
between empirical and theoretical densities."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .curves import _MAX_POINTS, DensityCurve, _block_items
from .errors import DisjointSupportsWarning, ValidationError

__all__ = [
    "EsdFunction",
    "silverman_bandwidth",
    "kde_eval",
    "histogram_density",
    "ks_distance",
    "l1_distance",
    "curve_ks_distance",
    "split_atom",
    "snap_zeros",
    "with_atom",
    "eigenvalue_density",
    "projection_density",
]

_SQRT_2PI = np.sqrt(2.0 * np.pi)


@dataclass(frozen=True)
class EsdFunction:
    """Empirical spectral distribution: right-continuous step CDF."""

    values: np.ndarray

    def __post_init__(self):
        v = np.sort(np.asarray(self.values, dtype=np.float64))
        if v.size == 0:
            raise ValidationError("cannot build an ESD from zero eigenvalues")
        # sorted, any NaN or inf is at an end
        if not (np.isfinite(v[0]) and np.isfinite(v[-1])):
            raise ValidationError("ESD eigenvalues must be finite")
        object.__setattr__(self, "values", v)

    @property
    def count(self) -> int:
        return len(self.values)

    def __call__(self, x):
        idx = np.searchsorted(self.values, np.asarray(x, dtype=np.float64), side="right")
        return idx / self.count


def silverman_bandwidth(samples) -> float:
    """Silverman's rule of thumb: 0.9 min(std, IQR/1.34) m^(-1/5).

    Requires at least two distinct samples; if the IQR degenerates to zero
    the std alone is used.
    """
    s = np.asarray(samples, dtype=np.float64).ravel()
    if not np.isfinite(s).all():
        raise ValidationError("samples for a bandwidth must be finite")
    if len(np.unique(s)) < 2:
        raise ValidationError("need at least 2 distinct samples for a bandwidth")
    with np.errstate(over="ignore"):  # an overflowed variance is refused below
        std = float(np.std(s, ddof=1))
    if std == math.inf:
        raise ValidationError(f"samples over [{s.min():.3g}, {s.max():.3g}] have a variance "
                              f"beyond doubles")
    q75, q25 = np.percentile(s, [75.0, 25.0])
    iqr = float(q75 - q25)
    spread = min(std, iqr / 1.34) if iqr > 0 else std
    return 0.9 * spread * len(s) ** (-0.2)


def kde_eval(samples: np.ndarray, grid: np.ndarray, h: float) -> np.ndarray:
    """Gaussian kernel density estimate of `samples` on `grid` with bandwidth `h`.

    The bandwidth must be finite and positive, the samples and grid points
    finite. The kernel is evaluated a grid chunk at a time, in place, in one
    reused block of 2^16 entries (``curves._BLOCK_BYTES``): the chunk's
    differences u are scaled, squared, halved, exponentiated and normalized
    where they stand, then summed row by row. Each grid point's kernel sum is
    its own row's, so the chunking changes no bits, and (u u)(-1/2) rounds as
    (-u/2) u does: scaling by a power of two is exact.
    """
    if not 0 < h < math.inf:
        raise ValidationError(f"bandwidth must be finite and positive, got {h}")
    s = np.asarray(samples, dtype=np.float64).ravel()
    x = np.asarray(grid, dtype=np.float64).ravel()
    for name, a in (("samples", s), ("grid points", x)):
        if a.size and not (np.isfinite(a.min()) and np.isfinite(a.max())):
            raise ValidationError(f"KDE {name} must be finite")
    out = np.zeros(len(x), dtype=np.float64)
    if len(s) == 0:
        return out
    chunk = _block_items(s.nbytes)
    block = np.empty((min(chunk, len(x)), len(s)))
    for lo in range(0, len(x), chunk):
        k = block[:len(x) - lo]
        np.subtract(x[lo:lo + chunk, None], s, out=k)
        k /= h
        k *= k
        k *= -0.5
        np.exp(k, out=k)
        k /= _SQRT_2PI
        k.sum(axis=1, out=out[lo:lo + chunk])
    out /= len(s) * h
    return out


def histogram_density(samples, bins: int) -> DensityCurve:
    """Density-normalized histogram as a step curve sampled at bin centers."""
    s = np.asarray(samples, dtype=np.float64).ravel()
    if s.size == 0:
        raise ValidationError("cannot histogram an empty sample set")
    if bins < 1:
        raise ValidationError(f"bins must be >= 1, got {bins}")
    if bins > _MAX_POINTS:  # refused before numpy allocates the edges
        raise ValidationError(f"bins must be at most {_MAX_POINTS}, got {bins}")
    # numpy refuses a non-finite range, or bins narrower than the doubles
    # there; bins too narrow for distinct centers, or heights beyond doubles,
    # make no curve
    try:
        with np.errstate(all="ignore"):
            heights, edges = np.histogram(s, bins=bins, density=True)
            centers = 0.5 * (edges[1:] + edges[:-1])
        # anchor the outer edges at the boundary heights: the trapezoid mass of
        # the resulting polyline telescopes to exactly sum(height * width)
        xs = np.concatenate([[edges[0]], centers, [edges[-1]]])
        ys = np.concatenate([[heights[0]], heights, [heights[-1]]])
        return DensityCurve(xs, ys)
    except ValueError as exc:
        raise ValidationError(f"samples over [{s.min():.9g}, {s.max():.9g}] in {bins} "
                              f"bins: {exc}") from None


def ks_distance(esd: EsdFunction, cdf) -> float:
    """Kolmogorov-Smirnov distance between an ESD and a theoretical CDF.

    Supremum over eigenvalue points, evaluated on both sides of each
    empirical step: at each distinct eigenvalue and at the double just below
    it, where the ESD is its left limit and ``cdf`` the theoretical CDF's, so
    shared atoms, e.g. at zero, are compared jump-against-jump.
    """
    vals = np.unique(esd.values)
    with np.errstate(over="ignore"):  # below -DBL_MAX is -inf
        below = np.nextafter(vals, -np.inf)
    return float(max(np.abs(esd(vals) - cdf(vals)).max(), np.abs(esd(below) - cdf(below)).max()))


def _pieces(a: DensityCurve, b: DensityCurve):
    """The knots of both curves and 0, and the density gap ``a - b`` at each
    piece's two ends as one-sided limits.

    Between adjacent knots both densities are linear, so the gap is too; the
    gap at the quarter points, clear of the jumps to zero at a curve's ends,
    fixes its line.
    """
    knots = np.union1d(np.concatenate([a.xs, b.xs]), [0.0])
    q = knots[:-1, None] + np.diff(knots)[:, None] * np.array([0.25, 0.75])
    d = a(q) - b(q)
    return knots, 1.5 * d[:, 0] - 0.5 * d[:, 1], 1.5 * d[:, 1] - 0.5 * d[:, 0]


def l1_distance(a: DensityCurve, b: DensityCurve) -> float:
    """Exact L1 distance between two density curves (their linear
    interpolants, zero outside the grid) plus |difference of atoms|.

    On a piece of width w between knots the gap runs linearly from d0 to d1,
    and with s = |d0| + |d1| its |d| integrates to

        w (d0^2 + d1^2 + 2 max(d0 d1, 0)) / (2 s) = w s (1 + ((d0 + d1) / s)^2) / 4:

    the trapezoid w s / 2 when d0 and d1 share a sign, and the two triangles
    w (d0^2 + d1^2) / (2 s) when the gap crosses zero. Disjoint supports warn;
    the distance is then the sum of the masses' continuous parts plus the
    atoms' difference.
    """
    if a.xs[-1] < b.xs[0] or b.xs[-1] < a.xs[0]:
        warnings.warn("density supports are disjoint", DisjointSupportsWarning,
                      stacklevel=2)
    with np.errstate(all="ignore"):  # slopes or a distance beyond doubles are refused below
        knots, d0, d1 = _pieces(a, b)
        s = np.abs(d0) + np.abs(d1)
        r = np.divide(d0 + d1, s, out=np.zeros_like(s), where=s > 0)
        l1 = float(np.diff(knots) @ (0.25 * s * (1.0 + r * r))
                   + abs(a.point_mass_at_zero - b.point_mass_at_zero))
    if not math.isfinite(l1):
        raise ValidationError("the curves' L1 distance is not finite in doubles")
    return l1


def curve_ks_distance(a: DensityCurve, b: DensityCurve) -> float:
    """Sup |CDF_a - CDF_b| of the exact curve CDFs.

    On each piece the CDF gap is quadratic, so it peaks at a knot or where
    the linear density gap crosses zero; the only jump is the atoms' at 0,
    seen from both sides.
    """
    knots, d0, d1 = _pieces(a, b)
    t = np.divide(d0, d0 - d1, out=np.zeros_like(d0), where=d0 != d1)
    cross = (knots[:-1] + t * np.diff(knots))[(t > 0.0) & (t < 1.0)]
    pts = np.concatenate([knots, cross, [np.nextafter(0.0, -np.inf)]])
    return float(np.abs(a.cdf(pts) - b.cdf(pts)).max())


def snap_zeros(values: np.ndarray) -> np.ndarray:
    """Set to zero every entry v with |v| <= 2 len(values) eps max|values|
    (eps the float64 machine epsilon): the one rule by which an eigenvalue
    counts as zero.

    A backward-stable eigensolve (``dsyevd``, ``dgeev``) of an order-p matrix
    returns the eigenvalues of a matrix within about p eps max|lambda| of it,
    so an exact zero comes back at most that far from 0, and an eigenvalue
    farther out is resolved as nonzero. The factor 2 covers the worst case
    measured, a zero returned at 1.02 p eps max|lambda| by either solver at
    order 3. Snapping aligns the zeros with the theoretical atom at the origin
    for CDF/KS comparisons.
    """
    v = np.asarray(values).copy()
    scale = np.abs(v).max() if v.size else 0.0
    if not np.isfinite(scale):
        raise ValidationError("eigenvalues must be finite")
    v[np.abs(v) <= 2 * v.size * np.finfo(np.float64).eps * scale] = 0.0
    return v


def split_atom(values) -> tuple[np.ndarray, float]:
    """Nonzero values (order kept) and the zero share, by ``snap_zeros``' rule."""
    v = np.asarray(values)
    if v.size == 0:
        raise ValidationError("empty spectrum")
    nonzero = v[snap_zeros(v) != 0]
    return nonzero, 1.0 - len(nonzero) / len(v)


def with_atom(curve: DensityCurve, atom: float) -> DensityCurve:
    """``curve`` weighted by the nonzero share ``1 - atom``, with ``atom`` as its
    point mass at zero: a unit-mass density of the nonzero eigenvalues becomes
    a unit-mass curve-plus-atom of the whole spectrum."""
    if not 0.0 <= atom < 1.0:
        raise ValidationError(f"point mass must lie in [0, 1), got {atom}")
    return DensityCurve(curve.xs, curve.ys * (1.0 - atom), point_mass_at_zero=atom)


def eigenvalue_density(values, bandwidth: float | None = None) -> DensityCurve:
    """Atom-aware Gaussian KDE of the real eigenvalues ``values``.

    The eigenvalues ``split_atom`` counts as zero form the point mass at zero
    and are excluded from the KDE; the continuous part is weighted by its
    share so curve-plus-atom integrates to one. ``bandwidth=None`` selects
    Silverman's rule; either bandwidth must be finite and positive.

    The grid spans the eigenvalues +- 5h in ``max(1024, ceil(span/h) + 1)``
    points, so its step is at most h: a Gaussian sampled that finely keeps its
    trapezoid mass within 2 exp(-2 pi^2) ~ 5e-9 of 1 (Poisson summation). A span
    that is not finite, or a grid of more than 10^6 points, is refused.
    """
    nonzero, atom = split_atom(values)
    if len(nonzero) < 2:
        raise ValidationError("fewer than 2 nonzero eigenvalues")
    h = silverman_bandwidth(nonzero) if bandwidth is None else bandwidth
    if not 0 < h < math.inf:
        raise ValidationError(f"bandwidth must be finite and positive, got {h}")
    # counted in Python floats, which overflow to inf without a warning, before
    # anything is allocated
    lo, hi = float(nonzero.min()) - 5.0 * h, float(nonzero.max()) + 5.0 * h
    if not math.isfinite(hi - lo):
        raise ValidationError(f"bandwidth {h:.3g} gives a KDE grid over [{lo:.3g}, {hi:.3g}], "
                              f"whose span is not finite")
    steps = (hi - lo) / h
    if steps + 1 > _MAX_POINTS:
        raise ValidationError(f"bandwidth {h:.3g} needs a KDE grid of {steps + 1:.3g} points, "
                              f"more than {_MAX_POINTS}")
    grid = np.linspace(lo, hi, max(1024, math.ceil(steps) + 1))
    if np.any(np.diff(grid) <= 0):
        raise ValidationError(f"bandwidth {h:.3g} and eigenvalue spread {np.ptp(nonzero):.3g} "
                              f"are too small for a KDE grid at {nonzero.max():.9g}")
    return with_atom(DensityCurve(grid, kde_eval(nonzero, grid, float(h))), atom)


def projection_density(values, axis: str = "x", bins: int = 12) -> DensityCurve:
    """Atom-aware histogram of the sqrt(2)-rescaled real (``axis='x'``) or
    imaginary (``axis='y'``) parts of the complex eigenvalues ``values``.

    The eigenvalues ``split_atom`` counts as zero form the point mass at zero
    (the rank-deficiency atom of the lagged matrix); the remaining
    projections are histogrammed and weighted by their share.
    """
    if axis not in ("x", "y"):
        raise ValidationError(f"axis must be 'x' or 'y', got {axis!r}")
    nonzero, atom = split_atom(values)
    if nonzero.size == 0:
        raise ValidationError("every eigenvalue of the complex spectrum is zero")
    parts = nonzero.real if axis == "x" else nonzero.imag
    with np.errstate(over="ignore"):  # histogram_density refuses an inf
        parts = math.sqrt(2.0) * parts
    return with_atom(histogram_density(parts, bins=bins), atom)
