"""Empirical spectral distributions, kernel density estimates, and distances
between empirical and theoretical densities."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .curves import DensityCurve, union_grid
from .errors import (
    BandwidthNonPositive,
    DegenerateSample,
    DisjointSupportsWarning,
    EmptyInput,
    EmptySpectrum,
)
from .linalg import ComplexSpectrum, RealSpectrum

__all__ = [
    "KernelConfig",
    "EsdFunction",
    "esd_eval",
    "silverman_bandwidth",
    "kde_eval",
    "kde_estimate",
    "histogram_density",
    "ks_distance",
    "l1_distance",
    "complex_projection_samples",
    "split_atom",
    "snap_zeros",
    "eigenvalue_density",
    "projection_density",
]

_KERNEL_IDS = {"gaussian": 0, "epanechnikov": 1}
_ZERO_REL_TOL = 1e-8
_SQRT_2PI = np.sqrt(2.0 * np.pi)


@dataclass(frozen=True)
class KernelConfig:
    """Kernel shape and bandwidth; ``bandwidth=None`` selects Silverman's rule.

    An explicit bandwidth must be finite and positive.
    """

    kernel: str = "gaussian"
    bandwidth: float | None = None

    def __post_init__(self):
        if self.kernel not in _KERNEL_IDS:
            raise ValueError(f"unknown kernel {self.kernel!r}")
        if self.bandwidth is not None and not 0 < self.bandwidth < math.inf:
            raise BandwidthNonPositive(
                f"bandwidth must be finite and positive, got {self.bandwidth}")


@dataclass(frozen=True)
class EsdFunction:
    """Empirical spectral distribution: right-continuous step CDF."""

    values: np.ndarray

    def __post_init__(self):
        v = np.sort(np.asarray(self.values, dtype=np.float64))
        if v.size == 0:
            raise EmptySpectrum("cannot build an ESD from zero eigenvalues")
        object.__setattr__(self, "values", v)

    @property
    def count(self) -> int:
        return len(self.values)

    def __call__(self, x):
        idx = np.searchsorted(self.values, np.asarray(x, dtype=np.float64), side="right")
        return idx / self.count


def esd_eval(spec: RealSpectrum, x) -> float:
    """Fraction of eigenvalues <= x."""
    return float(EsdFunction(spec.values)(x))


def silverman_bandwidth(samples) -> float:
    """Silverman's rule of thumb: 0.9 min(std, IQR/1.34) m^(-1/5).

    Requires at least two distinct samples; if the IQR degenerates to zero
    the std alone is used.
    """
    s = np.asarray(samples, dtype=np.float64).ravel()
    if len(np.unique(s)) < 2:
        raise DegenerateSample("need at least 2 distinct samples for a bandwidth")
    std = float(np.std(s, ddof=1))
    q75, q25 = np.percentile(s, [75.0, 25.0])
    iqr = float(q75 - q25)
    spread = min(std, iqr / 1.34) if iqr > 0 else std
    return 0.9 * spread * len(s) ** (-0.2)


def kde_eval(samples: np.ndarray, grid: np.ndarray, h: float, kernel: int) -> np.ndarray:
    """Kernel density estimate of `samples` on `grid` with bandwidth `h`.

    kernel: 0 = gaussian, 1 = epanechnikov.
    """
    s = np.asarray(samples, dtype=np.float64).ravel()
    x = np.asarray(grid, dtype=np.float64).ravel()
    out = np.zeros(len(x), dtype=np.float64)
    if len(s) == 0:
        return out
    # chunk the grid to bound the (chunk x samples) temporary
    chunk = max(1, int(4_000_000 // max(len(s), 1)))
    for lo in range(0, len(x), chunk):
        u = (x[lo:lo + chunk, None] - s[None, :]) / h
        if kernel == 0:
            k = np.exp(-0.5 * u * u) / _SQRT_2PI
        else:
            k = 0.75 * np.clip(1.0 - u * u, 0.0, None)
        out[lo:lo + chunk] = k.sum(axis=1)
    out /= len(s) * h
    return out


def kde_estimate(spec: RealSpectrum | np.ndarray, cfg: KernelConfig, grid) -> DensityCurve:
    """Kernel density estimate of a spectrum on explicit abscissas."""
    vals = spec.values if isinstance(spec, RealSpectrum) else np.asarray(spec, float).ravel()
    if vals.size == 0:
        raise EmptySpectrum("cannot estimate a density from zero eigenvalues")
    h = cfg.bandwidth if cfg.bandwidth is not None else silverman_bandwidth(vals)
    if not h > 0:
        raise BandwidthNonPositive(f"bandwidth must be positive, got {h}")
    xs = np.asarray(grid, dtype=np.float64)
    ys = kde_eval(vals, xs, float(h), _KERNEL_IDS[cfg.kernel])
    return DensityCurve(xs, ys)


def histogram_density(samples, bins: int, range: tuple[float, float] | None = None) -> DensityCurve:
    """Density-normalized histogram as a step curve sampled at bin centers."""
    s = np.asarray(samples, dtype=np.float64).ravel()
    if s.size == 0:
        raise EmptyInput("cannot histogram an empty sample set")
    if bins < 1:
        raise EmptyInput(f"bins must be >= 1, got {bins}")
    heights, edges = np.histogram(s, bins=bins, range=range, density=True)
    centers = 0.5 * (edges[1:] + edges[:-1])
    # anchor the outer edges at the boundary heights: the trapezoid mass of
    # the resulting polyline telescopes to exactly sum(height * width)
    xs = np.concatenate([[edges[0]], centers, [edges[-1]]])
    ys = np.concatenate([[heights[0]], heights, [heights[-1]]])
    return DensityCurve(xs, ys)


def ks_distance(esd: EsdFunction, cdf) -> float:
    """Kolmogorov-Smirnov distance between an ESD and a theoretical CDF.

    Supremum over eigenvalue points, evaluated on both sides of each
    empirical step. The lower comparison uses the theoretical CDF's left
    limit (``cdf`` evaluated just below the point) so shared atoms, e.g.
    at zero, are compared jump-against-jump.
    """
    vals, counts = np.unique(esd.values, return_counts=True)
    hi = np.cumsum(counts) / esd.count
    lo = np.concatenate([[0.0], hi[:-1]])
    F = np.asarray(cdf(vals), dtype=np.float64)
    F_left = np.asarray(cdf(np.nextafter(vals, -np.inf)), dtype=np.float64)
    return float(max(np.abs(hi - F).max(), np.abs(lo - F_left).max()))


def l1_distance(curve_a: DensityCurve, curve_b: DensityCurve) -> float:
    """L1 distance between two density curves plus |difference of atoms|.

    Curves are resampled onto a common 2048-point grid over the union
    support by linear interpolation. Disjoint supports warn and degenerate
    to the sum of the two masses.
    """
    if curve_a.xs[-1] < curve_b.xs[0] or curve_b.xs[-1] < curve_a.xs[0]:
        warnings.warn("density supports are disjoint", DisjointSupportsWarning,
                      stacklevel=2)
    grid = union_grid([curve_a, curve_b])
    diff = np.abs(curve_a(grid) - curve_b(grid))
    return float(np.trapezoid(diff, grid)
                 + abs(curve_a.point_mass_at_zero - curve_b.point_mass_at_zero))


def complex_projection_samples(spec: ComplexSpectrum, axis: str = "x") -> np.ndarray:
    """sqrt(2)-rescaled real or imaginary parts of a complex spectrum."""
    if len(spec.values) == 0:
        raise EmptySpectrum("empty complex spectrum")
    if axis == "x":
        parts = spec.values.real
    elif axis == "y":
        parts = spec.values.imag
    else:
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    return math.sqrt(2.0) * parts


def snap_zeros(values: np.ndarray) -> np.ndarray:
    """Set entries below 1e-8 times the largest magnitude exactly to zero.

    Rank-deficient covariance/lagged matrices produce eigenvalues that are
    zero up to rounding; snapping aligns them with the theoretical atom at
    the origin for CDF/KS comparisons.
    """
    v = np.asarray(values).copy()
    scale = np.abs(v).max() if v.size else 0.0
    if scale > 0:
        v[np.abs(v) < _ZERO_REL_TOL * scale] = 0.0
    return v


def split_atom(values) -> tuple[np.ndarray, float]:
    """Nonzero values (order kept) and the zero share, by ``snap_zeros``' rule."""
    v = np.asarray(values)
    if v.size == 0:
        raise EmptySpectrum("empty spectrum")
    nonzero = v[snap_zeros(v) != 0]
    return nonzero, 1.0 - len(nonzero) / len(v)


def eigenvalue_density(spec: RealSpectrum, cfg: KernelConfig | None = None,
                       grid=None) -> DensityCurve:
    """Atom-aware KDE of a real spectrum.

    The eigenvalues ``split_atom`` counts as zero form the point mass at zero
    and are excluded from the KDE; the continuous part is weighted by its
    share so curve-plus-atom integrates to one.
    """
    cfg = cfg or KernelConfig()
    nonzero, atom = split_atom(spec.values)
    if len(nonzero) < 2:
        raise DegenerateSample("fewer than 2 nonzero eigenvalues")
    h = cfg.bandwidth if cfg.bandwidth is not None else silverman_bandwidth(nonzero)
    if grid is None:
        grid = np.linspace(nonzero.min() - 5 * h, nonzero.max() + 5 * h, 1024)
    curve = kde_estimate(nonzero, KernelConfig(cfg.kernel, h), grid)
    return DensityCurve(curve.xs, curve.ys * (1.0 - atom), point_mass_at_zero=atom)


def projection_density(spec: ComplexSpectrum, axis: str = "x", bins: int = 12,
                       range: tuple[float, float] | None = None) -> DensityCurve:
    """Atom-aware histogram of the sqrt(2)-rescaled axis projection.

    The eigenvalues ``split_atom`` counts as zero form the point mass at zero
    (the rank-deficiency atom of the lagged matrix); the remaining
    projections are histogrammed and weighted by their share.
    """
    nonzero, atom = split_atom(spec.values)
    proj = complex_projection_samples(ComplexSpectrum(nonzero), axis)
    hist = histogram_density(proj, bins=bins, range=range)
    return DensityCurve(hist.xs, hist.ys * (1.0 - atom), point_mass_at_zero=atom)
