"""Sampled density curves: finite, strictly increasing grid, finite
non-negative ordinates, optional point mass at the origin; and the cell
averages of a CDF on a uniform grid."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = ["DensityCurve", "cell_averages"]

# the most points of any grid the package allocates for one curve: a default
# KDE or lagged-law grid, the bins of a histogram, `theory mp --points`; each
# is counted and refused before it is allocated
_MAX_POINTS = 10**6
# bytes of every bounded temporary: a capture read's staging block, the row
# block of standardize_rows, the KDE's grid chunk, add_awgn's noise chunk; a
# freed block of several MiB would raise glibc's dynamic mmap threshold, so the
# next command's MiB-sized temporaries would stay on the heap
_BLOCK_BYTES = 1 << 19


def _block_items(item_bytes: int) -> int:
    """How many items of ``item_bytes`` bytes one block holds: one at least."""
    return max(1, _BLOCK_BYTES // item_bytes)


@dataclass(frozen=True)
class DensityCurve:
    xs: np.ndarray
    ys: np.ndarray
    point_mass_at_zero: float = 0.0

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=np.float64)
        ys = np.asarray(self.ys, dtype=np.float64)
        if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
            raise ValidationError("xs and ys must be equal-length 1-d arrays (>= 2 points)")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise ValidationError("xs and ys must be finite")
        if np.any(xs[1:] <= xs[:-1]):  # a difference of extreme xs would overflow
            raise ValidationError("xs must be strictly increasing")
        if np.any(ys < 0):
            raise ValidationError("ys must be non-negative")
        if not 0.0 <= self.point_mass_at_zero <= 1.0:
            raise ValidationError("point mass must lie in [0, 1]")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def continuous_mass(self) -> float:
        # a sum or gap past DBL_MAX makes the mass inf, which require_unit_mass refuses
        with np.errstate(over="ignore"):
            return float(np.trapezoid(self.ys, self.xs))

    def total_mass(self) -> float:
        return self.continuous_mass() + self.point_mass_at_zero

    def __call__(self, x) -> np.ndarray:
        """Linear interpolation, zero outside the grid."""
        return np.interp(np.asarray(x, dtype=np.float64), self.xs, self.ys,
                         left=0.0, right=0.0)

    def cdf(self, x) -> np.ndarray:
        """Exact integral of the linear interpolant up to ``x``, plus the atom
        from ``x >= 0`` on."""
        x = np.asarray(x, dtype=np.float64)
        t = np.clip(x, self.xs[0], self.xs[-1])
        i = np.minimum(np.searchsorted(self.xs, t, side="right"), len(self.xs) - 1) - 1
        knots = np.concatenate(
            [[0.0], np.cumsum(np.diff(self.xs) * 0.5 * (self.ys[1:] + self.ys[:-1]))])
        # the interpolant is linear on [xs[i], t], so this trapezoid is exact
        part = (t - self.xs[i]) * 0.5 * (self.ys[i] + self(t))
        return knots[i] + part + self.point_mass_at_zero * (x >= 0.0)


def cell_averages(grid, cdf, atom: float = 0.0) -> DensityCurve:
    """The curve on the uniform float array ``grid`` (step h) whose ordinate
    at x is the mean density over the cell [x - h/2, x + h/2], that is
    (F(x + h/2) - F(x - h/2)) / h of the continuous part of the vectorized
    ``cdf`` F, which holds ``atom`` at 0; the curve keeps the atom.

    The cells tile [grid[0] - h/2, grid[-1] + h/2], so when the grid clears
    the support by half a cell at each end the ordinates at both ends are 0
    and the trapezoid mass is the CDF's continuous mass, to rounding.
    """
    h = grid[1] - grid[0]
    edges = np.append(grid - 0.5 * h, grid[-1] + 0.5 * h)
    cont = cdf(edges) - atom * (edges >= 0.0)
    # a CDF rounded near a flat stretch may step down by an ulp
    return DensityCurve(grid, np.maximum(np.diff(cont), 0.0) / h, point_mass_at_zero=atom)
