"""Sampled density curves: finite, strictly increasing grid, finite
non-negative ordinates, optional point mass at the origin."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DensityCurve", "union_grid"]


@dataclass(frozen=True)
class DensityCurve:
    xs: np.ndarray
    ys: np.ndarray
    point_mass_at_zero: float = 0.0

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=np.float64)
        ys = np.asarray(self.ys, dtype=np.float64)
        if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
            raise ValueError("xs and ys must be equal-length 1-d arrays (>= 2 points)")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise ValueError("xs and ys must be finite")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("xs must be strictly increasing")
        if np.any(ys < 0):
            raise ValueError("ys must be non-negative")
        if not 0.0 <= self.point_mass_at_zero < 1.0 + 1e-12:
            raise ValueError("point mass must lie in [0, 1)")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def continuous_mass(self) -> float:
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


def union_grid(curves) -> np.ndarray:
    """2048 evenly spaced abscissas spanning the union of the curves' supports."""
    return np.linspace(min(c.xs[0] for c in curves), max(c.xs[-1] for c in curves), 2048)
