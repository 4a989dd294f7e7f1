"""Theoretical benchmark densities.

Two families:

* the Marcenko-Pastur law for sample covariance eigenvalues at dimension
  ratio ``c = p/n``, with its square-root density on ``[(1-sqrt c)^2,
  (1+sqrt c)^2]`` and an atom of ``1 - 1/c`` at zero when ``c > 1``;

* the spectral density of the symmetrized time-lagged correlation matrix
  of white data, obtained by solving a quartic equation for the resolvent
  ``G(z)`` at ``z = x - i*eps`` and inverting ``rho(x) = Im G / pi``. The
  quartic depends on the data only through ``Q = T/N``. For ``Q < 1`` the
  rank deficiency of the lagged matrix puts an atom of mass ``1 - Q`` at
  the origin; the returned curve carries that atom separately and keeps
  only the continuous part in its ordinates.

The physical resolvent branch is fixed by its ``G ~ 1/z`` decay at large
``|z|`` and tracked by continuity from the outer grid ends inward.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .curves import DensityCurve
from .errors import (
    BranchAmbiguity,
    DegenerateLeadingCoefficient,
    InvalidRatio,
    NegativeDensity,
    NoConvergence,
    NotNormalized,
)

__all__ = [
    "MpParams",
    "mp_params",
    "mp_density",
    "mp_cdf",
    "GreenSolveConfig",
    "green_quartic_coeffs",
    "quartic_roots_batch",
    "solve_quartic",
    "green_function",
    "lagged_point_mass",
    "green_scan",
    "lagged_density_symmetric",
    "project_density",
]

log = logging.getLogger(__name__)

_AMBIGUITY_TOL = 1e-6
_IM_CLAMP = 1e-9


# --------------------------------------------------------------------------
# Marcenko-Pastur law
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MpParams:
    """Dimension ratio c, support edges [a, b], and the atom at zero."""

    c: float
    a: float
    b: float
    point_mass_at_zero: float


def mp_params(c: float) -> MpParams:
    if not (c > 0 and math.isfinite(c)):
        raise InvalidRatio(f"dimension ratio must be positive and finite, got {c}")
    s = math.sqrt(c)
    return MpParams(
        c=float(c),
        a=(1.0 - s) ** 2,
        b=(1.0 + s) ** 2,
        point_mass_at_zero=max(0.0, 1.0 - 1.0 / c),
    )


def mp_density(x, c: float):
    """Continuous Marcenko-Pastur density at ``x`` (atom not included).

    Vectorized over ``x``; zero outside the support.
    """
    prm = mp_params(c)
    xv = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(xv)
    m = (xv >= prm.a) & (xv <= prm.b) & (xv > 0)
    xm = xv[m]
    out[m] = np.sqrt((prm.b - xm) * (xm - prm.a)) / (2.0 * np.pi * c * xm)
    if np.isscalar(x) or xv.ndim == 0:
        return float(out)
    return out


def mp_cdf(x, c: float):
    """Marcenko-Pastur CDF (atom at zero included), in closed form.

    Vectorized over ``x``. Inside the support the continuous part is the
    antiderivative of ``sqrt((b-x)(x-a)) / x`` taken from ``a``,

        r + (a+b)/2 (asin s + pi/2) - sqrt(ab) (asin t + pi/2),
        r = sqrt((b-x)(x-a)), s = (2x-a-b)/(b-a), t = ((a+b)x-2ab)/((b-a)x),

    divided by ``2 pi c``; the last term vanishes when ``a = 0``. Each
    ``asin + pi/2`` is written as an ``atan2`` of ``x - a`` and ``b - x``,
    which keeps full accuracy next to the edges where ``asin`` loses digits.
    ``F = 0`` below 0, the atom on ``[0, a]`` and 1 from ``b`` on, exactly.
    """
    prm = mp_params(c)
    a, b, atom = prm.a, prm.b, prm.point_mass_at_zero
    xv = np.asarray(x, dtype=np.float64)
    u = np.clip(xv - a, 0.0, b - a)
    v = np.clip(b - xv, 0.0, b - a)
    r = np.sqrt(u * v)
    g = math.sqrt(a * b)
    cont = (r + 0.5 * (a + b) * np.arctan2(2.0 * r, v - u)
            - g * np.arctan2(2.0 * g * r, a * v - b * u)) / (2.0 * math.pi * c)
    # u = 0 gives cont = 0 exactly, so the clip also leaves F = atom on [0, a]
    out = np.where(xv < 0, 0.0, np.where(xv >= b, 1.0, np.clip(atom + cont, atom, 1.0)))
    if out.ndim == 0:
        return float(out)
    return out


# --------------------------------------------------------------------------
# Quartic resolvent of the lagged-correlation spectrum
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GreenSolveConfig:
    """Configuration for the lagged-spectrum solve.

    Q : information-to-noise ratio T/N.
    epsilon : offset below the real axis (z = x - i*eps).
    grid : evaluation abscissas; automatic when None.
    residual_tol : relative quartic residual accepted per point.
    """

    Q: float
    epsilon: float = 1e-3
    grid: np.ndarray | None = None
    residual_tol: float = 1e-9

    def __post_init__(self):
        if not (self.Q > 0 and math.isfinite(self.Q)):
            raise InvalidRatio(f"Q must be positive and finite, got {self.Q}")
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.grid is not None:
            g = np.asarray(self.grid, dtype=np.float64)
            if g.ndim != 1 or g.size < 2 or np.any(np.diff(g) <= 0):
                raise ValueError("grid must be strictly increasing")
            object.__setattr__(self, "grid", g)


def green_quartic_coeffs(z, Q: float) -> np.ndarray:
    """Descending-degree coefficients of the resolvent quartic at z.

    Vectorized over ``z``: a scalar gives shape (5,), an array of shape
    (...) gives (..., 5).
    """
    if not Q > 0:
        raise InvalidRatio(f"Q must be positive, got {Q}")
    z = np.asarray(z, dtype=np.complex128)
    if np.any(z == 0):
        raise ValueError("z must be nonzero")
    r = 1.0 / Q - 1.0
    c = np.empty(z.shape + (5,), dtype=np.complex128)
    c[..., 0] = z * z / Q**3
    c[..., 1] = -2.0 * r * z / Q**2
    c[..., 2] = -(z * z - r * r) / Q
    c[..., 3] = 2.0 * r * z
    c[..., 4] = 2.0 - 1.0 / Q
    return c


def quartic_roots_batch(coeffs: np.ndarray) -> np.ndarray:
    """Roots of a batch of quartics, descending-degree coefficients.

    Companion-matrix eigenvalues followed by two Newton polish steps; a
    polish step is kept only where it lowers the residual.

    Parameters
    ----------
    coeffs : (m, 5) complex array; ``coeffs[i, 0]`` must be nonzero.

    Returns
    -------
    (m, 4) complex array of roots, each row sorted by (real, imag).
    """
    c = np.ascontiguousarray(coeffs, dtype=np.complex128)
    if c.ndim != 2 or c.shape[1] != 5:
        raise ValueError("coeffs must have shape (m, 5)")
    m = c.shape[0]
    a = c[:, 1:] / c[:, :1]  # monic: x^4 + a0 x^3 + a1 x^2 + a2 x + a3

    comp = np.zeros((m, 4, 4), dtype=np.complex128)
    comp[:, 0, :] = -a
    comp[:, 1, 0] = 1.0
    comp[:, 2, 1] = 1.0
    comp[:, 3, 2] = 1.0
    roots = np.linalg.eigvals(comp)

    for _ in range(2):
        p = ((roots + a[:, :1]) * roots + a[:, 1:2]) * roots * roots \
            + a[:, 2:3] * roots + a[:, 3:4]
        dp = ((4.0 * roots + 3.0 * a[:, :1]) * roots + 2.0 * a[:, 1:2]) * roots \
            + a[:, 2:3]
        step = np.where(dp != 0.0, p / np.where(dp != 0.0, dp, 1.0), 0.0)
        cand = roots - step
        p_new = ((cand + a[:, :1]) * cand + a[:, 1:2]) * cand * cand \
            + a[:, 2:3] * cand + a[:, 3:4]
        roots = np.where(np.abs(p_new) < np.abs(p), cand, roots)

    order = np.lexsort((roots.imag, roots.real), axis=1)
    return np.take_along_axis(roots, order, axis=1)


def _residuals(coeffs: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """|P(root)| / ||coeffs||_2 for (m, 5) coefficients and (m, k) roots."""
    c = np.atleast_2d(coeffs)
    r = np.atleast_2d(roots)
    acc = np.broadcast_to(c[:, :1], r.shape).astype(np.complex128)
    for k in range(1, 5):
        acc = acc * r + c[:, k : k + 1]
    scale = np.linalg.norm(c, axis=1, keepdims=True)
    return (np.abs(acc) / scale).reshape(np.shape(roots))


def solve_quartic(coeffs, residual_tol: float = 1e-9) -> np.ndarray:
    """All four roots of a quartic, sorted by (real, imag).

    Companion-matrix eigenvalues followed by two Newton polish steps; raises
    ``NoConvergence`` if any relative residual exceeds ``residual_tol``.
    """
    c = np.asarray(coeffs, dtype=np.complex128).reshape(-1)
    if c.shape != (5,):
        raise ValueError("expected 5 coefficients")
    scale = np.abs(c).max()
    if scale == 0.0 or np.abs(c[0]) < 1e-14 * scale:
        raise DegenerateLeadingCoefficient(f"leading coefficient {c[0]!r} is (near) zero")
    roots = quartic_roots_batch(c[None, :])[0]
    res = _residuals(c[None, :], roots[None, :])[0]
    if res.max() > residual_tol:
        raise NoConvergence(f"relative residual {res.max():.3e} above {residual_tol}")
    return roots


def _pick_branch(roots: np.ndarray, target: complex, x: float,
                 require_unambiguous: bool) -> complex:
    d = np.abs(roots - target)
    order = np.argsort(d)
    if require_unambiguous and d[order[1]] < _AMBIGUITY_TOL and \
            np.abs(roots[order[0]] - roots[order[1]]) < _AMBIGUITY_TOL:
        raise BranchAmbiguity(x, f"two roots within {_AMBIGUITY_TOL} of the previous value")
    return complex(roots[order[0]])


def green_function(z: complex, Q: float, previous: complex | None = None,
                   residual_tol: float = 1e-9) -> complex:
    """Physical root of the resolvent quartic at a single point.

    With ``previous`` supplied the root nearest to it is taken (continuity);
    otherwise the root nearest the asymptotic value ``1/z``. Requires
    ``Im z < 0``; the returned root satisfies ``Im G >= -1e-9``.
    """
    z = complex(z)
    if not z.imag < 0:
        raise ValueError("green_function requires Im z < 0")
    roots = solve_quartic(green_quartic_coeffs(z, Q), residual_tol=residual_tol)
    target = previous if previous is not None else 1.0 / z
    g = _pick_branch(roots, complex(target), z.real, require_unambiguous=previous is not None)
    if g.imag < -_IM_CLAMP:
        raise NegativeDensity(f"Im G = {g.imag} at z = {z}")
    return g


def lagged_point_mass(Q: float) -> float:
    """Mass of the atom at zero: 1 - Q for Q < 1 (rank deficiency), else 0."""
    if not Q > 0:
        raise InvalidRatio(f"Q must be positive, got {Q}")
    return max(0.0, 1.0 - Q)


def _default_grid(Q: float, eps: float) -> np.ndarray:
    """Symmetric grid, dense near the origin so that the finite-eps
    (Lorentzian-smeared) atom and edge singularities are resolved."""
    L = 2.2 * math.sqrt(2.0 / Q) + 1.2
    while _edge_density(L, Q, eps) >= 1e-6 and L < 64.0:
        L *= 1.4

    core_hw = 60.0 * eps
    core = np.arange(0.0, core_hw, eps / 4.0)
    geo_hi = max(4.0 * core_hw, 0.15 * L)
    geo = np.geomspace(core_hw, geo_hi, 64)
    outer_step = min(0.01, L / 1200.0)
    outer = np.arange(geo_hi + outer_step, L + outer_step, outer_step)
    pos = np.unique(np.concatenate([core, geo, outer]))
    pos = pos[pos > 0]
    return np.concatenate([-pos[::-1], [0.0], pos])


def _edge_density(x: float, Q: float, eps: float) -> float:
    g = green_function(x - 1j * eps, Q)
    return max(g.imag, 0.0) / math.pi


def green_scan(cfg: GreenSolveConfig) -> tuple[np.ndarray, np.ndarray]:
    """Physical resolvent branch on the whole grid.

    Solves the quartic at every ``x - i*eps``, then tracks the branch by
    continuity: the outermost point of each half-grid is seeded with the
    asymptotic 1/z root and propagated inward toward the origin. Returns
    (grid, G values); every G satisfies the residual tolerance and
    ``Im G >= -1e-9``.
    """
    xs = cfg.grid if cfg.grid is not None else _default_grid(cfg.Q, cfg.epsilon)
    eps = cfg.epsilon
    coeffs = green_quartic_coeffs(xs - 1j * eps, cfg.Q)
    roots = quartic_roots_batch(coeffs)

    m = len(xs)
    G = np.empty(m, dtype=np.complex128)
    # anchor each sweep at its largest-|x| end; grids straddling the origin
    # get two sweeps meeting in the middle
    if xs[0] < 0.0 < xs[-1]:
        mid = int(np.argmin(np.abs(xs)))
        segments = [range(m - 1, mid - 1, -1), range(0, mid)]
    elif abs(xs[-1]) >= abs(xs[0]):
        segments = [range(m - 1, -1, -1)]
    else:
        segments = [range(0, m)]
    for seg in segments:
        prev: complex | None = None
        for i in seg:
            z = complex(xs[i], -eps)
            target = 1.0 / z if prev is None else prev
            prev = _pick_branch(roots[i], target, float(xs[i]),
                                require_unambiguous=prev is not None)
            G[i] = prev

    res = _residuals(coeffs, G[:, None])
    if res.max() > cfg.residual_tol:
        raise NoConvergence(f"relative residual {res.max():.3e} above {cfg.residual_tol}")
    if G.imag.min() < -_IM_CLAMP:
        k = int(np.argmin(G.imag))
        raise NegativeDensity(f"Im G = {G.imag.min()} at x = {xs[k]}")
    return xs, G


def lagged_density_symmetric(cfg: GreenSolveConfig) -> DensityCurve:
    """Spectral density of the symmetrized lagged correlation matrix.

    Runs ``green_scan`` and inverts ``rho = Im G / pi``. The exact
    finite-eps image of the atom (mass ``1 - Q`` for Q < 1) is subtracted
    from the ordinates and reported via ``point_mass_at_zero`` instead, so
    the curve stays integrable on coarse grids; negative residues below
    1e-9 are clamped (and logged).
    """
    xs, G = green_scan(cfg)
    eps = cfg.epsilon
    atom = lagged_point_mass(cfg.Q)
    ys = G.imag / np.pi
    if atom > 0.0:
        ys = ys - atom * (eps / np.pi) / (xs * xs + eps * eps)
    clip = np.minimum(ys, 0.0)
    if clip.min() < 0.0:
        log.debug("clamped negative density: worst %.3e over %d points",
                  clip.min(), int((clip < 0).sum()))
    ys = np.clip(ys, 0.0, None)
    return DensityCurve(xs, ys, point_mass_at_zero=atom)


def project_density(rho_s: DensityCurve, axis: str = "x") -> DensityCurve:
    """Rescale a symmetric-problem density to the axis-projection frame.

    Returns the curve ``x -> sqrt(2) * rho(sqrt(2) x)``; the ordinate factor
    keeps the projection normalized. The antisymmetric-problem density used
    for ``axis='y'`` is taken equal to the symmetric one (radially symmetric
    spectrum), so both axes share one transform. Point mass is unaffected.
    """
    if axis not in ("x", "y"):
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    if abs(rho_s.total_mass() - 1.0) > 0.02:
        raise NotNormalized(f"input curve mass {rho_s.total_mass():.4f} is not ~1")
    root2 = math.sqrt(2.0)
    return DensityCurve(rho_s.xs / root2, rho_s.ys * root2,
                        point_mass_at_zero=rho_s.point_mass_at_zero)
