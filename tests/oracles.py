"""Independent oracles used across the test suite.

Kept deliberately separate from the package: closed-form root formulas
(quadratic/Cardano) instead of LAPACK eigensolvers, and explicit index sums
instead of matrix products, adaptive quadrature instead of closed-form
integrals. The branch tracker and the CSV writers are kept here as the plain
per-point / per-row loops the package's vectorized forms must match bit for
bit.
"""

import math

import numpy as np
from scipy.integrate import quad

from rmtspec import theory
from rmtspec.curves import union_grid
from rmtspec.errors import BranchAmbiguity, NegativeDensity, NoConvergence


def charpoly_eigs(A):
    """Eigenvalues of a 1x1 / 2x2 / 3x3 matrix from the characteristic
    polynomial in closed form."""
    A = np.asarray(A, dtype=np.complex128)
    n = A.shape[0]
    if n == 1:
        return np.array([A[0, 0]])
    if n == 2:
        tr = A[0, 0] + A[1, 1]
        det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
        disc = np.sqrt(tr * tr - 4.0 * det + 0j)
        return np.array([(tr + disc) / 2.0, (tr - disc) / 2.0])
    if n == 3:
        tr = np.trace(A)
        m2 = (
            A[1, 1] * A[2, 2] - A[1, 2] * A[2, 1]
            + A[0, 0] * A[2, 2] - A[0, 2] * A[2, 0]
            + A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
        )
        det = (
            A[0, 0] * (A[1, 1] * A[2, 2] - A[1, 2] * A[2, 1])
            - A[0, 1] * (A[1, 0] * A[2, 2] - A[1, 2] * A[2, 0])
            + A[0, 2] * (A[1, 0] * A[2, 1] - A[1, 1] * A[2, 0])
        )
        return _cubic_roots(1.0, -tr, m2, -det)
    raise ValueError("oracle supports sizes 1..3 only")


def _cubic_roots(a, b, c, d):
    """Roots of a x^3 + b x^2 + c x + d via Cardano (complex arithmetic)."""
    b, c, d = b / a, c / a, d / a
    p = c - b * b / 3.0
    q = 2.0 * b**3 / 27.0 - b * c / 3.0 + d
    disc = np.sqrt((q / 2.0) ** 2 + (p / 3.0) ** 3 + 0j)
    u3 = -q / 2.0 + disc
    if abs(u3) < 1e-30:
        u3 = -q / 2.0 - disc
    u = u3 ** (1.0 / 3.0)
    if abs(u) < 1e-30:
        t = np.zeros(3, dtype=complex)
    else:
        v = -p / (3.0 * u)
        w = np.exp(2j * np.pi / 3.0)
        t = np.array([u + v, u * w + v * w**2, u * w**2 + v * w])
    return t - b / 3.0


def green_quartic_terms(z, Q):
    """Descending-degree coefficients of the resolvent quartic in ``G``
    itself, the form the package's quartic in ``w = zG`` is derived from:

        z^2 G^4 / Q^3 - 2 r z G^3 / Q^2 - (z^2 - r^2) G^2 / Q + 2 r z G + 2 - 1/Q,

    with ``r = 1/Q - 1``. Plain arithmetic, so ``z`` and ``Q`` may be floats,
    arrays, mpmath numbers or sympy symbols; returns a list of five."""
    r = 1 / Q - 1
    return [z**2 / Q**3, -2 * r * z / Q**2, -(z**2 - r**2) / Q, 2 * r * z, 2 - 1 / Q]


def green_quartic_coeffs_g(z, Q):
    """``green_quartic_terms`` for double ``z`` of shape (...): (..., 5)."""
    z = np.asarray(z, dtype=np.complex128)
    return np.stack(np.broadcast_arrays(*green_quartic_terms(z, float(Q))), axis=-1)


def sample_cov_loops(X):
    """(1/n) X X^T by explicit triple loop."""
    p, n = X.shape
    out = np.zeros((p, p))
    for i in range(p):
        for j in range(p):
            s = 0.0
            for t in range(n):
                s += X[i, t] * X[j, t]
            out[i, j] = s / n
    return out


def lagged_corr_loops(X, tau):
    """(1/T) sum_t X[i,t] X[j,t+tau] by explicit loop (boundary-truncated)."""
    p, T = X.shape
    out = np.zeros((p, p))
    for i in range(p):
        for j in range(p):
            s = 0.0
            for t in range(T - tau):
                s += X[i, t] * X[j, t + tau]
            out[i, j] = s / T
    return out


def greedy_pairing_residual(a, b):
    """Max distance of a greedy nearest-neighbor matching of two multisets."""
    a = list(np.asarray(a, dtype=complex))
    b = list(np.asarray(b, dtype=complex))
    assert len(a) == len(b)
    worst = 0.0
    for x in a:
        dists = [abs(x - y) for y in b]
        k = int(np.argmin(dists))
        worst = max(worst, dists[k])
        b.pop(k)
    return worst


def mp_cdf_quad(x, c):
    """Marcenko-Pastur CDF at scalar ``x`` by adaptive quadrature of the
    density. The substitution x = a + u^2 removes the square-root (at c = 1,
    inverse square-root) lower edge. Near c = 1 the integrand still turns
    from 0 to its plateau over a width sqrt(a) that can be far below the
    interval, so breakpoints at sqrt(a) times powers of 10 expose it."""
    s = math.sqrt(c)
    a, b = (1.0 - s) ** 2, (1.0 + s) ** 2
    atom = max(0.0, 1.0 - 1.0 / c)
    if x < 0:
        return 0.0
    if x <= a:
        return atom

    def g(u):  # 2u times the density at t = a + u^2
        t = a + u * u
        # u^2 / t, whose limit at t = 0 (a = 0, i.e. c = 1) is 1
        ratio = u * u / t if t > 0 else 1.0
        return ratio * math.sqrt(max(b - t, 0.0)) / (math.pi * c)

    hi = math.sqrt(min(x, b) - a)
    points = [math.sqrt(a) * 10.0**k for k in range(20)]
    points = [p for p in points if 0.0 < p < hi] or None
    return atom + quad(g, 0.0, hi, epsabs=1e-13, epsrel=1e-12, limit=200, points=points)[0]


def _pick_branch(roots, target, x, require_unambiguous):
    d = np.abs(roots - target)
    order = np.argsort(d, kind="stable")
    tol = theory._AMBIGUITY_TOL
    if require_unambiguous and d[order[1]] < tol and np.abs(roots[order[0]] - roots[order[1]]) < tol:
        raise BranchAmbiguity(x, f"two roots within {tol} of the previous value")
    return complex(roots[order[0]])


def reference_track(z, Q, residual_tol, previous=None):
    """The branch tracker as a loop over the points: at each point the root
    nearest the previous pick (the first: nearest ``previous``, else ``1/z``),
    with the ambiguity test on every pick that has a previous value, then the
    residual and ``Im G`` gates. Drop-in for ``rmtspec.theory._track``; the
    roots come from ``theory.quartic_roots_batch``, looked up at call time."""
    coeffs = theory.green_quartic_coeffs(z, Q)
    roots = theory.quartic_roots_batch(coeffs) / z[:, None]
    G = np.empty(len(z), dtype=np.complex128)
    for i in range(len(z)):
        target = 1.0 / complex(z[i]) if previous is None else previous
        previous = G[i] = _pick_branch(roots[i], target, float(z[i].real),
                                       require_unambiguous=previous is not None)
    res = theory._residuals(coeffs, (z * G)[:, None]).max()
    if res > residual_tol:
        raise NoConvergence(f"relative residual {res:.3e} above {residual_tol}")
    if G.imag.min() < -theory._IM_CLAMP:
        raise NegativeDensity(f"Im G = {G.imag.min()} at x = {z.real[np.argmin(G.imag)]}")
    return G


def reference_density_csv(curves, labels):
    """Bytes of a density CSV formatted row by row with f-strings: atoms as
    ``# point_mass_<label>=`` lines, the ``x,<labels>`` header, then 9
    significant digits per value; curves on different grids are resampled
    onto the union grid."""
    if all(np.array_equal(c.xs, curves[0].xs) for c in curves):
        xs, cols = curves[0].xs, [c.ys for c in curves]
    else:
        xs = union_grid(curves)
        cols = [c(xs) for c in curves]
    lines = [f"# point_mass_{label}={c.point_mass_at_zero:.9g}"
             for label, c in zip(labels, curves) if c.point_mass_at_zero > 0]
    lines.append("x," + ",".join(labels))
    for i, x in enumerate(xs):
        lines.append(f"{x:.9g}," + ",".join(f"{col[i]:.9g}" for col in cols))
    return ("\n".join(lines) + "\n").encode("utf-8")


def reference_cloud_csv(values):
    """Bytes of ``analyze lagged``'s eigenvalue cloud, one ``re,im`` row per value."""
    lines = ["re,im"] + [f"{v.real:.9g},{v.imag:.9g}" for v in values]
    return ("\n".join(lines) + "\n").encode()
