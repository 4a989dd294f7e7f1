"""Independent oracles used across the test suite.

Kept deliberately separate from the package: closed-form root formulas
(quadratic/Cardano) instead of LAPACK eigensolvers, and explicit index sums
instead of matrix products, adaptive quadrature instead of closed-form
integrals.
"""

import math

import numpy as np
from scipy.integrate import quad


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
