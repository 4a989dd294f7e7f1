"""Independent oracles used across the test suite.

Kept deliberately separate from the package: closed-form root formulas
(quadratic/Cardano) instead of LAPACK eigensolvers and, the other way round,
companion-matrix eigenvalues instead of the package's closed-form quartic
solve; explicit index sums instead of matrix products, adaptive quadrature
instead of closed-form integrals. The branch tracker and the CSV writers are kept here as the plain
per-point / per-row loops the package's vectorized forms must match bit for
bit, and the lagged-density scan as the two sweeps and the candidate-by-candidate
edge search that its folded sweep and batched search replace. ``g_unit_track`` is
the tracker that solved the quartic in w = zG and judged its seed, distances and
ambiguity in G units: the package's rule in v = zG - (1-Q)_+ must write the same
G to that quartic's resolution, and refuse only where it refuses or where its one
stronger gate, on the continuous part, fails. Both trackers take their residual
from ``quartic_residuals`` here, not from the package. ``unsquared_lhs`` is the
lagged law's equation before squaring, which tells the physical root from the
roots squaring brought in, and ``arcsine_mp_resolvent`` solves the law's
Marcenko-Pastur equation as a fixed point, with no quartic at all;
``lagged_edge`` and ``rho0`` are the law's support edge and density at eps = 0,
from a discriminant cubic and companion roots on the real axis, with no branch
tracking. The capture read, row
standardization, narrowband generator and kernel density estimate are kept as
the whole-array forms (one full read, whole-payload conversion, one std over all
rows, the repeated baseband times the cosine, the old grid chunking) that the
package's streamed, chunked and in-place forms must match bit for bit.
``project_density``, the axis-projection frame change,
lives here because only the acceptance check and its unit tests use it; so
does ``mp_density``, the Marcenko-Pastur point density, which the package
reaches only through its closed-form CDF.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from rmtspec import theory
from rmtspec.curves import _MAX_POINTS, DensityCurve
from rmtspec.errors import (
    BranchAmbiguity,
    NumericalError,
    ValidationError,
    ZeroVarianceRow,
)
from rmtspec.fileio import _HEADER, DTYPE_F32_REAL, DTYPE_I16_REAL, CaptureHeader
from rmtspec.linalg import DataMatrix


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


@np.errstate(all="ignore")
def companion_roots(coeffs):
    """Roots of a batch of quartics, (m, 5) descending-degree coefficients, as
    companion-matrix eigenvalues (LAPACK ``geev``) followed by two Newton polish
    steps, each kept only where it lowers |P|; rows sorted by (real, imag)."""
    c = np.ascontiguousarray(coeffs, dtype=np.complex128)
    a = c[:, 1:] / c[:, :1]  # monic: x^4 + a0 x^3 + a1 x^2 + a2 x + a3
    comp = np.zeros((c.shape[0], 4, 4), dtype=np.complex128)
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
        cand = roots - p / dp
        p_new = ((cand + a[:, :1]) * cand + a[:, 1:2]) * cand * cand \
            + a[:, 2:3] * cand + a[:, 3:4]
        roots = np.where(np.abs(p_new) < np.abs(p), cand, roots)

    order = np.lexsort((roots.imag, roots.real), axis=1)
    return np.take_along_axis(roots, order, axis=1)


def green_quartic_terms(z, Q):
    """Descending-degree coefficients of the resolvent quartic in ``G``
    itself, the form the package's quartic in ``w = zG`` is derived from:

        z^2 G^4 / Q^3 - 2 r z G^3 / Q^2 - (z^2 - r^2) G^2 / Q + 2 r z G + 2 - 1/Q,

    with ``r = 1/Q - 1``. Plain arithmetic, so ``z`` and ``Q`` may be floats,
    arrays, mpmath numbers or sympy symbols; returns a list of five."""
    r = 1 / Q - 1
    return [z**2 / Q**3, -2 * r * z / Q**2, -(z**2 - r**2) / Q, 2 * r * z, 2 - 1 / Q]


def quartic_residuals(coeffs, roots):
    """``|P(root)| / ||coeffs||_2`` for (m, 5) descending-degree coefficients and
    (m, k) roots, by Horner from the leading coefficient."""
    c, r = np.atleast_2d(coeffs), np.atleast_2d(roots)
    acc = np.broadcast_to(c[:, :1], r.shape).astype(np.complex128)
    for k in range(1, 5):
        acc = acc * r + c[:, k : k + 1]
    return np.abs(acc) / np.linalg.norm(c, axis=1, keepdims=True)


def unsquared_lhs(v, z, Q):
    """The lagged law's equation before squaring, over Q, evaluated in
    ``v = zG - a``: ``(v + d) sqrt(1 - G/Q) sqrt(1 + G/Q) / Q`` with
    ``G = (v + a)/z``, ``a = (1-Q)_+``, ``d = (Q-1)_+`` and principal roots. It
    is 1 at the physical root and -1 at the roots that squaring brought in.
    This is ``(1 - Q - w) sqrt(1 - G/Q) sqrt(1 + G/Q) = -Q``, ``w = zG``, the
    Marcenko-Pastur equation with an arcsine time-side law; written in v, it
    avoids the cancellation in ``1 - Q - w`` next to ``w = 1 - Q``."""
    a, d = max(0.0, 1.0 - Q), max(0.0, Q - 1.0)
    G = (v + a) / z
    return (v + d) * np.sqrt(1.0 - G / Q) * np.sqrt(1.0 + G / Q) / Q


def arcsine_mp_resolvent(z, Q):
    """The lagged law's resolvent G at each point of the 1-D ``z``, with no
    quartic: ``G = -m``, where m solves the Marcenko-Pastur (Silverstein-Bai)
    equation ``m = 1/(I(m) - z)`` of ``S = X A X^T / T``,
    ``I(m) = integral of t / (1 + t m / Q)`` over the spectral law of A. That
    law is the arcsine law on [-1, 1], the spectrum of the symmetrized lag
    shift, and the integral is the mean over its 4096 Gauss-Chebyshev nodes
    ``t_k = cos((2k - 1) pi / 8192)``. m is the damped fixed point
    (half the old iterate, half the new) started at ``-1/z``, the ``G ~ 1/z``
    asymptote; each point stops once a step moves it by at most eps of its
    size, and stopped points stay put."""
    z = np.asarray(z, dtype=np.complex128)
    t = np.cos((2 * np.arange(1, 4097) - 1) * np.pi / 8192)
    m = -1.0 / z
    live = np.ones(z.shape, dtype=bool)
    for _ in range(2000):
        k = np.flatnonzero(live)
        if k.size == 0:
            return -m
        new = 0.5 * m[k] + 0.5 / (np.mean(t / (1.0 + np.outer(m[k], t) / Q), axis=1) - z[k])
        live[k[np.abs(new - m[k]) <= np.finfo(float).eps * np.abs(new)]] = False
        m[k] = new
    raise AssertionError(f"no fixed point after 2000 steps at z = {z[live]}")


def lagged_edge(Q):
    """The upper edge x+ of the lagged law's support at eps = 0, from the
    discriminant of the quartic in v at real z = x, a cubic in ``u = x^2``: its
    smallest positive root for Q >= 1 and its largest for Q < 1 (the only one
    for Q <= 1/2; a second, inside the support, appears above Q = 1/2)."""
    c = [Q**6, -11 * Q**6 + 6 * Q**5 - 3 * Q**4,
         -Q**6 + 28 * Q**5 - 2 * Q**4 - 12 * Q**3 + 3 * Q**2,
         2 * Q**5 - 9 * Q**4 + 16 * Q**3 - 14 * Q**2 + 6 * Q - 1]
    u = np.roots(c)
    u = u.real[(np.abs(u.imag) <= 1e-6 * np.abs(u)) & (u.real > 0)]
    return math.sqrt(u.max() if Q < 1 else u.min())


def rho0(x, Q):
    """The lagged law's continuous density at eps = 0 and real ``x > 0``:
    ``|Im v| / (pi x)`` of a complex pair of the quartic in v,
    ``(v + d)^2 ((v + a)^2 - Q^2 x^2) + Q^4 x^2`` (``np.roots``, companion
    eigenvalues of its real coefficients), the pair with the larger ``|Im v|`` for
    Q < 1 and the smaller for Q > 1; 0 where it has no complex pair. For Q >= 1
    a pair outlives the support, so read it on (0, ``lagged_edge(Q)``) only."""
    a, d = max(0.0, 1.0 - Q), max(0.0, Q - 1.0)
    c = np.polymul([1.0, 2.0 * d, d * d], [1.0, 2.0 * a, a * a - (Q * x) ** 2])
    c[-1] += (Q * Q * x) ** 2
    r = np.roots(c)
    im = np.abs(r.imag[r.imag != 0])
    if im.size == 0:
        return 0.0
    return (im.max() if Q < 1 else im.min()) / (math.pi * x)


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


def mp_density(x, c):
    """Continuous Marcenko-Pastur density at ``x`` (atom not included), zero
    outside the support; vectorized over ``x``. The point formula whose
    integral the package's closed-form CDF must be."""
    s = math.sqrt(c)
    a, b = (1.0 - s) ** 2, (1.0 + s) ** 2
    xv = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(xv)
    m = (xv >= a) & (xv <= b) & (xv > 0)
    out[m] = np.sqrt((b - xv[m]) * (xv[m] - a)) / (2.0 * np.pi * c * xv[m])
    return float(out) if out.ndim == 0 else out


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


def _pick_branch(d, roots, z):
    """The index of the smallest distance in ``d``, ties to the lower index, and
    whether the runner-up's distance and its distance from the pick in ``roots``
    (w, or v = w - (1-Q)_+, whose distances are the same) are both within the
    ambiguity tolerance, in that unit and in G = w/z alike."""
    order = np.argsort(d, kind="stable")
    tol = theory._AMBIGUITY_TOL
    near = [d[order[1]], np.abs(roots[order[0]] - roots[order[1]])]
    ambiguous = all(t < tol and t / np.abs(z) < tol for t in near)
    return order[0], ambiguous


@np.errstate(all="ignore")
def reference_track(z, Q):
    """The branch tracker as a loop over the points, in ``v = zG - (1-Q)_+``: the
    first point takes the root nearest ``v = min(Q, 1)`` (``w = zG`` nearest 1),
    every later one the root nearest the previous pick, by ``|v - v_prev|``, with
    the ambiguity test on every pick but the first; ``Gc = G - (1-Q)_+/z`` is the
    pick over z. Then, in this order: a non-finite Gc, the first ambiguous pick,
    the residual of the picked v and the ``Im Gc`` gate (NaN fails both) refuse
    the sweep. Drop-in for ``rmtspec.theory._track``; the roots come from
    ``theory.quartic_roots_batch`` and the tolerance from
    ``theory._RESIDUAL_TOL``, looked up at call time."""
    coeffs = theory.green_quartic_coeffs(z, Q)
    v = theory.quartic_roots_batch(coeffs)
    prev, picks, ambiguous = min(Q, 1.0), [], []
    for i in range(len(z)):
        k, tie = _pick_branch(np.abs(v[i] - prev), v[i], z[i])
        if tie and i > 0:  # the seed is no previous pick
            ambiguous.append(i)
        picks.append(k)
        prev = v[i, k]
    vp = v[np.arange(len(z)), picks]
    Gc = vp / z
    for i in range(len(z)):
        if not np.isfinite(Gc[i]):
            raise NumericalError(f"non-finite root at x = {float(z[i].real)}")
    if ambiguous:
        raise BranchAmbiguity(float(z[ambiguous[0]].real),
                              f"two roots within {theory._AMBIGUITY_TOL} of the previous value")
    res = quartic_residuals(coeffs, vp[:, None]).max()
    tol = theory._RESIDUAL_TOL
    if not res <= tol:
        raise NumericalError(f"relative residual {res:.3e} above {tol}")
    if not Gc.imag.min() >= -theory._IM_TOL:
        raise NumericalError(f"Im G = {Gc.imag.min()} at x = {z.real[np.argmin(Gc.imag)]}")
    return Gc


def green_quartic_coeffs_w(z, Q):
    """The resolvent quartic in ``w = zG`` as ``green_quartic_terms`` at
    ``G = w/z``, times ``z^2``: ``[1/Q^3, -2r/Q^2, -(z^2 - r^2)/Q, 2rz^2, (2 - 1/Q)z^2]``
    with ``r = 1/Q - 1``, for double ``z`` of shape (...): (..., 5). Centred on
    ``w = 0``, so for Q < 1 its two roots next to ``w = 1 - Q`` at small ``|z|``
    are resolved only to about 1e-8."""
    z2 = np.square(np.asarray(z, dtype=np.complex128))
    r = 1.0 / Q - 1.0
    terms = [1.0 / Q**3, -2.0 * r / Q**2, -(z2 - r * r) / Q, 2.0 * r * z2, (2.0 - 1.0 / Q) * z2]
    return np.stack(np.broadcast_arrays(*terms), axis=-1)


@np.errstate(all="ignore")
def g_unit_track(z, Q):
    """The branch tracker on the quartic in ``w = zG`` (``green_quartic_coeffs_w``)
    with its seed, distances and ambiguity test in G units, as it ran before the
    rule in w and then in v: the first point takes the root ``w/z`` nearest
    ``1/z`` (Python's complex division), every later one the root nearest the
    previous pick by ``|w - w_prev| / |z|``, and a pick is ambiguous when the
    runner-up is within 1e-6 of that prediction and of the pick in G, at any
    ``|z|``; the residual is taken at ``z * G``. Returns G itself, atom included.
    The v rule must write the same G to the w-quartic's resolution wherever both
    write one and, on the default grid, refuse only where ``g_unit_curve``, this
    tracker followed by the w-form curve's gate, refuses."""
    coeffs = green_quartic_coeffs_w(z, Q)
    w = theory.quartic_roots_batch(coeffs)
    roots = w / z[:, None]
    m = len(z)
    dist = np.empty((m, 4, 4))
    dist[0] = np.abs(roots[0] - 1.0 / complex(z[0]))
    dist[1:] = np.abs(w[1:, None, :] - w[:-1, :, None]) / np.abs(z[1:, None, None])
    nearest = np.argmin(dist, axis=2)
    step = 1
    while step < m:
        nearest[step:] = np.take_along_axis(nearest[step:], nearest[:-step], axis=1)
        step *= 2
    at, picks = np.arange(m), nearest[:, 0]
    d = dist[at, np.concatenate(([0], picks[:-1]))]
    d[0] = np.inf
    G = roots[at, picks]
    if not np.isfinite(G).all():
        raise NumericalError(f"non-finite root at x = {float(z[np.argmin(np.isfinite(G))].real)}")
    d[at, picks] = np.inf
    second = np.argmin(d, axis=1)
    tol = theory._AMBIGUITY_TOL
    ambiguous = (d[at, second] < tol) & (np.abs(G - roots[at, second]) < tol)
    if ambiguous.any():
        raise BranchAmbiguity(float(z[np.argmax(ambiguous)].real),
                              f"two roots within {tol} of the previous value")
    res = quartic_residuals(coeffs, (z * G)[:, None]).max()
    if not res <= theory._RESIDUAL_TOL:
        raise NumericalError(f"relative residual {res:.3e} above {theory._RESIDUAL_TOL}")
    if not G.imag.min() >= -theory._IM_TOL:
        raise NumericalError(f"Im G = {G.imag.min()} at x = {z.real[np.argmin(G.imag)]}")
    return G


def g_unit_curve(z, Q):
    """``g_unit_track`` followed by the continuous-part gate that the w-form
    ``lagged_density_symmetric`` applied to its G: ``Im G / pi`` less the atom's
    image ``(1-Q)_+ eps / (pi (x^2 + eps^2))``, at ``z = x - i eps``, below
    ``-(1e-9 + 4 u t)`` (``t`` the smaller of the two terms, ``u`` the double's
    epsilon) refuses the sweep with ``NumericalError``. Returns G."""
    G = g_unit_track(z, Q)
    rho = G.imag / np.pi
    image = np.zeros_like(rho)
    if Q < 1.0:
        x, eps = z.real, -z.imag
        with np.errstate(divide="ignore"):
            image = (1.0 - Q) * (eps / np.pi) / (x * x + eps * eps)
    ys = rho - image
    allow = theory._IM_TOL + 4.0 * np.finfo(np.float64).eps * np.minimum(rho, image)
    if not (ys + allow).min() >= 0.0:
        i = int(np.argmin(ys + allow))
        raise NumericalError(f"continuous density {ys[i]:.3e} at x = {z.real[i]} is below "
                             f"-{allow[i]:.3g}")
    return G


def narrowband_reference(seed, length, carrier=0.25, symbol_rate=1.0 / 16.0):
    """``signals.gen_narrowband`` as whole-array products: the baseband as each
    symbol repeated over its samples, times the cosine of ``2 pi carrier t``."""
    sps = round(1.0 / symbol_rate)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    symbols = rng.integers(0, 2, size=-(-length // sps)) * 2.0 - 1.0
    baseband = np.repeat(symbols, min(sps, length))[:length]
    return baseband * np.cos(2.0 * np.pi * carrier * np.arange(length))


def loop_default_grid(Q, eps, green=None):
    """``theory._default_grid``, the non-negative half of the symmetric default
    grid, with its edge search as a loop: one call of ``green`` (``z`` array to G
    array, ``theory.green_function`` by default) at one point per candidate
    half-width, widening by 1.4 while the density there is at least 1e-6 and the
    width below 64."""
    def edge_density(x):
        G = (green or theory.green_function)(np.array([x - 1j * eps]), Q)[0]
        return max(G.imag, 0.0) / math.pi

    L = 2.2 * math.sqrt(2.0 / Q) + 1.2
    while edge_density(L) >= 1e-6 and L < 64.0:
        L *= 1.4

    core_hw = 60.0 * eps
    geo_hi = max(4.0 * core_hw, 0.15 * L)
    outer_step = min(0.01, L / 1200.0)
    count = 2 * (240 + 64 + max(0, math.ceil((L - geo_hi) / outer_step))) + 1
    if count > _MAX_POINTS:
        raise ValidationError(f"Q = {Q} needs a default grid of {count} points, "
                              f"more than {_MAX_POINTS}")
    core = np.arange(0.0, core_hw, eps / 4.0)
    geo = np.geomspace(core_hw, geo_hi, 64)
    outer = np.arange(geo_hi + outer_step, L + outer_step, outer_step)
    pos = np.unique(np.concatenate([core, geo, outer]))
    return np.concatenate([[0.0], pos[pos > 0]])


def two_sweep_scan(Q, epsilon):
    """``theory.green_scan`` without the mirror: ``theory._track`` over each side
    of the origin of the symmetric default grid (built from ``loop_default_grid``),
    from its outer end inward, the right side (0 included) first. Drop-in for
    ``theory.green_scan``."""
    half = loop_default_grid(Q, epsilon)
    xs = np.concatenate([-half[:0:-1], half])
    zs = xs - 1j * epsilon
    right = theory._track(zs[len(half) - 1:][::-1], Q)[::-1]
    left = theory._track(zs[:len(half) - 1], Q)
    return xs, np.concatenate([left, right])


def reference_density_csv(curves, labels):
    """Bytes of a density CSV of curves on one grid, formatted row by row with
    f-strings: atoms as ``# point_mass_<label>=`` lines, the ``x,<labels>``
    header, then 9 significant digits per value."""
    xs, cols = curves[0].xs, [c.ys for c in curves]
    lines = [f"# point_mass_{label}={c.point_mass_at_zero:.9g}"
             for label, c in zip(labels, curves) if c.point_mass_at_zero > 0]
    lines.append("x," + ",".join(labels))
    for i, x in enumerate(xs):
        lines.append(f"{x:.9g}," + ",".join(f"{col[i]:.9g}" for col in cols))
    return ("\n".join(lines) + "\n").encode("utf-8")


def l1_quad(a, b):
    """L1 distance of two density curves plus the atoms' difference, by
    adaptive quadrature of |a - b| between consecutive knots of either curve,
    so no jump (a curve's end, where its interpolant drops to zero) lies
    inside an interval. Where the densities cross inside one, the kink of
    |a - b| found by ``brentq`` is a breakpoint too: quadrature across the
    kink has missed by 3e-9."""
    knots = np.union1d(a.xs, b.xs)
    total = 0.0
    for lo, hi in zip(knots[:-1], knots[1:]):
        gap = lambda x: float(a(x) - b(x))  # noqa: E731
        inner = lo + (hi - lo) * 1e-9, hi - (hi - lo) * 1e-9
        kinks = [brentq(gap, *inner)] if gap(inner[0]) * gap(inner[1]) < 0 else None
        total += quad(lambda x: abs(gap(x)), lo, hi, points=kinks,
                      epsabs=1e-15, epsrel=1e-13, limit=200)[0]
    return total + abs(a.point_mass_at_zero - b.point_mass_at_zero)


def reference_cloud_csv(values):
    """Bytes of ``analyze lagged``'s eigenvalue cloud, one ``re,im`` row per value."""
    lines = ["re,im"] + [f"{v.real:.9g},{v.imag:.9g}" for v in values]
    return ("\n".join(lines) + "\n").encode()


def reference_read_capture(path):
    """``read_capture`` as one whole-file read, then a whole-payload float32
    conversion and a ``vstack`` of the real and imaginary blocks."""
    with open(path, "rb") as fh:
        raw = fh.read()
    header = CaptureHeader.unpack(raw)
    body = raw[_HEADER.size:]
    expected = header.payload_bytes()
    if len(body) < expected:
        raise ValidationError(f"payload is {len(body)} bytes, header promises {expected}")
    body = body[:expected]
    rows, cols = header.rows, header.cols
    if header.dtype == DTYPE_F32_REAL:
        a = np.frombuffer(body, dtype="<f4").astype(np.float32).reshape(rows, cols)
        return DataMatrix(a)
    if header.dtype == DTYPE_I16_REAL:
        a = np.frombuffer(body, dtype="<i2").astype(np.float32).reshape(rows, cols)
        return DataMatrix(a / np.float32(32768.0))
    flat = np.frombuffer(body, dtype="<f4").astype(np.float32)
    re = flat[0::2].reshape(rows, cols)
    im = flat[1::2].reshape(rows, cols)
    return DataMatrix(np.vstack([re, im]))


def reference_standardize_rows(X):
    """``standardize_rows`` in whole-matrix passes over a C-ordered float64
    copy: one ``mean``, one ``std`` over all rows and a new quotient, without
    the power-of-two row scaling, which changes no bit of a row whose mean,
    squares and deviations neither overflow nor are subnormal."""
    a = np.array(X.entries, dtype=np.float64, order="C")
    mean = a.mean(axis=1, keepdims=True)
    centered = a - mean
    if a.shape[1] < 2:
        raise ZeroVarianceRow(0)
    std = centered.std(axis=1, ddof=1, keepdims=True)
    bad = np.where(std[:, 0] == 0.0)[0]
    if bad.size:
        raise ZeroVarianceRow(int(bad[0]))
    return DataMatrix(centered / std, standardized=True)


def reference_kde_eval(samples, grid, h):
    """``kde_eval`` with grid chunks of about four million kernel entries."""
    s = np.asarray(samples, dtype=np.float64).ravel()
    x = np.asarray(grid, dtype=np.float64).ravel()
    out = np.zeros(len(x), dtype=np.float64)
    if len(s) == 0:
        return out
    chunk = max(1, int(4_000_000 // max(len(s), 1)))
    for lo in range(0, len(x), chunk):
        u = (x[lo:lo + chunk, None] - s[None, :]) / h
        k = np.exp(-0.5 * u * u) / np.sqrt(2.0 * np.pi)
        out[lo:lo + chunk] = k.sum(axis=1)
    out /= len(s) * h
    return out


def project_density(rho_s):
    """Rescale a symmetric-problem density to the axis-projection frame.

    Returns the curve ``x -> sqrt(2) * rho(sqrt(2) x)``; the ordinate factor
    keeps the projection normalized. The antisymmetric-problem density of
    the y axis is taken equal to the symmetric one (radially symmetric
    spectrum), so both axes share this one transform. Point mass is
    unaffected.
    """
    theory.require_unit_mass(rho_s, "input curve")
    root2 = math.sqrt(2.0)
    return DensityCurve(rho_s.xs / root2, rho_s.ys * root2,
                        point_mass_at_zero=rho_s.point_mass_at_zero)
