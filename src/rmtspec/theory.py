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
  the origin, ``G ~ (1-Q)/z`` there; the quartic is solved in
  ``v = zG - (1-Q)_+``, which stays O(1), and ``v/z`` is the resolvent of the
  continuous part alone. The returned curve carries the atom separately and
  keeps only the continuous part, ``Im(v/z) / pi``, in its ordinates.

The physical resolvent branch is fixed by its ``G ~ 1/z`` decay at large
``|z|`` and tracked by continuity of ``v`` from the largest ``|x|`` of the
grid inward, once for each ``|x|``: the negative half-axis is its mirror image.
On it the continuous part is a density, ``Q^2 / (pi (1-Q))`` at the origin for
Q < 1; a curve whose continuous part is negative beyond rounding is refused.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .curves import _MAX_POINTS, DensityCurve
from .errors import BranchAmbiguity, NumericalError, ValidationError

__all__ = [
    "MpParams",
    "mp_params",
    "mp_cdf",
    "green_quartic_coeffs",
    "quartic_roots_batch",
    "green_function",
    "green_scan",
    "lagged_density_symmetric",
    "require_unit_mass",
]

_AMBIGUITY_TOL = 1e-6
_IM_TOL = 1e-9
_RESIDUAL_TOL = 1e-9  # relative v-quartic residual accepted per point
_MASS_TOL = 0.02  # |curve-plus-atom mass - 1| accepted for a theory curve
# largest dimension ratio: the law's a * b and 2 pi c x overflow near c = 1e154
_MAX_RATIO = 1e150


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
        raise ValidationError(f"dimension ratio must be positive and finite, got {c}")
    s = math.sqrt(c)
    return MpParams(
        c=float(c),
        a=(1.0 - s) ** 2,
        b=(1.0 + s) ** 2,
        point_mass_at_zero=max(0.0, 1.0 - 1.0 / c),
    )


def mp_cdf(x, c: float) -> np.ndarray:
    """Marcenko-Pastur CDF (atom at zero included), in closed form, as an array
    of the shape of ``x`` (0-d for a scalar).

    Inside the support the continuous part is the antiderivative of
    ``sqrt((b-x)(x-a)) / x`` taken from ``a``,

        r + (a+b)/2 (asin s + pi/2) - sqrt(ab) (asin t + pi/2),
        r = sqrt((b-x)(x-a)), s = (2x-a-b)/(b-a), t = ((a+b)x-2ab)/((b-a)x),

    divided by ``2 pi c``; the last term vanishes when ``a = 0``. Each
    ``asin + pi/2`` is written as an ``atan2`` of ``x - a`` and ``b - x``,
    which keeps full accuracy next to the edges where ``asin`` loses digits.
    At small ``c`` the second and third terms, each near ``pi``, cancel to
    O(c), so ``F`` is off by up to about ``eps / c``: 6e-16 at c = 0.5 and
    1.1e-9 at c = 1e-7 against mpmath, which is why ``theory mp`` refuses c
    below 2.2e-7. ``F = 0`` below 0, the atom on ``[0, a]`` and 1 from ``b``
    on, exactly.
    ``ValidationError`` refuses a NaN in ``x`` and a ``c`` above ``_MAX_RATIO``,
    where the terms overflow.
    """
    prm = mp_params(c)
    if c > _MAX_RATIO:
        raise ValidationError(f"dimension ratio {c} is above {_MAX_RATIO:g}, where the law's "
                              f"terms overflow doubles")
    xv = np.asarray(x, dtype=np.float64)
    if np.isnan(xv).any():
        raise ValidationError("x holds a NaN")
    a, b, atom = prm.a, prm.b, prm.point_mass_at_zero
    u = np.clip(xv - a, 0.0, b - a)
    v = np.clip(b - xv, 0.0, b - a)
    r = np.sqrt(u * v)
    g = math.sqrt(a * b)
    cont = (r + 0.5 * (a + b) * np.arctan2(2.0 * r, v - u)
            - g * np.arctan2(2.0 * g * r, a * v - b * u)) / (2.0 * math.pi * c)
    # u = 0 gives cont = 0 exactly, so the clip also leaves F = atom on [0, a]
    return np.where(xv < 0, 0.0, np.where(xv >= b, 1.0, np.clip(atom + cont, atom, 1.0)))


# --------------------------------------------------------------------------
# Quartic resolvent of the lagged-correlation spectrum
# --------------------------------------------------------------------------

def green_quartic_coeffs(z, Q: float) -> np.ndarray:
    """Monic descending-degree coefficients of the resolvent quartic in
    ``v = zG - a``, with ``a = (1-Q)_+`` the atom at zero and ``d = (Q-1)_+``:

        (v + d)^2 ((v + a)^2 - Q^2 z^2) + Q^4 z^2
        = [1, 2(a+d), (a+d)^2 - Q^2 z^2, -2d Q^2 z^2, min(Q,1) (Q+d) Q^2 z^2],

    the quartic in ``w = zG``, ``(w - 1 + Q)^2 (w^2 - Q^2 z^2) + Q^4 z^2``, at
    ``w = v + a``. Since ``a d = 0`` it is centred on the double root
    ``w = 1 - Q`` at ``z = 0`` for Q < 1, and is the w-quartic itself for
    Q >= 1; ``v/z = G - a/z`` is the resolvent of the continuous part. The last
    coefficient is ``Q^2 - d^2`` times ``Q^2 z^2`` written without the
    cancellation at large Q. Vectorized over ``z`` (0 included): a scalar gives
    shape (5,), an array of shape (...) gives (..., 5). Coefficients that
    overflow (an extreme ``Q`` or ``z``) are refused here.
    """
    if not Q > 0:
        raise ValidationError(f"Q must be positive, got {Q}")
    with np.errstate(all="ignore"):  # refused below
        z2 = np.square(np.asarray(z, dtype=np.complex128))
    if not np.all(np.isfinite(z2)):
        raise ValidationError("z^2 is not finite: every |z| must be finite and below 1.3e154")
    Q = np.float64(Q)  # overflows to inf where a Python float would raise
    a, d = max(0.0, 1.0 - Q), max(0.0, Q - 1.0)
    c = np.empty(z2.shape + (5,), dtype=np.complex128)
    with np.errstate(all="ignore"):
        qz2 = Q * Q * z2
        c[..., 0] = 1.0
        c[..., 1] = 2.0 * (a + d)
        c[..., 2] = (a + d) ** 2 - qz2
        c[..., 3] = -2.0 * d * qz2
        c[..., 4] = min(Q, 1.0) * (Q + d) * qz2
    if not np.all(np.isfinite(c)):
        raise ValidationError(f"quartic coefficients are not finite at Q = {Q}")
    return c


_CUBE_ROOTS_OF_UNITY = np.exp(2j * np.pi / 3 * np.arange(3))


def _value(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The monic ``x^n + a[:, 0] x^(n-1) + ... + a[:, n-1]`` at ``x`` (m, k), by Horner."""
    p = x + a[:, :1]
    for j in range(1, a.shape[1]):
        p = p * x + a[:, j : j + 1]
    return p


def _polish(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Two Newton steps on the monic ``a``, each kept only where it lowers |P|."""
    n = a.shape[1]
    slope = a[:, :-1] * (np.arange(n - 1, 0, -1) / n)  # P'/n, monic
    p = _value(a, x)
    for _ in range(2):
        cand = x - p / (n * _value(slope, x))
        p_cand = _value(a, cand)
        keep = np.abs(p_cand) < np.abs(p)
        x = np.where(keep, cand, x)
        p = np.where(keep, p_cand, p)
    return x


def _largest(x: np.ndarray) -> np.ndarray:
    """The largest-modulus entry of each row, as an (m, 1) column."""
    return np.take_along_axis(x, np.argmax(np.abs(x), axis=1)[:, None], axis=1)


def _quadratic_roots(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(m, 2) roots of ``x^2 + b x + c``: the larger as ``-(b + d)/2`` with the
    sign of ``d = sqrt(b^2 - 4c)`` that avoids cancellation, the other as ``c/x1``."""
    d = np.sqrt(b * b - 4.0 * c)
    d = np.where(b.real * d.real + b.imag * d.imag < 0.0, -d, d)
    x1 = -0.5 * (b + d)
    return np.stack([x1, np.where(x1 == 0, 0.0, c / x1)], axis=1)


def _cbrt(v: np.ndarray) -> np.ndarray:
    """Principal cube root of complex ``v``, in polar form (``v ** (1/3)`` is slower)."""
    r = np.cbrt(np.abs(v))
    phi = np.angle(v) / 3.0
    out = np.empty_like(v)
    out.real = r * np.cos(phi)
    out.imag = r * np.sin(phi)
    return out


def _cubic_roots(b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """(m, 3) roots of ``x^3 + b x^2 + c x + d`` by Cardano: ``x = t - b/3`` gives
    ``t^3 + p t + q``, ``t = u - p/(3u)`` over the three cube roots ``u`` of
    ``-q/2 +- sqrt(q^2/4 + p^3/27)``, signed for the larger modulus."""
    p = c - b * b / 3.0
    q = (2.0 * b * b / 27.0 - c / 3.0) * b + d
    disc = np.sqrt(0.25 * q * q + p * p * p / 27.0)
    hq = 0.5 * q
    u3 = np.where(np.abs(disc - hq) >= np.abs(disc + hq), disc - hq, -disc - hq)
    u = _cbrt(u3)
    v = np.where(u == 0, 0.0, p / (3.0 * u))  # u = 0 only at p = q = 0
    t = u[:, None] * _CUBE_ROOTS_OF_UNITY - v[:, None] * _CUBE_ROOTS_OF_UNITY.conj()
    return t - b[:, None] / 3.0


def _ferrari_roots(a: np.ndarray) -> np.ndarray:
    """(m, 4) roots of the monic quartic ``a`` by Ferrari: ``x = y - a0/4`` gives
    ``y^4 + p y^2 + q y + r``; with the largest-modulus root ``n`` of the resolvent
    ``n^3 + p n^2 + (p^2/4 - r) n - q^2/8`` and ``s = sqrt(2n)`` it splits into
    ``y^2 -+ s y + p/2 + n +- q/(2s)``."""
    a0, a1, a2, a3 = a.T
    h = 0.25 * a0
    h2 = h * h
    p = a1 - 6.0 * h2
    q = a2 - 2.0 * a1 * h + 8.0 * h2 * h
    r = a3 - a2 * h + a1 * h2 - 3.0 * h2 * h2
    n = _largest(_cubic_roots(p, 0.25 * p * p - r, -0.125 * q * q))[:, 0]
    s = np.sqrt(2.0 * n)
    k = np.where(s == 0, 0.0, q / (2.0 * s))  # s = 0 only at q = 0
    y = np.concatenate([_quadratic_roots(-s, 0.5 * p + n + k),
                        _quadratic_roots(s, 0.5 * p + n - k)], axis=1)
    return y - h[:, None]


def _deflate(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Monic ``a`` (m, n) divided by ``(t - x)`` for its largest-modulus root ``x``
    (m, 1), by backward synthetic division from the constant term: (m, n-1)."""
    b = np.empty_like(a[:, 1:])
    b[:, -1:] = -a[:, -1:] / x
    for j in range(a.shape[1] - 2, 0, -1):
        b[:, j - 1 : j] = (b[:, j : j + 1] - a[:, j : j + 1]) / x
    return np.where(x == 0, 0.0, b)  # x = 0 largest: every root is 0


def _ldexp(v: np.ndarray, e: np.ndarray) -> np.ndarray:
    """``v * 2**e`` for a C-contiguous complex ``v``, exact wherever the result is normal."""
    parts = v.view(np.float64).reshape(v.shape + (2,))
    return np.ldexp(parts, e[..., None]).view(np.complex128)[..., 0]


# a quotient by zero (a Newton step at a double root, a division by a zero
# root) is masked by np.where and never kept
@np.errstate(all="ignore")
def quartic_roots_batch(coeffs: np.ndarray) -> np.ndarray:
    """Roots of a batch of quartics, descending-degree coefficients.

    Closed form, vectorized over the batch. The monic quartic is scaled by a
    power of two so that its roots are O(1). Ferrari's solve gives the
    largest-modulus root, which is Newton-polished and divided out; Cardano's
    solve of the cubic left gives its largest root, polished and divided out in
    turn; the quadratic left is solved without cancellation. Taking the roots
    largest first keeps the small ones accurate where Ferrari's shift by
    ``-a0/4`` would cluster them. All four then get two Newton polish steps on
    the quartic, each kept only where it lowers the residual.

    Parameters
    ----------
    coeffs : (m, 5) complex array, finite; ``coeffs[i, 0]`` must be nonzero
        (``ValidationError`` otherwise).

    Returns
    -------
    (m, 4) complex array of roots, each row sorted by (real, imag).
    """
    c = np.ascontiguousarray(coeffs, dtype=np.complex128)
    if c.ndim != 2 or c.shape[1] != 5:
        raise ValidationError("coeffs must have shape (m, 5)")
    if not np.isfinite(c).all():
        raise ValidationError("coeffs must be finite")
    if not c[:, 0].all():
        row = int(np.argmin(c[:, 0] != 0))
        raise ValidationError(f"leading coefficient of row {row} is zero")
    a = c[:, 1:] / c[:, :1]  # monic: x^4 + a0 x^3 + a1 x^2 + a2 x + a3
    # x = 2^e t with 2^e ~ max_j |a_j|^(1/(j+1)), the size of the largest root
    e = np.frexp(np.max(np.abs(a) ** (1.0 / np.arange(1, 5)), axis=1))[1][:, None]
    a = _ldexp(a, -e * np.arange(1, 5))

    x4 = _polish(a, _largest(_ferrari_roots(a)))
    b = _deflate(a, x4)
    x3 = _polish(b, _largest(_cubic_roots(*b.T)))
    d = _deflate(b, x3)
    roots = _polish(a, np.concatenate([_quadratic_roots(*d.T), x3, x4], axis=1))

    return np.sort(_ldexp(roots, e), axis=1, kind="stable")


def _finite(z, G) -> None:
    """Refuse ``G`` (``NumericalError``, naming the first x) unless all of it is finite."""
    if not np.isfinite(G).all():
        raise NumericalError(f"non-finite root at x = {float(z[np.argmin(np.isfinite(G))].real)}")


def _gated(z, coeffs, vp, G) -> np.ndarray:
    """``G`` at ``z``, from the picked roots ``vp`` of the monic v-quartics
    ``coeffs`` (m, 5), refused unless all pass, in this order: every v-residual
    ``|P(vp)| / ||coeffs||_2`` within ``_RESIDUAL_TOL``; every G finite, with
    imaginary part ``>= -1e-9``. NaN fails both."""
    scale = np.linalg.norm(coeffs, axis=1, keepdims=True)
    res = (np.abs(_value(coeffs[:, 1:], vp[:, None])) / scale).max()
    if not res <= _RESIDUAL_TOL:
        raise NumericalError(f"relative residual {res:.3e} above {_RESIDUAL_TOL}")
    _finite(z, G)
    if not G.imag.min() >= -_IM_TOL:
        raise NumericalError(f"Im G = {G.imag.min()} at x = {z.real[np.argmin(G.imag)]}")
    return G


# Gc = v/z overflows where |z| is near the smallest double: the gates refuse it,
# without a warning
@np.errstate(all="ignore")
def _track(z: np.ndarray, Q: float) -> np.ndarray:
    """Physical ``Gc = G - (1-Q)_+/z`` along ``z`` in order, tracked in
    ``v = zG - (1-Q)_+``: the first point takes the root nearest ``v = min(Q, 1)``
    (``w = zG`` nearest 1, G nearest ``1/z``), every later one the root nearest the
    previous pick, ties to the lower root index. Refused, in this order, where a
    Gc is not finite, where a pick after the first is ambiguous (its runner-up
    within ``_AMBIGUITY_TOL`` of both that previous pick and the pick, in v and in
    G alike), and by the ``_gated`` gates on Gc.

    Continuity is judged in v, whose distances are those in w, not in G: near
    ``z = 0`` with Q < 1, G carries the atom's pole ``(1-Q)/z``, which moves
    further in one grid step than the two roots that carry it are apart, while v
    stays O(1)."""
    coeffs = green_quartic_coeffs(z, Q)
    v = quartic_roots_batch(coeffs)
    # dist[i, j, k] = |v root k at i+1 - v root j at i|; its argmin over k maps
    # the pick at i to the pick at i+1
    dist = np.abs(v[1:, None, :] - v[:-1, :, None])
    picks = [int(np.argmin(np.abs(v[0] - min(Q, 1.0))))]
    for nearest in np.argmin(dist, axis=2).tolist():
        picks.append(nearest[picks[-1]])
    at, picks = np.arange(len(z)), np.array(picks)
    vp = v[at, picks]
    Gc = vp / z
    _finite(z, Gc)
    # from the second point on (the seed has no previous pick): with the pick's
    # own distance set aside, the nearest root left is the runner-up, ambiguous
    # within the tolerance in v and in G = (v + a)/z alike, that is in v within
    # it times min(1, |z|)
    d = dist[at[:-1], picks[:-1]]
    d[at[:-1], picks[1:]] = np.inf
    second = np.argmin(d, axis=1)
    near = np.stack([d[at[:-1], second], np.abs(vp[1:] - v[at[1:], second])])
    ambiguous = (near / np.minimum(1.0, np.abs(z[1:])) < _AMBIGUITY_TOL).all(axis=0)
    if ambiguous.any():
        raise BranchAmbiguity(float(z[1 + np.argmax(ambiguous)].real),
                              f"two roots within {_AMBIGUITY_TOL} of the previous value")
    return _gated(z, coeffs, vp, Gc)


@np.errstate(all="ignore")
def green_function(z: np.ndarray, Q: float) -> np.ndarray:
    """Physical root of the resolvent quartic at each point of the non-empty 1-D
    array ``z``, each solved on its own; every point needs ``Im z < 0``.

    At each point the root nearest the asymptotic value ``w = zG = 1`` is taken.
    A continuous part ``v/z`` that is not finite refuses the call, then the
    ``_gated`` gates on G itself, ``v/z`` plus the atom's ``(1-Q)/z`` for Q < 1;
    one failing point refuses the call. Every returned root satisfies
    ``Im G >= -1e-9``.

    Inside the support at small Q the root nearest ``w = 1`` is not always the
    physical one: at ``z = 105 - 1e-4j``, Q = 0.01, ``Im G = 7.66e-9``, which
    passes the gate, but its continuous part is ``-1.32e-9``. Its one caller,
    the edge search of ``_default_grid``, reads only ``Im G``, and no written
    curve is affected. The law at eps = 0 (ROADMAP.md) would retire both this
    function and that search.
    """
    z = np.asarray(z, dtype=np.complex128)
    if z.ndim != 1 or z.size == 0:
        raise ValidationError("green_function takes a non-empty 1-D z")
    if not np.all(z.imag < 0):
        raise ValidationError("green_function requires Im z < 0")
    coeffs = green_quartic_coeffs(z, Q)
    v = quartic_roots_batch(coeffs)
    vp = v[np.arange(len(z)), np.argmin(np.abs(v - min(Q, 1.0)), axis=1)]
    Gc = vp / z
    _finite(z, Gc)
    return _gated(z, coeffs, vp, Gc + (1.0 - Q) / z if Q < 1 else Gc)


def _default_grid(Q: float, eps: float) -> np.ndarray:
    """Non-negative half ``[0, pos...]`` of the symmetric grid, dense near the
    origin so that the finite-eps (Lorentzian-smeared) atom and edge
    singularities are resolved.

    Its half-width is the first of ``L0, 1.4 L0, 1.4^2 L0, ...`` (``L0 = 2.2
    sqrt(2/Q) + 1.2``) where the density ``Im G / pi`` falls below 1e-6, or else
    the first at or past 64. Every candidate up to that one is solved in a single
    ``green_function`` call, so a gate failing at a candidate past the one taken
    refuses the grid too.

    For Q below about 0.01 the grid stops short of the support's edge x+, where
    the density is a plateau below the 1e-6 threshold: at Q = 1e-3 it ends at
    99.59 against x+ = 1014.08, and the curve's mass is 0.99906; at Q = 0.01 it
    ends at 88.67 against 106.13, mass 0.99705 (both at the default eps, 1e-3).
    The law at eps = 0 (ROADMAP.md) takes x+ from the quartic's discriminant."""
    candidates = [2.2 * math.sqrt(2.0 / Q) + 1.2]
    while candidates[-1] < 64.0:
        candidates.append(candidates[-1] * 1.4)
    G = green_function(np.array(candidates) - 1j * eps, Q)
    stop = np.append(G.imag[:-1] / math.pi < 1e-6, True)
    L = candidates[int(np.argmax(stop))]

    core_hw = 60.0 * eps
    geo_hi = max(4.0 * core_hw, 0.15 * L)
    outer_step = min(0.01, L / 1200.0)
    # 240 core, 64 geometric and the outer points on each side, counted before
    # anything is allocated: L grows as Q^(-1/2), and Q = 1e-20 would ask for TiB
    count = 2 * (240 + 64 + max(0, math.ceil((L - geo_hi) / outer_step))) + 1
    if count > _MAX_POINTS:
        raise ValidationError(f"Q = {Q} needs a default grid of {count} points, "
                              f"more than {_MAX_POINTS}")
    core = np.arange(0.0, core_hw, eps / 4.0)
    geo = np.geomspace(core_hw, geo_hi, 64)
    # an epsilon far above L leaves no outer points; an arange from that far
    # above its stop, in steps below the doubles' spacing there, is refused
    outer = np.arange(geo_hi + outer_step, L + outer_step, outer_step) if geo_hi < L else []
    return np.unique(np.concatenate([core, geo, outer]))  # core starts at 0.0


def green_scan(Q: float, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Physical resolvent branch on the default grid at ``z = x - i*epsilon``,
    without the atom: ``Gc = G - (1-Q)_+/z``.

    The density is even and the v-quartic depends on ``z^2`` only, so
    ``Gc(-x - i*eps) = -conj Gc(x - i*eps)``: the branch is tracked once over the
    non-negative half of the grid, from its outer end (seeded with the
    asymptotic 1/z root) inward, and the negative half is its mirror.
    Returns (grid, Gc values); every Gc satisfies the residual tolerance and
    ``Im Gc >= -1e-9``. Q must be positive and finite, and epsilon a positive
    finite normal double.
    """
    if not (Q > 0 and math.isfinite(Q)):
        raise ValidationError(f"Q must be positive and finite, got {Q}")
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise ValidationError(f"epsilon must be positive and finite, got {epsilon}")
    if epsilon < sys.float_info.min:  # the default grid's step eps/4 would be 0
        raise ValidationError(f"epsilon must be at least {sys.float_info.min} (a normal "
                              f"double), got {epsilon}")
    half = _default_grid(Q, epsilon)
    Gc = _track(half[::-1] - 1j * epsilon, Q)[::-1]
    return np.concatenate([-half[:0:-1], half]), np.concatenate([-np.conj(Gc[:0:-1]), Gc])


def lagged_density_symmetric(Q: float, epsilon: float = 1e-3) -> DensityCurve:
    """Spectral density of the symmetrized lagged correlation matrix.

    Runs ``green_scan``, whose resolvent already leaves out the atom (mass
    ``1 - Q`` for Q < 1, reported via ``point_mass_at_zero``), and inverts
    ``rho = Im Gc / pi``: the continuous part, ``Q^2 / (pi (1 - Q))`` at the
    origin. Its values between the ``Im Gc`` gate's ``-1e-9`` and 0 are
    rounding and are written as 0.
    """
    xs, Gc = green_scan(Q, epsilon)
    return DensityCurve(xs, np.clip(Gc.imag / np.pi, 0.0, None),
                        point_mass_at_zero=max(0.0, 1.0 - Q))


def require_unit_mass(curve: DensityCurve, what: str) -> None:
    """Raise ``ValidationError``, naming ``what``, when the curve-plus-atom mass
    misses 1 by more than 0.02."""
    mass = curve.total_mass()
    if abs(mass - 1.0) > _MASS_TOL:
        raise ValidationError(f"{what} has mass {mass:.4f}, more than {_MASS_TOL} from 1")
