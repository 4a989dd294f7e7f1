"""Hot kernels: the batched quartic root solve behind the lagged-spectrum
density (``theory.quartic_roots_batch``, closed form: Ferrari, then Cardano
and the quadratic formula on what is left after dividing out the largest
roots, Newton-polished), held against the companion-matrix eigenvalue oracle
``oracles.companion_roots``; and kernel density evaluation
(``estimation.kde_eval``)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rmtspec import estimation
from rmtspec.estimation import kde_eval
from rmtspec.theory import _default_grid, _residuals, green_quartic_coeffs, quartic_roots_batch

from oracles import companion_roots, greedy_pairing_residual, reference_kde_eval

_U = np.finfo(float).eps / 2


def _random_coeffs(rng, m):
    c = rng.standard_normal((m, 5)) + 1j * rng.standard_normal((m, 5))
    # keep leading coefficients well away from zero
    c[:, 0] += 2.0 * np.sign(c[:, 0].real)
    return c


def _root_bound(c, x):
    """First-order forward error of the roots ``x`` of ``c`` under relative
    perturbations of size u in each coefficient: ``u sum_j |c_j| |x|^(4-j) / |P'(x)|``
    (infinite at a multiple root)."""
    slope = np.abs(np.polyval(np.polyder(c), x))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(slope == 0, np.inf, _U * np.polyval(np.abs(c), np.abs(x)) / slope)


def _from_roots(*root_sets):
    return np.array([np.poly(r) for r in root_sets], dtype=complex)


class TestQuarticKernel:
    def test_known_factorization(self):
        roots = quartic_roots_batch(np.array([[1, -10, 35, -50, 24]], complex))[0]
        np.testing.assert_allclose(roots, [1, 2, 3, 4], atol=1e-9)

    def test_residuals_small(self, rng):
        c = _random_coeffs(rng, 200)
        roots = quartic_roots_batch(c)
        for i in range(200):
            for r in roots[i]:
                res = abs(np.polyval(c[i], r)) / np.linalg.norm(c[i])
                assert res < 1e-10

    def test_rows_sorted(self, rng):
        roots = quartic_roots_batch(_random_coeffs(rng, 50))
        for row in roots:
            key = [(r.real, r.imag) for r in row]
            assert key == sorted(key)

    @pytest.mark.parametrize("k", [-200, 200])
    def test_roots_scale_with_the_variable(self, rng, k):
        # x -> 2^k x: the cubes and fourth powers of the coefficients inside
        # Ferrari's and Cardano's formulas would overflow at 2^(+-200) unscaled
        c = _random_coeffs(rng, 50)
        got = quartic_roots_batch(c * 2.0 ** (k * np.arange(5)))
        np.testing.assert_allclose(got, quartic_roots_batch(c) * 2.0**k, rtol=1e-13)

    def test_non_finite_refused(self):
        with pytest.raises(ValueError, match="finite"):
            quartic_roots_batch(np.array([[1, 2, np.nan, 0, 1]], complex))


# coefficients with exact zeros (q = 0, zero roots), integers (exact ties,
# repeated roots) and spread magnitudes; the leading one kept off zero
_COEFF = st.one_of(
    st.just(0j),
    st.builds(complex, st.integers(-4, 4), st.integers(-4, 4)),
    st.complex_numbers(min_magnitude=1e-6, max_magnitude=1e3, allow_nan=False,
                       allow_infinity=False),
)
_LEAD = st.complex_numbers(min_magnitude=1e-2, max_magnitude=1e2, allow_nan=False,
                           allow_infinity=False)


class TestAgainstCompanionOracle:
    @given(lead=_LEAD, rest=st.lists(_COEFF, min_size=4, max_size=4))
    @example(lead=1 + 0j, rest=[0j, 0j, 0j, 0j])
    @example(lead=1 + 0j, rest=[0j, -1 + 0j, 0j, 1 + 0j])
    @settings(max_examples=400, deadline=None)
    def test_root_multiset_matches(self, lead, rest):
        c = np.array([lead, *rest])
        got = quartic_roots_batch(c[None, :])[0]
        want = companion_roots(c[None, :])[0]
        # the two solves are each within about u*kappa of the exact roots; a
        # root of multiplicity k is within about (u*kappa)^(1/k), which the
        # first-order bound covers only as kappa -> inf, so it is excluded
        bound = _root_bound(c, want).max()
        assert greedy_pairing_residual(got, want) <= 16.0 * bound, (got, want, bound)

    def test_double_root_at_zero_for_z_zero(self):
        # at z = 0 the w-quartic is w^2 (w/Q - r)^2 / Q: double roots 0 and 1 - Q
        for Q in (0.25, 0.5, 4.0):
            roots = quartic_roots_batch(green_quartic_coeffs(np.array([0j]), Q))[0]
            zero = np.abs(roots) < 0.5 * abs(1.0 - Q)
            assert zero.sum() == 2 and np.all(roots[zero] == 0)
            np.testing.assert_allclose(roots[~zero], 1.0 - Q, rtol=1e-7)

    def test_biquadratic_at_q_one(self):
        # Q = 1: w^4 - z^2 w^2 + z^2, no odd terms, so the depressed q is 0
        z = np.array([0.3 - 1e-3j, 2.0 - 1e-4j, 5.0 - 1e-3j, -1.5 - 1e-2j])
        c = green_quartic_coeffs(z, 1.0)
        assert np.all(c[:, [1, 3]] == 0)
        got = quartic_roots_batch(c)
        for i, zi in enumerate(z):
            disc = np.sqrt(zi**4 - 4 * zi**2)
            w2 = np.array([(zi**2 + disc) / 2, (zi**2 - disc) / 2])
            want = np.concatenate([np.sqrt(w2), -np.sqrt(w2)])
            assert greedy_pairing_residual(got[i], want) <= 1e-13 * np.abs(want).max()

    def test_quadruple_zero(self):
        roots = quartic_roots_batch(np.array([[1, 0, 0, 0, 0], [3j, 0, 0, 0, 0]], complex))
        assert np.all(roots == 0)

    @pytest.mark.parametrize("roots", [
        [1.0, 1.0 + 1e-7, 2.0, 3.0],
        [1.0, 1.0 + 1e-5j, -2.0, 3j],
        [0.5, 0.5 + 1e-6, 0.5 - 1e-6, 4.0],
        [2.0 - 1j, 2.0 - 1j + 1e-6 * (1 + 1j), -1.0, 1e-3],
    ])
    def test_near_double_roots(self, roots):
        c = _from_roots(roots)
        got = quartic_roots_batch(c)[0]
        want = companion_roots(c)[0]
        bound = _root_bound(c[0], np.array(roots)).max()
        assert greedy_pairing_residual(got, roots) <= 16.0 * bound
        assert greedy_pairing_residual(got, want) <= 16.0 * bound

    @pytest.mark.parametrize("roots", [
        [1e-4, 1e-2, 1e2, 1e4],
        [-1e-4, 1e-1j, -1e3, 1e4],
        [1e-4j, 1e-4, 1e4, -1e4j],
        # one dominant root: Ferrari's shift by -a0/4 puts the other three in
        # a cluster, which the largest-first deflation avoids
        [1.704e-4, 1.588e-3, -2.617e-2, 2.832e2],
        [-6.343e-5, 3.876e-4, 5.718e-4, -1.796e3],
        [1e-4, 1.0, 1.1, 1e4],
    ])
    def test_roots_spread_over_eight_decades(self, roots):
        c = _from_roots(roots) * (0.3 - 2j)
        got = quartic_roots_batch(c)[0]
        want = companion_roots(c)[0]
        roots = np.array(roots, dtype=complex)
        bound = _root_bound(c[0], roots)
        for x, b in zip(roots, bound):
            assert np.abs(got - x).min() <= 16.0 * b, (x, got)
            assert np.abs(want - x).min() <= 16.0 * b, (x, want)

    def test_sweep_roots_exact_to_rounding(self):
        # the six theory-sweep grids at eps = 1e-4, every root of every point:
        # |P(x)| over sum_j |c_j| |x|^(4-j) (the componentwise backward error)
        # is within the 8u bound on the rounding of evaluating P by Horner, for
        # the closed form as for the oracle (both reach about 2.7u at worst)
        c = np.concatenate([green_quartic_coeffs(_default_grid(Q, 1e-4) - 1e-4j, Q)
                            for Q in (0.25, 0.5, 1.0, 2.0, 4.0, 10.0)])
        for roots in (quartic_roots_batch(c), companion_roots(c)):
            scale = np.linalg.norm(c, axis=1, keepdims=True)
            mag = sum(np.abs(c[:, j:j + 1]) * np.abs(roots) ** (4 - j) for j in range(5))
            assert np.all(_residuals(c, roots) * scale <= 8 * _U * mag)


class TestKdeKernel:
    def test_single_point(self):
        out = kde_eval(np.array([0.0]), np.array([0.0]), 1.0)
        assert out[0] == pytest.approx(1 / np.sqrt(2 * np.pi), rel=1e-13)


class TestKdeChunks:
    """``kde_eval`` sums the kernel over grid chunks bounded by entry count;
    the four-million-entry chunking in the oracles is the bit-for-bit reference."""

    @pytest.mark.parametrize("samples, grid", [(2048, 1024), (1, 4265), (7, 1), (3000, 513),
                                               (200_000, 3)])
    def test_bits_match_reference(self, samples, grid):
        rng = np.random.default_rng(samples + grid)
        s = rng.gamma(2.0, 1.0, samples)
        x = np.linspace(-0.5, s.max() + 0.5, grid)
        got, want = kde_eval(s, x, 0.07), reference_kde_eval(s, x, 0.07)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @given(samples=st.integers(1, 50), grid=st.integers(1, 60), entries=st.integers(1, 400),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_bits_match_reference_at_any_chunk(self, samples, grid, entries, seed):
        rng = np.random.default_rng(seed)
        s, x = rng.standard_normal(samples), rng.uniform(-4.0, 4.0, grid)
        with mock.patch.object(estimation, "_KDE_CHUNK_ENTRIES", entries):
            got = kde_eval(s, x, 0.3)
        assert np.array_equal(got.view(np.uint64), reference_kde_eval(s, x, 0.3).view(np.uint64))
