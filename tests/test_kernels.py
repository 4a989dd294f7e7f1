"""Hot kernels: the batched quartic root solve behind the lagged-spectrum
density (``theory.quartic_roots_batch``) and kernel density evaluation
(``estimation.kde_eval``)."""

import numpy as np
import pytest

from rmtspec.estimation import kde_eval
from rmtspec.theory import quartic_roots_batch


def _random_coeffs(rng, m):
    c = rng.standard_normal((m, 5)) + 1j * rng.standard_normal((m, 5))
    # keep leading coefficients well away from zero
    c[:, 0] += 2.0 * np.sign(c[:, 0].real)
    return c


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


class TestKdeKernel:
    def test_single_point(self):
        out = kde_eval(np.array([0.0]), np.array([0.0]), 1.0, 0)
        assert out[0] == pytest.approx(1 / np.sqrt(2 * np.pi), rel=1e-13)

    def test_epanechnikov_support(self):
        out = kde_eval(np.array([0.0]), np.array([0.0, 0.5, 1.5]), 1.0, 1)
        np.testing.assert_allclose(out, [0.75, 0.75 * 0.75, 0.0], atol=1e-14)
