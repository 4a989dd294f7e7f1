import numpy as np
import pytest

from rmtspec.curves import DensityCurve, resample


class TestDensityCurve:
    def test_rejects_non_increasing_grid(self):
        with pytest.raises(ValueError):
            DensityCurve(np.array([0.0, 1.0, 1.0]), np.zeros(3))

    def test_rejects_negative_ordinates(self):
        with pytest.raises(ValueError):
            DensityCurve(np.array([0.0, 1.0]), np.array([0.1, -0.1]))

    def test_rejects_bad_point_mass(self):
        with pytest.raises(ValueError):
            DensityCurve(np.array([0.0, 1.0]), np.zeros(2), point_mass_at_zero=1.5)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            DensityCurve(np.array([0.0, 1.0]), np.array([np.nan, 1.0]))
        with pytest.raises(ValueError):
            DensityCurve(np.array([0.0, 1.0]), np.array([0.0, np.inf]))
        with pytest.raises(ValueError):
            DensityCurve(np.array([0.0, np.nan]), np.zeros(2))
        with pytest.raises(ValueError):
            DensityCurve(np.array([0.0, 1.0]), np.zeros(2), point_mass_at_zero=np.nan)

    def test_masses(self):
        xs = np.linspace(0, 2, 101)
        c = DensityCurve(xs, np.full(101, 0.25), point_mass_at_zero=0.5)
        assert c.continuous_mass() == pytest.approx(0.5)
        assert c.total_mass() == pytest.approx(1.0)

    def test_call_interpolates_zero_outside(self):
        c = DensityCurve(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        np.testing.assert_allclose(c(np.array([-1.0, 0.5, 2.0])), [0.0, 1.0, 0.0])

    def test_resample(self):
        xs = np.linspace(0, 1, 11)
        c = DensityCurve(xs, xs.copy(), point_mass_at_zero=0.25)
        r = resample(c, np.linspace(-0.5, 1.5, 21))
        assert r.point_mass_at_zero == 0.25
        assert r(0.5) == pytest.approx(0.5)
