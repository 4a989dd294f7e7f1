import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmtspec.curves import DensityCurve, resample, union_grid


@st.composite
def _curves(draw):
    n = draw(st.integers(2, 30))
    start = draw(st.floats(-5.0, 5.0))
    steps = draw(st.lists(st.floats(1e-3, 2.0), min_size=n - 1, max_size=n - 1))
    xs = start + np.concatenate([[0.0], np.cumsum(steps)])
    ys = np.array(draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n)))
    atom = draw(st.floats(0.0, 0.99))
    return DensityCurve(xs, ys, point_mass_at_zero=atom)


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

    def test_union_grid(self):
        a = DensityCurve(np.array([-1.0, 0.5]), np.ones(2))
        b = DensityCurve(np.array([0.0, 3.0]), np.ones(2))
        g = union_grid([a, b])
        assert (g[0], g[-1], len(g)) == (-1.0, 3.0, 2048)


class TestCdf:
    @given(_curves(), st.lists(st.floats(-20.0, 50.0), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_exact_integral_of_interpolant(self, c, probes):
        atom = c.point_mass_at_zero
        xs = np.sort(np.concatenate([c.xs, probes, [-np.inf, np.inf]]))
        F = c.cdf(xs)
        assert np.all(np.diff(F) >= -1e-12)

        cont = np.concatenate(
            [[0.0], np.cumsum(np.diff(c.xs) * 0.5 * (c.ys[1:] + c.ys[:-1]))])
        np.testing.assert_array_equal(c.cdf(c.xs), cont + atom * (c.xs >= 0))
        # mid-segment: integral of the linear piece over its first half
        mid = 0.5 * (c.xs[1:] + c.xs[:-1])
        half = np.diff(c.xs) * (3.0 * c.ys[:-1] + c.ys[1:]) / 8.0
        np.testing.assert_allclose(c.cdf(mid), cont[:-1] + half + atom * (mid >= 0),
                                   rtol=1e-12, atol=1e-12)
        before = c.xs[0] - np.array([np.inf, 1.0])
        np.testing.assert_array_equal(c.cdf(before), atom * (before >= 0))
        # past the last knot, and past 0 where the atom sits
        past = max(c.xs[-1], 0.0) + np.array([0.0, 1.0, 1e6, np.inf])
        np.testing.assert_allclose(c.cdf(past), c.total_mass(), rtol=0, atol=1e-12)

        # the jump at 0 is the atom: F(0) - F(0-) = atom
        assert c.cdf(0.0) - c.cdf(np.nextafter(0.0, -1.0)) == pytest.approx(atom, abs=1e-12)
