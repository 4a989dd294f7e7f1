import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmtspec import theory
from rmtspec.curves import DensityCurve, cell_averages
from rmtspec.errors import ValidationError


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

    @pytest.mark.parametrize("atom", [0.0, 0.5, 1.0])
    def test_point_mass_range_is_closed(self, atom):
        # a curve of all its mass at 0 is a curve: %.9g writes 1 - 1e-10 as 1
        assert DensityCurve(np.array([0.0, 1.0]), np.zeros(2), atom).point_mass_at_zero == atom

    @pytest.mark.parametrize("atom", [np.nextafter(1.0, 2.0), -5e-324, 1.5])
    def test_rejects_bad_point_mass(self, atom):
        with pytest.raises(ValidationError, match=r"^point mass must lie in \[0, 1\]$"):
            DensityCurve(np.array([0.0, 1.0]), np.zeros(2), atom)

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



def _clearing_grid(lo, hi, n):
    """``n`` uniform points from 0.5 below ``min(0, lo)`` to 0.5 above ``hi``."""
    return np.linspace(min(0.0, lo) - 0.5, hi + 0.5, n)


class TestCellAverages:
    @given(_curves(), st.integers(256, 2048))
    @settings(max_examples=200, deadline=None)
    def test_curve_mass_kept(self, c, n):
        # scaled to a density: curve plus atom of mass 1
        cont = c.continuous_mass()
        if cont > 0:
            c = DensityCurve(c.xs, c.ys * (1.0 - c.point_mass_at_zero) / cont,
                             point_mass_at_zero=c.point_mass_at_zero)
        grid = _clearing_grid(c.xs[0], c.xs[-1], n)
        cells = cell_averages(grid, c.cdf, c.point_mass_at_zero)
        assert np.all(cells.ys >= 0.0)
        assert cells.point_mass_at_zero == c.point_mass_at_zero
        assert cells.total_mass() == pytest.approx(c.total_mass(), rel=0, abs=1e-12)
        # each ordinate is the mean of the continuous part over its cell
        h = grid[1] - grid[0]
        k = n // 2
        cont = c.cdf(grid[k] + 0.5 * h) - c.cdf(grid[k] - 0.5 * h)
        cont -= c.point_mass_at_zero * (grid[k] - 0.5 * h < 0.0 <= grid[k] + 0.5 * h)
        assert cells.ys[k] * h == pytest.approx(cont, rel=1e-9, abs=1e-12)

    @given(st.one_of(st.floats(0.01, 50.0), st.sampled_from([0.25, 1.0, 4.0, 32.0])),
           st.integers(256, 2048))
    @settings(max_examples=200, deadline=None)
    def test_marcenko_pastur_mass_one(self, c, n):
        prm = theory.mp_params(c)
        grid = _clearing_grid(prm.a, prm.b, n)
        cells = cell_averages(grid, lambda x: theory.mp_cdf(x, c), prm.point_mass_at_zero)
        assert np.all(cells.ys >= 0.0)
        assert cells.total_mass() == pytest.approx(1.0, rel=0, abs=1e-12)

    def test_flat_across_the_atom(self):
        # no density around 0, where (F + atom) - atom rounds an ulp below F:
        # the cell over 0 holds 0, not -5.6e-17
        c = DensityCurve(np.array([-1.0, -0.5, 0.5, 1.0]), np.array([0.7, 0.0, 0.0, 0.7]),
                         point_mass_at_zero=0.35)
        grid = np.linspace(-1.5, 1.5, 31)
        cells = cell_averages(grid, c.cdf, 0.35)
        assert np.all(cells.ys[np.abs(grid) < 0.35] == 0.0)
        assert cells.total_mass() == pytest.approx(c.total_mass(), rel=0, abs=1e-12)

    def test_uniform_box(self):
        # the cells of the box [0, 1] on a grid of step 1/4 with a centre at 1:
        # the cell [7/8, 9/8] holds half its width of the box
        grid = np.arange(-8, 9) / 4.0
        box = DensityCurve(np.array([0.0, 1.0]), np.ones(2))
        cells = cell_averages(grid, box.cdf)
        want = np.where((grid > 0.0) & (grid < 1.0), 1.0, 0.0)
        want[grid == 0.0] = want[grid == 1.0] = 0.5
        np.testing.assert_allclose(cells.ys, want, rtol=0, atol=1e-15)


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
