import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmtspec import (
    DataMatrix,
    DensityCurve,
    EsdFunction,
    eigvals_general,
    eigvals_symmetric,
    eigenvalue_density,
    histogram_density,
    ks_distance,
    l1_distance,
    mp_cdf,
    projection_density,
    sample_covariance,
    silverman_bandwidth,
    snap_zeros,
    split_atom,
    standardize_rows,
    with_atom,
)
from rmtspec.errors import DisjointSupportsWarning, ValidationError
from rmtspec.estimation import kde_eval

from oracles import l1_quad


class TestEsd:
    def test_basic_fraction(self):
        assert EsdFunction(np.array([1.0, 2.0, 3.0]))(2.0) == pytest.approx(2 / 3)

    def test_outside_range(self):
        esd = EsdFunction(np.array([3.0, 1.0, 2.0]))
        np.testing.assert_array_equal(esd(np.array([0.0, 3.0, 99.0])), [0.0, 1.0, 1.0])

    def test_ties_counted_leq(self):
        assert EsdFunction(np.array([1.0, 1.0, 1.0]))(1.0) == 1.0

    def test_empty_raises(self):
        with pytest.raises(ValidationError, match="^cannot build an ESD from zero eigenvalues$"):
            EsdFunction(np.array([]))

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=40),
           st.floats(-60, 60), st.floats(-60, 60))
    @settings(max_examples=60, deadline=None)
    def test_monotone(self, vals, x1, x2):
        esd = EsdFunction(np.array(vals))
        lo, hi = min(x1, x2), max(x1, x2)
        assert esd(lo) <= esd(hi)


class TestSilverman:
    def test_thousand_normals(self):
        rng = np.random.default_rng(0)
        s = rng.standard_normal(1000)
        h = silverman_bandwidth(s)
        assert h == pytest.approx(0.9 * 1000 ** (-0.2), rel=0.10)

    def test_two_samples(self):
        assert silverman_bandwidth([0.0, 1.0]) > 0

    def test_scale_equivariance(self):
        rng = np.random.default_rng(1)
        s = rng.standard_normal(500)
        np.testing.assert_allclose(silverman_bandwidth(10 * s),
                                   10 * silverman_bandwidth(s), atol=1e-9)

    def test_degenerate(self):
        with pytest.raises(ValidationError,
                           match="^need at least 2 distinct samples for a bandwidth$"):
            silverman_bandwidth([2.0, 2.0, 2.0])


class TestKde:
    def test_single_eigenvalue_gaussian(self):
        ys = kde_eval(np.array([0.0]), np.array([0.0, 1.0]), 2.0)
        np.testing.assert_allclose(ys, np.exp([0.0, -0.125]) / (2.0 * np.sqrt(2 * np.pi)),
                                   rtol=1e-12)

    def test_two_eigenvalues_at_zero(self):
        ys = kde_eval(np.array([-1.0, 1.0]), np.array([0.0, 2.0]), 1.0)
        assert ys[0] == pytest.approx(np.exp(-0.5) / np.sqrt(2 * np.pi), rel=1e-12)

    def test_normal_sample_l1(self):
        rng = np.random.default_rng(5)
        s = rng.standard_normal(500)
        grid = np.linspace(-5, 5, 2001)
        ys = kde_eval(s, grid, silverman_bandwidth(s))
        normal = np.exp(-0.5 * grid**2) / np.sqrt(2 * np.pi)
        assert np.trapezoid(np.abs(ys - normal), grid) <= 0.08

    def test_integrates_to_one(self, rng):
        c = eigenvalue_density(rng.standard_normal(200) * 3.0)
        assert c.point_mass_at_zero == 0.0
        assert c.continuous_mass() == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("bandwidth", [None, 2e-3, 2.0])
    def test_curve_is_the_weighted_kde_on_its_grid(self, rng, bandwidth):
        # the zeros are the atom; the rest's KDE, on a grid over them +- 5h in
        # steps of at most h and at least 1024 points, weighted by their share
        vals = np.concatenate([np.zeros(30), rng.standard_normal(70) + 3.0])
        c = eigenvalue_density(vals, bandwidth)
        nonzero, atom = split_atom(vals)
        h = silverman_bandwidth(nonzero) if bandwidth is None else bandwidth
        lo, hi = nonzero.min() - 5.0 * h, nonzero.max() + 5.0 * h
        grid = np.linspace(lo, hi, max(1024, int(np.ceil((hi - lo) / h)) + 1))
        want = with_atom(DensityCurve(grid, kde_eval(nonzero, grid, h)), atom)
        assert c.xs.tobytes() == want.xs.tobytes() and c.ys.tobytes() == want.ys.tobytes()
        assert c.point_mass_at_zero == atom == pytest.approx(0.3)

    def test_linearity_union(self, rng):
        a = rng.standard_normal(30)
        b = rng.standard_normal(50) + 1.0
        grid = np.linspace(-6, 7, 801)
        ya, yb = kde_eval(a, grid, 0.7), kde_eval(b, grid, 0.7)
        yu = kde_eval(np.concatenate([a, b]), grid, 0.7)
        np.testing.assert_allclose(yu, (30 * ya + 50 * yb) / 80, atol=1e-12)

    def test_shift_equivariance(self, rng):
        s = rng.standard_normal(40)
        grid = np.linspace(-5, 5, 501)
        np.testing.assert_allclose(kde_eval(s, grid, 0.5), kde_eval(s + 2.5, grid + 2.5, 0.5),
                                   atol=1e-12)

    def test_bad_bandwidth(self):
        for h in (-1.0, 0.0, np.inf, np.nan):
            with pytest.raises(ValidationError,
                               match=f"^bandwidth must be finite and positive, got {h}$"):
                eigenvalue_density([1.0, 2.0, 3.0], h)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("h", [-1.0, 0.0, np.inf, np.nan])
    def test_kde_eval_refuses_a_bad_bandwidth(self, h):
        with pytest.raises(ValidationError,
                           match=f"^bandwidth must be finite and positive, got {h}$"):
            kde_eval(np.array([0.0, 1.0]), np.array([0.0, 0.5]), h)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_kde_eval_refuses_non_finite_samples(self, bad):
        with pytest.raises(ValidationError, match="^KDE samples must be finite$"):
            kde_eval(np.array([0.0, bad, 1.0]), np.array([0.0, 0.5]), 0.5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_kde_eval_refuses_non_finite_grid_points(self, bad):
        with pytest.raises(ValidationError, match="^KDE grid points must be finite$"):
            kde_eval(np.array([0.0, 1.0]), np.array([0.0, bad]), 0.5)


class TestHistogram:
    def test_single_sample_one_bin(self):
        # numpy spans a single value with the unit bin around it, here [0, 1]
        c = histogram_density([0.5], bins=1)
        np.testing.assert_array_equal(c.xs, [0.0, 0.5, 1.0])
        np.testing.assert_allclose(c.ys, 1.0)
        assert c.continuous_mass() == pytest.approx(1.0, abs=1e-12)

    def test_uniform_grid(self):
        c = histogram_density(np.linspace(0, 1, 1000, endpoint=False) + 0.0005, bins=10)
        assert np.allclose(c.ys, 1.0, atol=0.02)

    def test_area_exact(self, rng):
        s = rng.standard_normal(300)
        c = histogram_density(s, bins=17)
        assert c.continuous_mass() == pytest.approx(1.0, abs=1e-12)

    def test_empty(self):
        with pytest.raises(ValidationError, match="^cannot histogram an empty sample set$"):
            histogram_density([], bins=3)


class TestKs:
    def test_identical_step(self):
        esd = EsdFunction(np.array([1.0, 2.0]))
        assert ks_distance(esd, esd) == pytest.approx(0.0, abs=1e-15)

    def test_opposed_atoms(self):
        esd = EsdFunction(np.array([0.0]))
        cdf = lambda x: (np.asarray(x) >= 1.0).astype(float)
        assert ks_distance(esd, cdf) == pytest.approx(1.0)

    def test_mp_self_consistency(self):
        # eigenvalues of a large iid covariance vs mp_cdf
        rng = np.random.default_rng(11)
        p, n = 500, 500
        X = rng.standard_normal((p, n))
        lam = np.linalg.eigvalsh(X @ X.T / n)
        esd = EsdFunction(snap_zeros(lam))
        assert ks_distance(esd, lambda x: mp_cdf(x, 1.0)) <= 0.05

    def test_shared_atom_at_zero(self):
        # half the mass at exactly zero on both sides: jump vs jump
        esd = EsdFunction(np.array([0.0, 0.0, 1.0, 2.0]))

        def cdf(x):
            x = np.asarray(x, dtype=float)
            return np.clip(0.5 * (x >= 0) + 0.25 * np.clip(x, 0, 2), 0, 1)

        assert ks_distance(esd, cdf) <= 0.25 + 1e-12

    def test_range(self):
        rng = np.random.default_rng(3)
        esd = EsdFunction(rng.standard_normal(50))
        d = ks_distance(esd, lambda x: np.clip((np.asarray(x) + 3) / 6, 0, 1))
        assert 0.0 <= d <= 1.0

    @given(ints=st.lists(st.integers(-3, 3), min_size=1, max_size=40),
           scale=st.sampled_from([1.0, 1e-300, 1e300]))
    @settings(max_examples=200, deadline=None)
    def test_steps_are_the_tie_counts_over_n(self, ints, scale):
        # at each distinct value the ESD is the count up to it over n, and just
        # below it the count before it, bit for bit
        values = np.array(ints) * scale

        def cdf(x):
            return np.clip((x + 4.0 * scale) / (8.0 * scale), 0.0, 1.0)

        u, counts = np.unique(values, return_counts=True)
        hi = np.cumsum(counts) / len(values)
        lo = np.concatenate([[0.0], hi[:-1]])
        want = max(np.abs(hi - cdf(u)).max(), np.abs(lo - cdf(np.nextafter(u, -np.inf))).max())
        assert ks_distance(EsdFunction(values), cdf) == want


@st.composite
def _jump_curves(draw):
    """Curves of 2-12 knots on about [-4, 8] whose end ordinates are mostly
    nonzero (a jump to zero there), with an atom at 0 or none."""
    n = draw(st.integers(2, 12))
    start = draw(st.floats(-4.0, 2.0))
    steps = draw(st.lists(st.floats(0.01, 1.0), min_size=n - 1, max_size=n - 1))
    xs = start + np.concatenate([[0.0], np.cumsum(steps)])
    ys = np.array(draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n)))
    atom = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.99)))
    return DensityCurve(xs, ys, point_mass_at_zero=atom)


class TestL1:
    def test_identical(self):
        xs = np.linspace(0, 1, 101)
        c = DensityCurve(xs, np.ones_like(xs))
        assert l1_distance(c, c) == 0.0

    def test_disjoint_boxes(self):
        xs1 = np.linspace(0, 1, 201)
        xs2 = np.linspace(5, 6, 201)
        a = DensityCurve(xs1, np.ones_like(xs1))
        b = DensityCurve(xs2, np.ones_like(xs2))
        with pytest.warns(DisjointSupportsWarning):
            d = l1_distance(a, b)
        assert d == pytest.approx(2.0, abs=0.02)

    def test_half_overlap(self):
        xs1 = np.linspace(0, 1, 2001)
        xs2 = np.linspace(0.5, 1.5, 2001)
        a = DensityCurve(xs1, np.ones_like(xs1))
        b = DensityCurve(xs2, np.ones_like(xs2))
        assert l1_distance(a, b) == pytest.approx(1.0, abs=0.02)

    def test_point_mass_difference(self):
        xs = np.linspace(0, 1, 101)
        a = DensityCurve(xs, np.ones_like(xs) * 0.5, point_mass_at_zero=0.5)
        b = DensityCurve(xs, np.ones_like(xs) * 0.5, point_mass_at_zero=0.1)
        assert l1_distance(a, b) == pytest.approx(0.4, abs=1e-12)

    def test_symmetric(self, rng):
        a = DensityCurve(np.linspace(0, 2, 301), np.abs(np.sin(np.linspace(0, 2, 301))))
        b = DensityCurve(np.linspace(1, 3, 301), np.full(301, 0.5))
        assert l1_distance(a, b) == pytest.approx(l1_distance(b, a), abs=1e-12)

    @pytest.mark.parametrize("a, b, want", [
        # a narrow box inside a wide one: 0.999 on [0, 1] and 0.001 over 999
        ((0.0, 1.0, 1.0), (0.0, 1000.0, 0.001), 1.998),
        # half-overlapping unit boxes, each jumping to zero at both ends
        ((0.0, 1.0, 1.0), (0.5, 1.5, 1.0), 1.0),
        ((0.0, 1.0, 1.0), (5.0, 6.0, 1.0), 2.0),
    ])
    def test_boxes_exact(self, a, b, want):
        box = [DensityCurve(np.array([lo, hi]), np.full(2, y)) for lo, hi, y in (a, b)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DisjointSupportsWarning)
            assert l1_distance(*box) == pytest.approx(want, rel=0, abs=1e-12)

    def test_crossing_exact(self):
        # density 2x against 1 on [0, 1]: two triangles of area 1/4
        xs = np.array([0.0, 1.0])
        a, b = DensityCurve(xs, np.array([0.0, 2.0])), DensityCurve(xs, np.ones(2))
        assert l1_distance(a, b) == pytest.approx(0.5, rel=0, abs=1e-15)

    @given(_jump_curves(), _jump_curves(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_quadrature(self, a, b, same_grid):
        if same_grid:
            b = DensityCurve(a.xs, b.ys[:1].repeat(len(a.xs)) + a.ys[::-1], b.point_mass_at_zero)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DisjointSupportsWarning)
            got = l1_distance(a, b)
        assert got == pytest.approx(l1_quad(a, b), rel=1e-10, abs=1e-12)


class TestProjections:
    def test_single_value(self):
        # one sample is histogrammed in the unit bin centred on it
        s = np.array([1 + 2j])
        for axis, centre in (("x", np.sqrt(2)), ("y", 2 * np.sqrt(2))):
            c = projection_density(s, axis=axis, bins=1)
            np.testing.assert_allclose(c.xs, centre + np.array([-0.5, 0.0, 0.5]))

    def test_conjugate_pair_symmetric(self):
        c = projection_density(np.array([1j, -1j]), axis="y", bins=2)
        np.testing.assert_allclose(c.xs[[0, -1]], [-np.sqrt(2), np.sqrt(2)])
        np.testing.assert_allclose(c.ys, c.ys[::-1])

    def test_empty(self):
        with pytest.raises(ValidationError, match="^empty spectrum$"):
            projection_density(np.array([]), axis="x")

    def test_bad_axis(self):
        with pytest.raises(ValueError, match="axis"):
            projection_density(np.array([1 + 1j]), axis="z")

    def test_projection_density_atom(self):
        vals = np.concatenate([np.zeros(60), np.ones(20) + 1j, np.ones(20) - 1j])
        curve = projection_density(vals, axis="x", bins=4)
        assert curve.point_mass_at_zero == pytest.approx(0.6)
        assert curve.total_mass() == pytest.approx(1.0, abs=1e-9)


class TestSnapAndAtomKde:
    def test_snap_zeros(self):
        v = np.array([1e-18, -1e-17, 2.0, 1.0])
        out = snap_zeros(v)
        np.testing.assert_array_equal(out[:2], [0.0, 0.0])
        np.testing.assert_array_equal(out[2:], [2.0, 1.0])

    def test_eigenvalue_density_weighting(self, rng):
        vals = np.concatenate([np.zeros(75), 4.0 + rng.standard_normal(25) * 0.2])
        curve = eigenvalue_density(vals)
        assert curve.point_mass_at_zero == pytest.approx(0.75)
        assert curve.total_mass() == pytest.approx(1.0, abs=0.02)

    def test_eigenvalue_density_all_zero_raises(self):
        with pytest.raises(ValidationError, match="^fewer than 2 nonzero eigenvalues$"):
            eigenvalue_density(np.zeros(5))

    def test_projection_density_all_zero_raises(self):
        with pytest.raises(ValidationError,
                           match="^every eigenvalue of the complex spectrum is zero$"):
            projection_density(np.zeros(5, complex), axis="x")


_EPS = np.finfo(np.float64).eps


def _zero_bound(values):
    """``snap_zeros``' bound on |v|, computed in its order of operations."""
    return 2 * values.size * _EPS * np.abs(values).max()


def _zero_set_cases():
    rng = np.random.default_rng(17)
    real = np.concatenate([rng.standard_normal(40), 1e-13 * rng.standard_normal(10),
                           [0.0, -0.0, 1e-30]])
    # the bound itself, the double below it (both zero) and the double above
    # it (nonzero), for the 57 values of the case they join
    scale = np.abs(real).max()
    bound = _zero_bound(np.append(real, [scale] * 4))
    edge = np.array([scale, bound, np.nextafter(bound, 0.0), np.nextafter(bound, np.inf)])
    cplx = real * np.exp(1j * rng.uniform(0, 2 * np.pi, real.size))
    return [real, np.concatenate([real, edge]), cplx, np.zeros(6), np.zeros(3, complex),
            np.array([0.0, 2.5]), np.array([7.0])]


class TestSplitAtom:
    @pytest.mark.parametrize("values", _zero_set_cases())
    def test_zero_set_matches_snap_zeros(self, values):
        rng = np.random.default_rng(3)
        values = values[rng.permutation(values.size)]
        zero = np.abs(values) <= _zero_bound(values)
        snapped = snap_zeros(values)
        np.testing.assert_array_equal(snapped == 0, zero)
        np.testing.assert_array_equal(snapped[~zero], values[~zero])
        nonzero, atom = split_atom(values)
        np.testing.assert_array_equal(nonzero, values[~zero])
        assert atom == pytest.approx(zero.sum() / values.size, abs=1e-15)

    def test_edges_of_the_bound(self):
        values = _zero_set_cases()[1]
        bound = _zero_bound(values)
        snapped = snap_zeros(values)
        assert snapped[values == bound] == 0.0
        assert snapped[values == np.nextafter(bound, 0.0)] == 0.0
        above = values == np.nextafter(bound, np.inf)
        assert snapped[above] == values[above] != 0.0
        # the 1e-13 normals against a largest of 2.28 straddle the bound, 5.8e-14
        assert 0 < (snapped[40:50] == 0).sum() < 10

    def test_empty_raises(self):
        with pytest.raises(ValidationError, match="^empty spectrum$"):
            split_atom(np.array([]))


def _gaussian_rows(seed, p, n, standardize):
    X = DataMatrix(np.random.default_rng(seed).standard_normal((p, n)).astype(np.float32))
    return standardize_rows(X) if standardize else X


class TestZeroRuleOnSpectra:
    """``split_atom`` on solved spectra counts exactly the structural zeros,
    p - rank."""

    # (n - 1) x n standardized rows have rank n - 1, so no eigenvalue is zero;
    # the smallest is 2.5e-11 of the largest at seed 2 and 1.9e-9 at seed 4,
    # which a cut at 1e-8 of the largest counted as zeros (112 and 8530 times
    # the bound)
    @pytest.mark.parametrize("seed", range(8))
    def test_no_atom_one_row_below_square(self, seed):
        vals = eigvals_symmetric(sample_covariance(_gaussian_rows(seed, 1023, 1024, True))).values
        assert split_atom(vals)[1] == 0.0

    # centered rows have rank min(p, n - 1), raw ones min(p, n): the small side
    # adds p - n exact zeros, and the centered rows' null direction comes out at
    # rounding level, at most 0.33 times the bound on these shapes and seeds
    @pytest.mark.parametrize("p, n", [(3, 3), (4, 3), (65, 64), (2048, 64)])
    @pytest.mark.parametrize("standardize", [True, False])
    @pytest.mark.parametrize("solve", [lambda M: eigvals_symmetric(M).values, eigvals_general],
                             ids=["symmetric", "general"])
    def test_structural_zero_count(self, p, n, standardize, solve):
        rank = min(p, n - 1 if standardize else n)
        for seed in range(10):
            vals = solve(sample_covariance(_gaussian_rows(seed, p, n, standardize)))
            assert p - len(split_atom(vals)[0]) == p - rank, seed
