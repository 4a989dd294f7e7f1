import numpy as np
import pytest

from rmtspec import (
    DensityCurve,
    GreenSolveConfig,
    green_function,
    green_quartic_coeffs,
    lagged_density_symmetric,
    lagged_point_mass,
    project_density,
    solve_quartic,
)
from rmtspec.errors import (
    BranchAmbiguity,
    DegenerateLeadingCoefficient,
    InvalidRatio,
    NotNormalized,
)

from oracles import greedy_pairing_residual


class TestQuarticCoeffs:
    def test_q1_units(self):
        np.testing.assert_allclose(green_quartic_coeffs(1.0, 1.0), [1, 0, -1, 0, 1], atol=1e-15)
        np.testing.assert_allclose(green_quartic_coeffs(2.0, 1.0), [4, 0, -4, 0, 1], atol=1e-15)

    def test_symbolic_oracle(self):
        sympy = pytest.importorskip("sympy")
        G, z, Q = sympy.symbols("G z Q")
        expr = (
            z**2 * G**4 / Q**3
            - 2 * (1 / Q - 1) * z * G**3 / Q**2
            - (z**2 - (1 / Q - 1) ** 2) * G**2 / Q
            + 2 * (1 / Q - 1) * z * G
            + 2 - 1 / Q
        )
        poly = sympy.Poly(sympy.expand(expr), G)
        zval, qval = 3 - sympy.I / 1000, 10
        want = [complex(c.subs({z: zval, Q: qval})) for c in poly.all_coeffs()]
        got = green_quartic_coeffs(3 - 0.001j, 10.0)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)

    def test_invalid(self):
        with pytest.raises(InvalidRatio):
            green_quartic_coeffs(1.0, 0.0)
        with pytest.raises(ValueError):
            green_quartic_coeffs(0.0, 1.0)

    def test_array_matches_scalar_calls(self):
        z = np.linspace(-3.0, 3.0, 601) - 1j * 1e-3
        for Q in (0.5, 1.0, 10.0):
            got = green_quartic_coeffs(z, Q)
            assert got.shape == (601, 5)
            want = np.stack([green_quartic_coeffs(v, Q) for v in z])
            np.testing.assert_array_equal(got, want)

    def test_array_containing_zero(self):
        with pytest.raises(ValueError):
            green_quartic_coeffs(np.array([1.0 - 1e-3j, 0.0, 2.0]), 1.0)


class TestSolveQuartic:
    def test_constructed_factorization(self):
        roots = solve_quartic([1, -10, 35, -50, 24])
        np.testing.assert_allclose(roots, [1, 2, 3, 4], atol=1e-9)

    def test_roots_of_unity(self):
        roots = solve_quartic([1, 0, 0, 0, -1])
        want = np.array([-1, 0 - 1j, 0 + 1j, 1])
        assert greedy_pairing_residual(roots, want) < 1e-10

    def test_vieta_random(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            c = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            roots = solve_quartic(c)
            np.testing.assert_allclose(roots.sum(), -c[1] / c[0], atol=1e-8, rtol=1e-8)
            np.testing.assert_allclose(np.prod(roots), c[4] / c[0], atol=1e-8, rtol=1e-8)

    def test_sorted_output(self):
        roots = solve_quartic([1, -10, 35, -50, 24])
        assert list(roots.real) == sorted(roots.real)

    def test_degenerate_leading(self):
        with pytest.raises(DegenerateLeadingCoefficient):
            solve_quartic([0, 1, 2, 3, 4])


class TestGreenFunction:
    @pytest.mark.parametrize("Q", [0.5, 1.0, 10.0])
    def test_asymptotic_decay(self, Q):
        z = 1000.0 - 0.001j
        g = green_function(z, Q)
        assert abs(z * g - 1.0) < 1e-2

    def test_asymptote_is_approximate_root(self):
        # substituting G = 1/z into the quartic cancels all O(1) terms
        z, Q = 1000.0 - 0.001j, 10.0
        c = green_quartic_coeffs(z, Q)
        val = np.polyval(c, 1.0 / z)
        assert abs(val) < 1e-4  # O(z^-2)

    def test_positive_density_inside_support(self):
        for x in (0.1, 0.5, 1.0, 1.9):
            g = green_function(x - 1e-3j, 1.0)
            assert g.imag > 0

    def test_requires_lower_half_plane(self):
        with pytest.raises(ValueError):
            green_function(1.0 + 0.001j, 1.0)

    def test_continuity_selection(self):
        g0 = green_function(0.5 - 1e-3j, 10.0)
        g1 = green_function(0.501 - 1e-3j, 10.0, previous=g0)
        assert abs(g1 - g0) < 0.1

    def test_residual_of_returned_root(self):
        for Q in (0.5, 1.0, 10.0):
            for x in (0.3, 1.5, 5.0):
                z = x - 1e-3j
                c = green_quartic_coeffs(z, Q)
                g = green_function(z, Q)
                assert abs(np.polyval(c, g)) / np.linalg.norm(c) <= 1e-9

    def test_branch_ambiguity_near_collision(self):
        # at the Q=1 support edge the physical root and its partner collide
        # as eps -> 0; with eps tiny their gap is far below the ambiguity
        # tolerance and a `previous` between them must refuse to choose
        z = 2.0 - 1e-14j
        roots = solve_quartic(green_quartic_coeffs(z, 1.0))
        d = np.sort(np.abs(roots[:, None] - roots[None, :]), axis=None)
        close_pair = d[4]  # smallest nonzero pairwise distance
        assert close_pair < 1e-6
        i, j = np.unravel_index(
            np.argmin(np.abs(roots[:, None] - roots[None, :]) + np.eye(4)), (4, 4)
        )
        midpoint = 0.5 * (roots[i] + roots[j])
        with pytest.raises(BranchAmbiguity):
            green_function(z, 1.0, previous=midpoint)


class TestLaggedDensity:
    @pytest.mark.parametrize("Q", [0.5, 1.0, 10.0])
    def test_normalization(self, Q):
        curve = lagged_density_symmetric(GreenSolveConfig(Q=Q))
        assert curve.total_mass() == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("Q", [0.5, 10.0])
    def test_even_symmetry(self, Q):
        curve = lagged_density_symmetric(GreenSolveConfig(Q=Q))
        sym_err = np.abs(curve.ys - curve.ys[::-1]).max()
        assert sym_err < 2e-3

    def test_point_mass(self):
        assert lagged_point_mass(0.5) == 0.5
        assert lagged_point_mass(1.0) == 0.0
        assert lagged_point_mass(10.0) == 0.0
        assert lagged_density_symmetric(GreenSolveConfig(Q=0.5)).point_mass_at_zero == 0.5

    def test_eps_sweep_stabilizes(self):
        # curves converge as eps shrinks: successive differences decrease
        curves = {}
        grid = np.linspace(-2.4, 2.4, 1601)
        for eps in (1e-2, 1e-3, 1e-4):
            curves[eps] = lagged_density_symmetric(
                GreenSolveConfig(Q=10.0, epsilon=eps, grid=grid))
        d_coarse = np.trapezoid(np.abs(curves[1e-2].ys - curves[1e-3].ys), grid)
        d_fine = np.trapezoid(np.abs(curves[1e-3].ys - curves[1e-4].ys), grid)
        assert d_fine < d_coarse

    @pytest.mark.parametrize("Q", [0.0, -1.0, np.inf, np.nan])
    def test_config_rejects_invalid_q(self, Q):
        with pytest.raises(InvalidRatio):
            GreenSolveConfig(Q=Q)

    @pytest.mark.parametrize("eps", [0.0, -1e-3, np.inf, np.nan])
    def test_config_rejects_invalid_epsilon(self, eps):
        with pytest.raises(ValueError):
            GreenSolveConfig(Q=1.0, epsilon=eps)

    def test_custom_grid_respected(self):
        grid = np.linspace(-3.0, 3.0, 501)
        curve = lagged_density_symmetric(GreenSolveConfig(Q=2.0, grid=grid))
        np.testing.assert_array_equal(curve.xs, grid)

    def test_large_q_semicircle_limit(self):
        # Q -> inf: density tends to a semicircle of radius sqrt(2/Q)
        Q = 200.0
        curve = lagged_density_symmetric(GreenSolveConfig(Q=Q))
        R = np.sqrt(2.0 / Q)
        semi = np.where(np.abs(curve.xs) < R,
                        2.0 * np.sqrt(np.clip(R**2 - curve.xs**2, 0, None)) / (np.pi * R**2),
                        0.0)
        err = np.trapezoid(np.abs(curve.ys - semi), curve.xs)
        assert err < 0.05


class TestProjectDensity:
    def test_uniform_box(self):
        xs = np.linspace(-1.0, 1.0, 2001)
        box = DensityCurve(xs, np.full_like(xs, 0.5))
        proj = project_density(box)
        assert proj.xs[0] == pytest.approx(-1 / np.sqrt(2))
        assert proj.xs[-1] == pytest.approx(1 / np.sqrt(2))
        assert proj.ys[1000] == pytest.approx(np.sqrt(2) * 0.5, rel=1e-12)
        assert proj.total_mass() == pytest.approx(1.0, abs=1e-9)

    def test_mass_preserved(self):
        curve = lagged_density_symmetric(GreenSolveConfig(Q=10.0))
        proj = project_density(curve, axis="y")
        assert proj.total_mass() == pytest.approx(curve.total_mass(), abs=1e-9)

    def test_rejects_unnormalized(self):
        xs = np.linspace(-1.0, 1.0, 101)
        with pytest.raises(NotNormalized):
            project_density(DensityCurve(xs, np.full_like(xs, 2.0)))
