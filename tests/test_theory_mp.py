import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rmtspec import mp_cdf, mp_density, mp_params
from rmtspec.errors import ValidationError

from oracles import mp_cdf_quad


class TestMpParams:
    @pytest.mark.parametrize(
        "c,a,b,atom",
        [
            (1.0, 0.0, 4.0, 0.0),
            (4.0, 1.0, 9.0, 0.75),
            (0.25, 0.25, 2.25, 0.0),
        ],
    )
    def test_edges_and_atom(self, c, a, b, atom):
        prm = mp_params(c)
        assert prm.a == pytest.approx(a, abs=1e-14)
        assert prm.b == pytest.approx(b, abs=1e-14)
        assert prm.point_mass_at_zero == pytest.approx(atom, abs=1e-14)
        assert 0 <= prm.a < prm.b

    def test_invalid_ratio(self):
        for c in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValidationError,
                               match=f"^dimension ratio must be positive and finite, got {c}$"):
                mp_params(c)


class TestMpDensity:
    def test_point_values(self):
        assert mp_density(1.0, 1.0) == pytest.approx(np.sqrt(3) / (2 * np.pi), rel=1e-12)
        assert mp_density(5.0, 4.0) == pytest.approx(1.0 / (10 * np.pi), rel=1e-12)

    def test_outside_support(self):
        assert mp_density(0.5, 4.0) == 0.0
        assert mp_density(9.5, 4.0) == 0.0
        assert mp_density(-1.0, 1.0) == 0.0

    def test_vectorized(self):
        xs = np.array([0.5, 5.0, 20.0])
        ys = mp_density(xs, 4.0)
        np.testing.assert_allclose(ys, [0.0, 1.0 / (10 * np.pi), 0.0], atol=1e-14)

    @pytest.mark.parametrize("c", [0.25, 0.5, 1.0, 2.0, 4.0])
    def test_normalization(self, c):
        # continuous part integrates to 1 - atom
        prm = mp_params(c)
        total = mp_cdf(prm.b + 1.0, c)
        assert total == pytest.approx(1.0, abs=1e-6)
        cont = total - prm.point_mass_at_zero
        assert cont == pytest.approx(1.0 - prm.point_mass_at_zero, abs=1e-4)


class TestMpCdf:
    def test_boundaries(self):
        assert mp_cdf(-0.1, 1.0) == 0.0
        assert mp_cdf(4.5, 1.0) == pytest.approx(1.0, abs=1e-6)
        assert mp_cdf(9.0, 4.0) == pytest.approx(1.0, abs=1e-6)

    def test_atom_only_region(self):
        assert mp_cdf(0.5, 4.0) == pytest.approx(0.75, abs=1e-12)

    def test_riemann_oracle_c1(self):
        # 10^7-point midpoint Riemann sum; the c = 1 lower edge is an
        # x^(-1/2) singularity, so the sum runs in u = sqrt(x), where the
        # integrand is smooth (a plain uniform sum under-counts the first
        # cell by ~9e-5, far above the oracle's own accuracy)
        c, x = 1.0, 2.0
        u = np.linspace(0.0, np.sqrt(x), 10_000_001)
        mid = 0.5 * (u[1:] + u[:-1])
        riemann = float(np.sum(mp_density(mid**2, c) * 2.0 * mid) * (u[1] - u[0]))
        assert mp_cdf(x, c) == pytest.approx(riemann, abs=1e-5)

    def test_riemann_oracle_c_half(self):
        # away from c = 1 the support edge is a sqrt zero: the plain
        # uniform midpoint sum reaches 1e-5 directly
        c, x = 0.5, 2.0
        prm = mp_params(c)
        t = np.linspace(prm.a, x, 10_000_001)
        mid = 0.5 * (t[1:] + t[:-1])
        riemann = float(np.sum(mp_density(mid, c)) * (t[1] - t[0]))
        assert mp_cdf(x, c) == pytest.approx(riemann, abs=1e-5)

    def test_monotone(self):
        xs = np.linspace(-1.0, 10.0, 300)
        for c in (0.25, 1.0, 4.0):
            F = mp_cdf(xs, c)
            assert np.all(np.diff(F) >= -1e-12)
            assert F[0] == 0.0
            assert F[-1] == pytest.approx(1.0, abs=1e-6)

    def test_scalar_array_consistency(self):
        xs = np.array([0.3, 1.7, 2.4])
        F = mp_cdf(xs, 0.5)
        for x, f in zip(xs, F):
            assert mp_cdf(float(x), 0.5) == pytest.approx(f, abs=1e-10)

    @given(c=st.floats(0.05, 50.0),
           ts=st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=12))
    @example(c=1.0, ts=[0.0])  # a = 0: the x^(-1/2) pole sits at the lower edge
    @settings(max_examples=100, deadline=None)
    def test_closed_form_against_quadrature(self, c, ts):
        prm = mp_params(c)
        a, b, atom = prm.a, prm.b, prm.point_mass_at_zero
        xs = np.sort(np.concatenate([
            a + (b - a) * np.asarray(ts),
            [-1.0, -1e-300, 0.0, a, np.nextafter(a, b), np.nextafter(b, a), b, b + 1.0],
        ]))
        F = mp_cdf(xs, c)
        # non-decreasing up to rounding of the O(1) terms that cancel near the edges
        assert np.all(np.diff(F) >= -1e-14)
        assert np.all(F[xs < 0] == 0.0)
        assert np.all(F[(xs >= 0) & (xs <= a)] == atom)
        assert np.all(F[xs >= b] == 1.0)
        assert mp_cdf(a, c) == atom and mp_cdf(b, c) == 1.0
        for x, f in zip(xs, F):
            assert f == pytest.approx(mp_cdf_quad(float(x), c), abs=1e-8)
