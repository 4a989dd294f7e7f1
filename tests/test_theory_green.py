import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import rmtspec
from rmtspec import theory
from rmtspec import (
    read_density_csv,
    DataMatrix,
    DensityCurve,
    green_function,
    green_scan,
    green_quartic_coeffs,
    l1_distance,
    lagged_density_symmetric,
)
from rmtspec.cli import run_cli
from rmtspec.errors import BranchAmbiguity, NumericalError, RmtError, ValidationError

from oracles import (
    g_unit_curve,
    g_unit_track,
    greedy_pairing_residual,
    green_quartic_coeffs_w,
    green_quartic_terms,
    lagged_edge,
    loop_default_grid,
    project_density,
    reference_track,
    rho0,
    two_sweep_scan,
    unsquared_lhs,
)

_U = np.finfo(float).eps / 2


def _kappa(c, x):
    """Relative condition number of the root ``x`` of the quartic ``c`` (..., 5):
    ``sum_j |c_j| |x|^(4-j) / (|x| |P'(x)|)``."""
    mag = sum(np.abs(c[..., j]) * np.abs(x) ** (4 - j) for j in range(5))
    slope = sum((4 - j) * c[..., j] * x ** (3 - j) for j in range(4))
    return mag / (np.abs(x) * np.abs(slope))


class TestQuarticCoeffs:
    def test_q1_units(self):
        np.testing.assert_allclose(green_quartic_coeffs(1.0, 1.0), [1, 0, -1, 0, 1], atol=1e-15)
        np.testing.assert_allclose(green_quartic_coeffs(2.0, 1.0), [1, 0, -4, 0, 4], atol=1e-15)

    def test_symbolic_oracle(self):
        # the quartic in G is the source of truth: Q^3 z^2 P(w/z), the quartic
        # in w = zG, factors as (w - 1 + Q)^2 (w^2 - Q^2 z^2) + Q^4 z^2, and the
        # package solves it in v = w - (1-Q)_+
        sympy = pytest.importorskip("sympy")
        G, w, v, z, Q = sympy.symbols("G w v z Q")
        P = sum(c * G ** (4 - k) for k, c in enumerate(green_quartic_terms(z, Q)))
        in_w = sympy.expand(Q**3 * z**2 * P.subs(G, w / z))
        assert sympy.expand(in_w - ((w - 1 + Q)**2 * (w**2 - Q**2 * z**2) + Q**4 * z**2)) == 0
        for zval, qval in [(3 - sympy.I / 1000, 10), (sympy.Rational(1, 20) - sympy.I / 10**4,
                                                      sympy.Rational(1, 4)), (0, 2),
                           (2 - sympy.I / 100, 1), (0, sympy.Rational(1, 2)),
                           (sympy.Rational(1, 10**6) - sympy.I / 10**9, sympy.Rational(1, 1000))]:
            atom = sympy.Max(0, 1 - qval)
            poly = sympy.Poly(in_w.subs({z: zval, Q: qval, w: v + atom}), v)
            want = [complex(c) for c in poly.all_coeffs()]
            got = green_quartic_coeffs(complex(zval), float(qval))
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_invalid(self):
        with pytest.raises(ValidationError, match="^Q must be positive, got 0.0$"):
            green_quartic_coeffs(1.0, 0.0)
        # extreme Q: (Q - 1)^2 and Q^2 overflow
        with pytest.raises(ValidationError,
                           match=r"^quartic coefficients are not finite at Q = 1e\+300$"):
            green_quartic_coeffs(1.0 - 1e-3j, 1e300)
        # Q^2 z^2 flushed to 0: v^2 (v + 1)^2, the quartic at z = 0, finite
        np.testing.assert_array_equal(green_quartic_coeffs(1.0 - 1e-3j, 1e-300), [1, 2, 1, 0, 0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("Q", [0.25, 1.0, 4.0])
    def test_zero_z(self, Q):
        # at z = 0 only the z-free terms remain: (v + d)^2 (v + a)^2 with
        # a + d = |1 - Q|, so v^2 (v + |1 - Q|)^2
        s = abs(1.0 - Q)
        want = [1.0, 2.0 * s, s * s, 0.0, 0.0]
        np.testing.assert_array_equal(green_quartic_coeffs(0.0, Q), want)
        # |z|^2 below the smallest double flushes to the same row
        got = green_quartic_coeffs(np.array([1.0, -1e-300j]), Q)
        np.testing.assert_array_equal(got[1], want)

    def test_array_matches_scalar_calls(self):
        z = np.linspace(-3.0, 3.0, 601) - 1j * 1e-3
        for Q in (0.5, 1.0, 10.0):
            got = green_quartic_coeffs(z, Q)
            assert got.shape == (601, 5)
            want = np.stack([green_quartic_coeffs(v, Q) for v in z])
            np.testing.assert_array_equal(got, want)

    def test_array_containing_zero(self):
        got = green_quartic_coeffs(np.array([1.0 - 1e-3j, 0.0, 2.0]), 0.5)
        want = np.stack([green_quartic_coeffs(v, 0.5) for v in (1.0 - 1e-3j, 0.0, 2.0)])
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got[1], [1.0, 1.0, 0.25, 0.0, 0.0])


class TestSolveQuartic:
    """Single quartics solved by ``quartic_roots_batch``, a batch of one row."""

    def test_constructed_factorization(self):
        roots = theory.quartic_roots_batch([[1, -10, 35, -50, 24]])[0]
        np.testing.assert_allclose(roots, [1, 2, 3, 4], atol=1e-9)

    def test_roots_of_unity(self):
        roots = theory.quartic_roots_batch([[1, 0, 0, 0, -1]])[0]
        want = np.array([-1, 0 - 1j, 0 + 1j, 1])
        assert greedy_pairing_residual(roots, want) < 1e-10

    def test_vieta_random(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            c = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            roots = theory.quartic_roots_batch(c[None, :])[0]
            np.testing.assert_allclose(roots.sum(), -c[1] / c[0], atol=1e-8, rtol=1e-8)
            np.testing.assert_allclose(np.prod(roots), c[4] / c[0], atol=1e-8, rtol=1e-8)

    def test_sorted_output(self):
        roots = theory.quartic_roots_batch([[1, -10, 35, -50, 24]])[0]
        assert list(roots.real) == sorted(roots.real)

    def test_degenerate_leading(self):
        with pytest.raises(ValidationError, match="^leading coefficient of row 1 is zero$"):
            theory.quartic_roots_batch([[1, 0, 0, 0, -1], [0, 1, 2, 3, 4]])


class TestGreenFunction:
    @pytest.mark.parametrize("Q", [0.5, 1.0, 10.0])
    def test_asymptotic_decay(self, Q):
        z = np.array([1000.0 - 0.001j])
        g = green_function(z, Q)
        assert abs(z * g - 1.0)[0] < 1e-2

    def test_asymptote_is_approximate_root(self):
        # substituting w = zG = 1 (v = 1 at Q >= 1) into the quartic cancels all
        # O(z^2) terms
        z, Q = 1000.0 - 0.001j, 10.0
        c = green_quartic_coeffs(z, Q)
        val = np.polyval(c, 1.0)
        assert abs(val) / np.linalg.norm(c) < 1e-4  # O(z^-2)

    def test_positive_density_inside_support(self):
        g = green_function(np.array([0.1, 0.5, 1.0, 1.9]) - 1e-3j, 1.0)
        assert (g.imag > 0).all()

    def test_requires_lower_half_plane(self):
        with pytest.raises(ValidationError):
            green_function(np.array([1.0 + 0.001j]), 1.0)

    def test_residual_of_returned_root(self):
        # at v = zG - (1-Q)_+ for the G returned, atom included
        z = np.array([0.3, 1.5, 5.0]) - 1e-3j
        for Q in (0.5, 1.0, 10.0):
            c = green_quartic_coeffs(z, Q)
            v = z * green_function(z, Q) - max(0.0, 1.0 - Q)
            for ci, vi in zip(c, v):
                assert abs(np.polyval(ci, vi)) / np.linalg.norm(ci) <= 1e-9

    def test_gate_checks_only_the_returned_root(self):
        # at Q = 1e4 near the origin the discarded roots with |w| ~ Q carry
        # residuals above the tolerance; the returned root is at rounding level
        z, Q = np.array([-1e-3j]), 1e4
        c = green_quartic_coeffs(z, Q)
        w = theory.quartic_roots_batch(c)[0]
        res = np.abs(np.polyval(c[0], w)) / np.linalg.norm(c)
        assert res.max() > 1e-9
        g = green_function(z, Q)
        assert abs(np.polyval(c[0], (z * g)[0])) / np.linalg.norm(c) <= 1e-15

    def test_branch_collision_is_refused(self):
        # at the Q = 1 support edge x = 2 the physical root and its partner
        # collide as eps -> 0; with eps = 1e-14 and a step of 1e-13 both stay
        # within the ambiguity tolerance of the previous pick, and a sweep
        # through the edge refuses to choose
        x = 2.0 + np.arange(10, -11, -1) * 1e-13
        with pytest.raises(BranchAmbiguity) as got:
            theory._track(x - 1e-14j, 1.0)
        assert abs(got.value.x - 2.0) < 1e-11


def _outcome(fn):
    """("ok", what ``fn`` returns), or the type and message of the error it raises."""
    try:
        return "ok", fn()
    except RmtError as exc:
        return type(exc), str(exc)


def _gate(outcome):
    """The error type of a refusal and its message's first two words, which
    name the gate ("non-finite root", "relative residual", "Im G", "ambiguous
    physical")."""
    return outcome[0], " ".join(outcome[1].split()[:2])


def _assert_same_outcome(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "ok":  # bit for bit, signed zeros included
        assert np.asarray(got[1]).tobytes() == np.asarray(want[1]).tobytes()
    else:
        assert got[1] == want[1]


def _same_sweep(z, Q):
    """``theory._track`` and the point-by-point ``reference_track`` give the
    same picks, or the same error at the same x."""
    _assert_same_outcome(_outcome(lambda: theory._track(z, Q)),
                         _outcome(lambda: reference_track(z, Q)))


@st.composite
def _sweeps(draw):
    """Monotone sweeps, either way: evenly spaced ones over a random window (on
    one side of 0 or across it) and scattered ones of a few points."""
    if draw(st.booleans()):
        lo = draw(st.floats(-4.0, 4.0))
        span = draw(st.floats(1e-3, 8.0))
        xs = np.linspace(lo, lo + span, draw(st.integers(2, 400)))
    else:
        xs = np.sort(draw(st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=40, unique=True)))
    return xs[::-1] if draw(st.booleans()) else xs


_Q = st.floats(1e-3, 20.0)
_EPS = st.floats(1e-5, 1e-2)


class TestGreenFunctionBatch:
    """``green_function`` over an array solves each point on its own."""

    @given(Q=_Q, eps=_EPS,
           xs=st.lists(st.floats(-70.0, 70.0), min_size=1, max_size=30))
    @example(Q=1.0, eps=1e-320, xs=[0.0, 1.0])  # both points refused
    @settings(max_examples=150, deadline=None)
    def test_rows_match_one_point_calls(self, Q, eps, xs):
        z = np.array(xs) - 1j * eps
        singles = [_outcome(lambda v=v: green_function(np.array([v]), Q)) for v in z]
        got = _outcome(lambda: green_function(z, Q))
        if all(status == "ok" for status, _ in singles):
            _assert_same_outcome(got, ("ok", np.concatenate([g for _, g in singles])))
        else:  # one failing point refuses the call, with a gate one of them failed
            assert got[0] != "ok"
            assert _gate(got) in {_gate(o) for o in singles if o[0] != "ok"}

    @pytest.mark.parametrize("x", [1e-320, 5e-324])
    def test_overflowing_root_is_a_numerical_error(self, x):
        # w/z overflows when |z| is near the smallest double
        with pytest.raises(NumericalError, match=f"^non-finite root at x = {x}$"):
            green_function(np.array([complex(x, -x)]), 1.0)

    def test_one_point_in_one_out(self):
        assert green_function(np.array([1.0 - 1e-3j]), 2.0).shape == (1,)

    @pytest.mark.parametrize("z", [[1.0 - 1e-3j, 2.0 + 0j], [1.0 - 1e-3j, 2.0 + 1e-3j],
                                   [complex(1.0, np.nan)], [-1e-3j, 1.0 - 0j]])
    def test_refuses_any_point_off_the_lower_half_plane(self, z):
        with pytest.raises(ValidationError, match="Im z < 0"):
            green_function(np.array(z), 2.0)

    @pytest.mark.parametrize("z", [np.full((2, 2), 1.0 - 1e-3j), np.full((1, 1), 1.0 - 1e-3j),
                                   np.array([], dtype=complex), 1.0 - 1e-3j,
                                   np.complex128(1.0 - 1e-3j), np.array(1.0 - 1e-3j)])
    def test_refuses_other_shapes(self, z):
        with pytest.raises(ValidationError, match="^green_function takes a non-empty 1-D z$"):
            green_function(z, 2.0)


class TestVectorizedTracker:
    """_track and green_scan against the per-point loop, bit for bit: same
    picks, same errors at the same x."""

    @given(Q=_Q, eps=_EPS, xs=_sweeps())
    @example(Q=2.0, eps=1e-3, xs=np.linspace(3.0, -3.0, 601))  # through 0, from outside in
    @example(Q=0.25, eps=1e-4, xs=np.linspace(0.01, 4.0, 400))  # outward from near 0
    @example(Q=0.5, eps=1e-3, xs=np.linspace(-4.0, -0.5, 300))  # left side, inward
    @example(Q=1e-3, eps=1e-5, xs=np.array([-0.01, 0.2, 0.3]))
    @settings(max_examples=150, deadline=None)
    def test_track_matches_reference(self, Q, eps, xs):
        _same_sweep(xs - 1j * eps, Q)

    @pytest.mark.parametrize("Q", [1e-3, 0.25, 1.0, 10.0])
    def test_default_grid_matches_reference(self, Q):
        with mock.patch.object(theory, "_track", reference_track):
            want = _outcome(lambda: green_scan(Q, 1e-4)[1])
        _assert_same_outcome(_outcome(lambda: green_scan(Q, 1e-4)[1]), want)

    @given(rows=st.lists(st.lists(st.builds(complex, st.integers(0, 3), st.integers(0, 2)),
                                  min_size=4, max_size=4), min_size=1, max_size=40),
           scale=st.sampled_from([1e-7, 4e-7, 1.0]))
    @settings(max_examples=300, deadline=None)
    def test_tracking_rule_on_lattice_roots(self, rows, scale):
        # roots on a small lattice give exact distance ties (first index wins)
        # and, at scales below the 1e-6 tolerance, ambiguous steps everywhere
        roots = np.array(rows) * scale
        z = np.ones(len(rows), dtype=complex)  # G = w/z = w exactly; the seed 1/z is 1
        # the fake roots are no roots of the quartic: the residual gate is opened
        with mock.patch.object(theory, "quartic_roots_batch", lambda c: roots.copy()), \
                mock.patch.object(theory, "_RESIDUAL_TOL", np.inf):
            _same_sweep(z, 1.0)

    def test_seed_is_no_previous_pick(self):
        # two roots within the tolerance of the seed 1/z and of each other: the
        # first pick of a sweep and every green_function pick take the nearer
        z = np.array([1.0 - 1e-20j])
        roots = np.array([[1.0, 1.0 + 1e-8, 5.0, 6.0]], dtype=complex)
        with mock.patch.object(theory, "quartic_roots_batch", lambda c: roots.copy()), \
                mock.patch.object(theory, "_RESIDUAL_TOL", np.inf):
            assert theory._track(z, 1.0)[0] == green_function(z, 1.0)[0] == roots[0, 0] / z[0]
            _same_sweep(z, 1.0)

    @given(eps=st.floats(1e-16, 1e-12), center=st.sampled_from([0.0, 2.0]),
           offset=st.floats(-1e-11, 1e-11), step=st.floats(1e-15, 1e-11),
           n=st.integers(2, 60), descending=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_near_root_collisions_match_reference(self, eps, center, offset, step, n,
                                                  descending):
        # at Q = 1 roots meet at x = 0 and x = 2; with eps this small, sweeps
        # that fine put several roots within the ambiguity tolerance
        xs = center + offset + step * np.arange(n)
        assume(np.all(np.diff(xs) > 0))
        _same_sweep((xs[::-1] if descending else xs) - 1j * eps, 1.0)

    @given(lo=st.floats(0.0, 1.9), hi=st.floats(2.1, 4.0), outer=st.integers(2, 200),
           descending=st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_ambiguity_mid_sweep_at_the_same_x(self, lo, hi, outer, descending):
        # at the Q = 1 edge x = 2 two roots meet; with eps = 1e-14 and a step
        # of 1e-13 there, both continue within 1e-6 of the previous pick
        xs = np.concatenate([np.linspace(lo, 2.0 - 1e-11, outer),
                             2.0 + np.arange(-10, 11) * 1e-13,
                             np.linspace(2.0 + 1e-11, hi, outer)])
        xs = xs[::-1] if descending else xs
        with pytest.raises(BranchAmbiguity) as got:
            theory._track(xs - 1e-14j, 1.0)
        with pytest.raises(BranchAmbiguity) as want:
            reference_track(xs - 1e-14j, 1.0)
        assert got.value.x == want.value.x
        assert abs(got.value.x - 2.0) < 1e-11  # neither end of the sweep


def _agrees_with_g_units(z, Q, im_gc_may_refuse=False):
    """``theory._track`` (the quartic in v, ambiguity judged in v and in G) against
    ``g_unit_curve`` (the quartic in w, ambiguity in G alone, then the w-form
    curve's continuous-part gate): where the G-unit rule writes G, the v rule
    writes ``Gc = G - (1-Q)_+/z`` on the same branch, within the w-quartic's
    resolution of G (``4 u kappa``, kappa the relative condition number of w in
    that quartic, as for the 60-digit roots below). Where the v rule refuses, the
    G-unit rule refuses too, except, with ``im_gc_may_refuse``, by the v rule's
    ``Im Gc >= -1e-9`` gate: a drawn sweep that crosses the origin in one step
    can turn onto the other root of the pair next to ``w = 1 - Q``, which is the
    nearer one exactly in v, where the w-quartic's 1e-8 rounding of that pair
    kept the branch. Returns both outcomes."""
    new, old = _outcome(lambda: theory._track(z, Q)), _outcome(lambda: g_unit_curve(z, Q))
    if old[0] == "ok" and new[0] == "ok":
        G, want = new[1] + max(0.0, 1.0 - Q) / z, old[1]
        kappa = _kappa(green_quartic_coeffs_w(z, Q), z * want)
        err = np.abs(G - want) / np.abs(want)
        assert np.all(err <= np.maximum(1e-12, 4 * _U * kappa)), (err.max(), z[np.argmax(err)])
    elif old[0] == "ok":
        assert im_gc_may_refuse and _gate(new) == (NumericalError, "Im G"), (new, old)
    return new, old


class TestVRuleAgainstGUnits:
    """The branch is judged in v = zG - (1-Q)_+ alone: seed nearest v = min(Q, 1),
    continuity by |v - v_prev|, residual at the picked v, and two roots alike only
    within 1e-6 in both G and v. Against the tracker that solved the quartic in
    w = zG and judged in G units, it writes the same G to that quartic's
    resolution. On the default grids it refuses a subset of what that one and the
    w-form curve's continuous-part gate refused; drawn sweeps may also be refused
    by the continuous part's own gate (``_agrees_with_g_units``)."""

    @given(log_q=st.floats(-3.0, 8.0), log_eps=st.floats(-5.0, 1.0))
    @example(log_q=-3.0, log_eps=1.0)  # refused in G units at x = 2347.77, written in v
    @example(log_q=-3.0, log_eps=-4.0)  # refused in G units at x = 0.0143, written in v
    @settings(max_examples=60, deadline=None)
    def test_default_grid_sweeps(self, log_q, log_eps):
        Q, eps = 10.0**log_q, 10.0**log_eps
        grid = _outcome(lambda: theory._default_grid(Q, eps))
        assume(grid[0] == "ok")
        _agrees_with_g_units(grid[1][::-1] - 1j * eps, Q)

    @given(Q=st.floats(1e-3, 1e3), eps=st.floats(1e-5, 10.0), xs=_sweeps(),
           stretch=st.sampled_from([1.0, 100.0, 1e3]))
    # one step from x = -1 to 2 lands on the wrong branch: Im G = 0.156 there,
    # but Im Gc = -0.019, and the physical w is the other root near 0.88; the
    # w-form curve's gate refused it too (continuous density -6.0e-3)
    @example(Q=0.125, eps=1.0, xs=np.array([-1.0, 2.0]), stretch=1.0)
    # the one step across the origin: the pair next to w = 1 - Q is +-1e-6 i z
    # in v, and the other root of it is the nearer (3.1e-8 against 3.8e-8);
    # the w-quartic's 1e-8 rounding happened to keep the branch, so only the
    # v rule refuses (Im Gc = -Q^2/(1-Q))
    @example(Q=0.001, eps=0.015625, xs=np.linspace(-1.0, 1.0, 54), stretch=1.0)
    @settings(max_examples=100, deadline=None)
    def test_drawn_sweeps(self, Q, eps, xs, stretch):
        _agrees_with_g_units(stretch * xs - 1j * eps, Q, im_gc_may_refuse=True)

    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 3e-4, 1e-4])
    def test_edge_search_keeps_every_g_unit_grid(self, eps):
        # below Q = 0.1 the edge candidates lie inside the support, where the
        # root nearest w = 1 is not always the physical one: at Q = 0.01445,
        # x = 74.303 its Im Gc is -2.5e-9 at eps = 1e-4, its Im G 1.8e-8. The
        # search reads Im G under the G-unit gate, so it keeps every grid the
        # G-unit search chose, byte for byte
        for Q in np.geomspace(1e-3, 0.1, 241):
            want = _outcome(lambda: loop_default_grid(float(Q), eps, green=g_unit_track))
            if want[0] == "ok":
                assert theory._default_grid(float(Q), eps).tobytes() == want[1].tobytes(), Q

    @pytest.mark.parametrize("eps, x", [
        # |z| > 1: the two roots next to w = 1 are 2.2e-3 apart in w, 9.4e-7 in G
        (10.0, "2347.7655944002977"),
        # |z| < 1: the two roots next to w = 1 - Q are 2Q^2/(1-Q) = 2e-6 apart
        # in G, which the w-quartic resolves only to about 1e-8 in w; v = 0 is
        # their centre, and the v-quartic resolves them to full precision
        (1e-3, "0.01675"),
        (1e-4, "0.014305413981742936"),
    ])
    def test_q_1e_3(self, eps, x):
        half = theory._default_grid(1e-3, eps)
        new, old = _agrees_with_g_units(half[::-1] - 1j * eps, 1e-3)
        assert old == (BranchAmbiguity, f"ambiguous physical branch at x={x} (two roots within "
                                        f"1e-06 of the previous value)")
        assert new[0] == "ok"


class TestMirrorAndBatchedEdgeSearch:
    """green_scan tracks the non-negative half of the default grid and mirrors
    the negative half; _default_grid solves every edge candidate in one
    green_function call. Both against the paths they replace (tests/oracles.py):
    the two sweeps meeting at the origin and the candidate-by-candidate loop."""

    @pytest.mark.parametrize("eps", ["1e-2", "1e-3", "3e-4", "1e-4"])
    @pytest.mark.parametrize("Q", ["0.1", "0.25", "0.5", "0.75", "1", "1.5", "2", "4", "10",
                                   "100"])
    def test_same_grid_and_curve_bytes_as_the_old_paths(self, Q, eps, tmp_path):
        half = loop_default_grid(float(Q), float(eps))
        xs = green_scan(float(Q), float(eps))[0]
        assert xs.tobytes() == np.concatenate([-half[:0:-1], half]).tobytes()
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        argv = ["theory", "lagged", "--q", Q, "--epsilon", eps, "-o"]
        assert run_cli(argv + [str(new)]) == 0
        with mock.patch.object(theory, "green_scan", two_sweep_scan):
            assert run_cli(argv + [str(old)]) == 0
        assert new.read_bytes() == old.read_bytes()

    @given(log_q=st.floats(-3.0, 8.0), log_eps=st.floats(-6.0, 0.0))
    @example(log_q=-150.0, log_eps=-3.0)  # one candidate, at or past 64, whose solve fails
    @settings(max_examples=100, deadline=None)
    def test_default_grid_matches_the_loop(self, log_q, log_eps):
        Q, eps = 10.0**log_q, 10.0**log_eps
        _assert_same_outcome(_outcome(lambda: theory._default_grid(Q, eps)),
                             _outcome(lambda: loop_default_grid(Q, eps)))

    def test_theory_lagged_solves_each_quartic_once(self, tmp_path, monkeypatch):
        # one quartic row per point of the non-negative half grid and one per
        # edge candidate, the candidates in one green_function call: a second
        # sweep over the negative half, or a call per candidate, fails this
        Q, eps = 2.0, 1e-3  # the CLI's default epsilon
        half = theory._default_grid(Q, eps).size
        candidates = [2.2 * math.sqrt(2.0 / Q) + 1.2]
        while candidates[-1] < 64.0:
            candidates.append(candidates[-1] * 1.4)
        rows, calls = [], []
        solve, green = theory.quartic_roots_batch, theory.green_function
        monkeypatch.setattr(theory, "quartic_roots_batch",
                            lambda c: rows.append(len(c)) or solve(c))
        monkeypatch.setattr(theory, "green_function",
                            lambda *a, **k: calls.append(a) or green(*a, **k))
        assert run_cli(["theory", "lagged", "--q", "2", "-o", str(tmp_path / "rho.csv")]) == 0
        assert len(calls) == 1
        assert rows == [len(candidates), half]


def _branch_points(Q):
    """Positive real z where two roots of the quartic meet (the support edges
    among them): the zeros of its discriminant, from the quartic in G."""
    sympy = pytest.importorskip("sympy")
    G, z = sympy.symbols("G z")
    P = sum(c * G ** (4 - k) for k, c in enumerate(green_quartic_terms(z, sympy.nsimplify(Q))))
    disc = sympy.Poly(sympy.discriminant(sympy.Poly(P, G)), z)
    zs = np.roots([float(c) for c in disc.all_coeffs()])
    return sorted(float(t.real) for t in zs if abs(t.imag) < 1e-9 and t.real > 1e-6)


class TestMpmathOracle:
    """The branch green_scan tracks, against 60-digit roots of the quartic in G,
    near the origin, at the branch points and at the grid end: ``_track``
    sweeps the non-negative half of the default grid with those points added,
    from its outer end inward, as green_scan does, and its ``Gc`` is the root
    less the atom's ``(1-Q)_+/z``, taken at 60 digits too."""

    @pytest.mark.parametrize("Q, eps", [(0.25, 1e-4), (0.5, 1e-4), (4.0, 1e-4), (1e-3, 1e-4),
                                        (0.01, 1e-9), (0.1, 1e-9)])
    def test_green_scan_matches_60_digit_roots(self, Q, eps):
        mpmath = pytest.importorskip("mpmath")
        from rmtspec.theory import _default_grid

        base = _default_grid(Q, eps)
        # for Q <= 0.01 the support edge lies past the grid's end (1014 at Q = 1e-3)
        pts = [0.0, 5e-5, 2 * eps, float(base[-1])] + [b for b in _branch_points(Q)
                                                      if b < base[-1]]
        xs = np.union1d(base, pts)
        Gc = theory._track(xs[::-1] - 1j * eps, Q)[::-1]
        # next to the origin the two roots of the quartic in G that carry the
        # atom's pole are 2Q^2/(1 - Q) apart at |G| ~ (1 - Q)/eps, 2e-13 relative
        # at Q = 0.01, eps = 1e-9: each is then good to 1e-(dps)/2e-13 relative
        # to G, and 60 digits leave Gc exact to far below double rounding
        with mpmath.workdps(60):
            # the atom 1 - Q of the double Q, not its rounding: v/z is the
            # continuous part of the law at Q, whatever the double 1 - Q
            atom = max(mpmath.mpf(0), 1 - mpmath.mpf(Q))
            for x in pts:
                k = int(np.searchsorted(xs, x))
                z = complex(x, -eps)
                zm = mpmath.mpc(x, -eps)
                c = green_quartic_terms(zm, mpmath.mpf(Q))
                roots = mpmath.polyroots(c, maxsteps=200, extraprec=100)
                g = min((t - atom / zm for t in roots), key=lambda t: abs(t - Gc[k]))
                err = float(abs(g - Gc[k]) / abs(g))
                # the root's relative condition number in the v-quartic: next to
                # the origin for Q < 1, v is the pair +-i Q^2 z/(1 - Q), 2|v| apart
                kappa = _kappa(green_quartic_coeffs(z, Q), z * Gc[k])
                assert err <= max(1e-12, 4 * _U * kappa), (x, err, _U * kappa)
                assert g.imag >= 0, (x, g)


class TestUnsquaredEquation:
    """The lagged law is Marcenko-Pastur with an arcsine time-side law, and its
    equation before squaring, ``(v + d) sqrt(1 - G/Q) sqrt(1 + G/Q) = Q``
    (``oracles.unsquared_lhs``), audits the root that the tracker picks."""

    def test_squared_is_the_w_quartic(self):
        sympy = pytest.importorskip("sympy")
        w, z, Q = sympy.symbols("w z Q")
        G = w / z
        lhs = (1 - Q - w) * sympy.sqrt(1 - G / Q) * sympy.sqrt(1 + G / Q)  # = -Q
        quartic = (w - 1 + Q)**2 * (w**2 - Q**2 * z**2) + Q**4 * z**2
        assert sympy.expand(Q**2 * z**2 * (Q**2 - lhs**2) - quartic) == 0

    # the benchmark's 18 sweep grids, then four Q on either side of them
    @pytest.mark.parametrize("eps", [1e-3, 3e-4, 1e-4])
    @pytest.mark.parametrize("Q", [0.25, 0.5, 1.0, 2.0, 4.0, 10.0, 0.01, 0.9, 1.1, 100.0])
    def test_every_scanned_root_solves_it(self, Q, eps):
        # at most 9.1 eps over these grids, at Q = 0.01; every root squaring
        # brought in solves it with -Q, so that sign misses by 2
        xs, Gc = green_scan(Q, eps)
        z = xs - 1j * eps
        err = np.abs(unsquared_lhs(z * Gc, z, Q) - 1.0).max()
        assert err <= 16 * np.finfo(float).eps

    # the benchmark's 18 sweep grids
    @pytest.mark.parametrize("eps", [1e-3, 3e-4, 1e-4])
    @pytest.mark.parametrize("Q", [0.25, 0.5, 1.0, 2.0, 4.0, 10.0])
    def test_a_unique_solution_is_the_trackers_pick(self, Q, eps):
        # a root counts when it solves the equation to 16 eps, the bound every
        # tracked root is held to above, and has Im Gc >= -1e-9. Measured on
        # these grids: the pick solves it to at most 3.6 eps, and every other
        # root with Im Gc >= -1e-9 misses by 2, so the bound sits far from
        # both. For Q < 1 the Im gate alone leaves one root; for Q >= 1 it
        # leaves up to three and the equation tells them apart, but for two
        # roots at x = 0 of the Q = 1, eps = 1e-3 grid, the pick one of them
        half = theory._default_grid(Q, eps)
        z = half[::-1] - 1j * eps  # the sweep _track walks, outer end first
        Gc = theory._track(z, Q)
        v = theory.quartic_roots_batch(green_quartic_coeffs(z, Q))
        roots = v / z[:, None]  # each root's Gc, divided as _track divides it
        err = np.abs(unsquared_lhs(v, z[:, None], Q) - 1.0)
        solves = (err <= 16 * np.finfo(float).eps) & (roots.imag >= -1e-9)
        count = solves.sum(axis=1)
        one = count == 1
        np.testing.assert_array_equal(roots[one][solves[one]], Gc[one])
        two = np.flatnonzero(count == 2)
        assert count.min() == 1 and count.max() <= 2
        assert len(two) <= (1 if Q == 1.0 else 0), half[::-1][two]
        assert all(Gc[i] in roots[i][solves[i]] for i in two)


def _poisson_smoothed_rho0(x, Q, eps, mpmath):
    """``(P_eps * rho0)(x)``, the integral of ``rho0(t) eps / (pi ((x-t)^2 + eps^2))``
    over the support [-x+, x+], folded onto t > 0 (rho0 is even), by mpmath's
    Gauss-Legendre quadrature. The pieces end at 0, at ``eps 2^k`` from 0 and from
    x, so that each kernel peak spans a few, and at x+, where ``t = x+ - s^2``
    takes the square-root edge. (Tanh-sinh samples the ends down to 1e-300, where
    ``rho0``'s double-precision quartic has underflowed to no complex pair.)"""
    xp = lagged_edge(Q)

    def integrand(t):
        t = float(t)
        return rho0(t, Q) * eps / math.pi * (1.0 / ((x - t) ** 2 + eps**2)
                                             + 1.0 / ((x + t) ** 2 + eps**2))

    steps = eps * 2.0 ** np.arange(12)
    cuts = np.unique(np.concatenate([[0.0, x], steps, x - steps, x + steps]))
    cuts = [float(c) for c in cuts[(cuts >= 0.0) & (cuts < xp)]]
    body = mpmath.quad(integrand, cuts, method="gauss-legendre")
    edge = mpmath.quad(lambda s: 2.0 * float(s) * integrand(xp - float(s) ** 2),
                       [0.0, math.sqrt(xp - cuts[-1])], method="gauss-legendre")
    return float(body + edge)


# Q where the discriminant cubic has one positive root (up to 1/2), two (1/2 to
# 1), a double one (1) and the three roots of Q > 1
_EPS_ZERO_Q = [1e-3, 0.01, 0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 2.0, 10.0, 1e3]


class TestLawAtEpsZero:
    """The law at eps = 0 with no branch tracker: the support edge x+ from the
    discriminant cubic (``oracles.lagged_edge``) and the density from the complex
    pair of the quartic in v on the real axis (``oracles.rho0``)."""

    @pytest.mark.parametrize("Q, x_plus", [(1e-3, "1014.08"), (0.25, "5.7627"),
                                            (0.5, "3.3302"), (1.0, "2.0000"),
                                            (2.0, "1.2491"), (4.0, "0.8089"),
                                            (10.0, "0.4766")])
    def test_edge(self, Q, x_plus):
        digits = len(x_plus.partition(".")[2])
        assert lagged_edge(Q) == pytest.approx(float(x_plus), abs=0.5 * 10.0**-digits)

    @pytest.mark.parametrize("Q", _EPS_ZERO_Q)
    def test_mass(self, Q):
        # x = s^2 next to the origin and x = x+ - s^2 next to the edge smooth
        # the square-root ends (and the pole at the origin at Q = 1)
        xp = lagged_edge(Q)
        half = math.sqrt(xp / 2)
        mass = sum(quad(lambda s: 2 * s * rho0(x(s), Q), 0.0, half,
                        epsabs=1e-12, epsrel=1e-12, limit=200)[0]
                   for x in (lambda s: s * s, lambda s: xp - s * s))
        assert 2 * mass == pytest.approx(1.0 - max(0.0, 1.0 - Q), abs=1e-8)

    @pytest.mark.parametrize("Q", [q for q in _EPS_ZERO_Q if q < 1])
    def test_density_at_the_origin(self, Q):
        assert rho0(1e-6, Q) == pytest.approx(Q**2 / (math.pi * (1 - Q)), rel=1e-6)

    @pytest.mark.parametrize("Q", [0.5, 2.0])
    def test_green_scan_is_the_poisson_smoothing(self, Q):
        # Im(v/z)(x - i eps) / pi, the continuous part as green_scan returns it,
        # is rho0 smoothed by the Poisson kernel P_eps(s) = eps / (pi (s^2 + eps^2)):
        # at the origin, next to it, mid-support, next to x+ and in the tail.
        # Measured: at most 4.4e-15 relative, next to x+
        mpmath = pytest.importorskip("mpmath")
        eps = 1e-2
        xs, Gc = green_scan(Q, eps)
        xp = lagged_edge(Q)
        for target in (0.0, 2 * eps, xp / 2, xp - 2 * eps, xp + 0.5):
            i = int(np.argmin(np.abs(xs - target)))
            want = _poisson_smoothed_rho0(float(xs[i]), Q, eps, mpmath)
            assert Gc[i].imag / math.pi == pytest.approx(want, rel=1e-12, abs=0.0), xs[i]


# the theory-sweep grid of the pipeline benchmark
@pytest.mark.parametrize("eps", ["1e-3", "3e-4", "1e-4"])
@pytest.mark.parametrize("Q", ["0.25", "0.5", "1", "2", "4", "10"])
def test_theory_lagged_sweep(Q, eps, tmp_path):
    out = tmp_path / "rho.csv"
    assert run_cli(["theory", "lagged", "--q", Q, "--epsilon", eps, "-o", str(out)]) == 0
    assert read_density_csv(str(out))["rho_s"].total_mass() == pytest.approx(1.0, abs=0.02)


class TestLaggedDensity:
    @pytest.mark.parametrize("Q", [0.5, 1.0, 10.0])
    def test_normalization(self, Q):
        curve = lagged_density_symmetric(Q)
        assert curve.total_mass() == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("Q", [0.5, 10.0])
    def test_even_symmetry(self, Q):
        curve = lagged_density_symmetric(Q)
        sym_err = np.abs(curve.ys - curve.ys[::-1]).max()
        assert sym_err < 2e-3

    @pytest.mark.parametrize("Q, atom", [(0.5, 0.5), (1.0, 0.0), (10.0, 0.0)])
    def test_point_mass(self, Q, atom):
        assert lagged_density_symmetric(Q).point_mass_at_zero == atom

    def test_eps_sweep_stabilizes(self):
        # curves converge as eps shrinks: successive L1 distances decrease
        curves = {eps: lagged_density_symmetric(10.0, eps) for eps in (1e-2, 1e-3, 1e-4)}
        d_coarse = l1_distance(curves[1e-2], curves[1e-3])
        d_fine = l1_distance(curves[1e-3], curves[1e-4])
        assert d_fine < d_coarse

    @pytest.mark.parametrize("Q", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_invalid_q(self, Q):
        with pytest.raises(ValidationError, match=f"^Q must be positive and finite, got {Q}$"):
            green_scan(Q, 1e-3)

    @pytest.mark.parametrize("eps", [0.0, -1e-3, np.inf, np.nan, 5e-324, 1e-310])
    def test_rejects_invalid_epsilon(self, eps):
        with pytest.raises(ValidationError, match="epsilon"):
            lagged_density_symmetric(1.0, eps)

    def test_accepts_smallest_normal_epsilon(self):
        # the epsilon checks pass it; the sweep at that offset may still be
        # refused by a gate, a NumericalError
        outcome = _outcome(lambda: green_scan(1.0, 2.2250738585072014e-308))
        assert outcome[0] == "ok" or issubclass(outcome[0], NumericalError), outcome

    def test_large_q_semicircle_limit(self):
        # Q -> inf: density tends to a semicircle of radius sqrt(2/Q)
        Q = 200.0
        curve = lagged_density_symmetric(Q)
        R = np.sqrt(2.0 / Q)
        semi = np.where(np.abs(curve.xs) < R,
                        2.0 * np.sqrt(np.clip(R**2 - curve.xs**2, 0, None)) / (np.pi * R**2),
                        0.0)
        err = np.trapezoid(np.abs(curve.ys - semi), curve.xs)
        assert err < 0.05


# the theory-sweep grid of the pipeline benchmark, then Q = 0.9 (the largest
# continuous density at the origin) and Q = 0.1 out to wide epsilon
_NEAR_ORIGIN = [(Q, eps) for Q in (0.25, 0.5, 1.0, 2.0, 4.0, 10.0, 0.9)
                for eps in (1e-3, 3e-4, 1e-4)] + [(0.1, eps) for eps in (1e-3, 1.0, 10.0)]


class TestLawNearTheOrigin:
    """The lagged law next to z = 0 by properties that no tracking rule enters:
    for Q < 1 its continuous part is ``Q^2 / (pi (1 - Q))`` at the origin and is
    nowhere negative, and a simulated symmetrized spectrum holds that share of
    eigenvalues next to 0. The other root that carries the atom's pole gives
    ``-Q^2 / (pi (1 - Q))`` at the origin."""

    @pytest.mark.parametrize("Q", [0.25, 0.5, 0.9])
    def test_density_at_the_origin(self, Q):
        # G(-i eps) = (1 - Q)/z + G_0 + G_1 z + ..., so past the atom's image the
        # curve at 0 is rho_0(0) + O(eps); the O(eps) term is 70 eps rho_0(0)
        # at Q = 0.9 and below 2 eps rho_0(0) at Q = 0.25 and 0.5
        want = Q * Q / (math.pi * (1.0 - Q))
        for eps in (1e-3, 1e-4, 1e-5):
            got = float(lagged_density_symmetric(Q, eps)(0.0))
            assert abs(got - want) <= 100.0 * eps * want, (eps, got, want)

    @pytest.mark.parametrize("Q, eps", _NEAR_ORIGIN)
    def test_continuous_part_is_non_negative(self, Q, eps):
        # from green_scan's Gc, before lagged_density_symmetric's clip
        xs, Gc = green_scan(Q, eps)
        assert Gc.imag.min() >= 0.0, (xs[np.argmin(Gc.imag)], Gc.imag.min())

    @pytest.mark.parametrize("Q", [1e-3, 1e-2, 0.1, 0.25, 0.5, 0.9])
    def test_exact_at_the_origin_at_eps_1e_9(self, Q):
        # rho_0(0+) = Q^2 / (pi (1 - Q)); within 5 eps of 0 the smoothing moves
        # it by O(eps) relative, and the v-quartic's root there is exact to rounding
        eps = 1e-9
        curve = lagged_density_symmetric(Q, eps)
        near = np.abs(curve.xs) <= 5 * eps
        assert near.sum() == 41
        want = Q * Q / (math.pi * (1.0 - Q))
        np.testing.assert_allclose(curve.ys[near], want, rtol=1e-6, atol=0)

    def test_simulated_share_next_to_zero(self):
        # eigenvalues of S = (C_1 + C_1^T)/2 over 20 standardized 400 x 200 WGN
        # matrices (Q = 0.5): S has N - T + 1 = 201 zeros each, and 0.0159 of
        # all eigenvalues in 0 < |x| < 0.05. The law gives 0.0159 there; on the
        # other root, clamped to 0, it gives 0.0135, and the bound is below
        # half their difference
        N, T = 400, 200
        spectra = []
        for seed in range(450, 470):
            X = rmtspec.standardize_rows(
                DataMatrix(rmtspec.gen_wgn(seed=seed, length=N * T).reshape(N, T)))
            C = rmtspec.lagged_correlation(X, 1).entries
            spectra.append(np.linalg.eigvalsh(0.5 * (C + C.T)))
        s = np.concatenate(spectra)
        zero = np.abs(s) < 1e-10
        assert zero.sum() == 20 * (N - T + 1)
        share = np.count_nonzero(~zero & (np.abs(s) < 0.05)) / s.size
        curve = lagged_density_symmetric(T / N, 1e-3)
        law = float(curve.cdf(0.05) - curve.cdf(-0.05)) - curve.point_mass_at_zero
        assert abs(share - law) <= 1e-3, (share, law)


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
        curve = lagged_density_symmetric(10.0)
        proj = project_density(curve)
        assert proj.total_mass() == pytest.approx(curve.total_mass(), abs=1e-9)

    def test_rejects_unnormalized(self):
        xs = np.linspace(-1.0, 1.0, 101)
        with pytest.raises(ValidationError,
                           match="^input curve has mass 4.0000, more than 0.02 from 1$"):
            project_density(DensityCurve(xs, np.full_like(xs, 2.0)))
