import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rmtspec import theory
from rmtspec import (
    read_density_csv,
    DensityCurve,
    GreenSolveConfig,
    green_function,
    green_scan,
    green_quartic_coeffs,
    lagged_density_symmetric,
)
from rmtspec.cli import run_cli
from rmtspec.errors import BranchAmbiguity, NumericalError, RmtError, ValidationError

from oracles import (
    greedy_pairing_residual,
    green_quartic_terms,
    loop_default_grid,
    project_density,
    reference_track,
    two_sweep_scan,
)


class TestQuarticCoeffs:
    def test_q1_units(self):
        np.testing.assert_allclose(green_quartic_coeffs(1.0, 1.0), [1, 0, -1, 0, 1], atol=1e-15)
        np.testing.assert_allclose(green_quartic_coeffs(2.0, 1.0), [1, 0, -4, 0, 4], atol=1e-15)

    def test_symbolic_oracle(self):
        # the quartic in G is the source of truth; the package solves
        # z^2 P(w/z) in w = zG
        sympy = pytest.importorskip("sympy")
        G, w, z, Q = sympy.symbols("G w z Q")
        P = sum(c * G ** (4 - k) for k, c in enumerate(green_quartic_terms(z, Q)))
        poly = sympy.Poly(sympy.expand(z**2 * P.subs(G, w / z)), w)
        for zval, qval in [(3 - sympy.I / 1000, 10), (sympy.Rational(1, 20) - sympy.I / 10**4,
                                                      sympy.Rational(1, 4)), (0, 2)]:
            want = [complex(c.subs({z: zval, Q: qval})) for c in poly.all_coeffs()]
            got = green_quartic_coeffs(complex(zval), float(qval))
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_invalid(self):
        with pytest.raises(ValidationError, match="^Q must be positive, got 0.0$"):
            green_quartic_coeffs(1.0, 0.0)
        # extreme Q: overflowing coefficients, or 1/Q^3 flushed to 0
        with pytest.raises(ValidationError,
                           match="^quartic coefficients are not finite at Q = 1e-300$"):
            green_quartic_coeffs(1.0 - 1e-3j, 1e-300)
        with pytest.raises(ValidationError,
                           match=r"^leading coefficient 1/Q\^3 is zero at Q = 1e\+300$"):
            green_quartic_coeffs(1.0 - 1e-3j, 1e300)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("Q", [0.25, 1.0, 4.0])
    def test_zero_z(self, Q):
        # at z = 0 only the z-free terms remain: (w^2/Q) (w/Q - r)^2
        r = 1.0 / Q - 1.0
        want = [1.0 / Q**3, -2.0 * r / Q**2, r * r / Q, 0.0, 0.0]
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
        np.testing.assert_array_equal(got[1], [8.0, -8.0, 2.0, 0.0, 0.0])


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
        z = 1000.0 - 0.001j
        g = green_function(z, Q)
        assert abs(z * g - 1.0) < 1e-2

    def test_asymptote_is_approximate_root(self):
        # substituting w = zG = 1 into the quartic cancels all O(z^2) terms
        z, Q = 1000.0 - 0.001j, 10.0
        c = green_quartic_coeffs(z, Q)
        val = np.polyval(c, 1.0)
        assert abs(val) / np.linalg.norm(c) < 1e-4  # O(z^-2)

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
                assert abs(np.polyval(c, z * g)) / np.linalg.norm(c) <= 1e-9

    def test_gate_checks_only_the_returned_root(self):
        # at Q = 1e4 near the origin the discarded roots with |w| ~ Q carry
        # residuals above the tolerance; the returned root is at rounding level
        z, Q = -1e-3j, 1e4
        c = green_quartic_coeffs(z, Q)
        w = theory.quartic_roots_batch(c[None, :])[0]
        res = np.abs(np.polyval(c, w)) / np.linalg.norm(c)
        assert res.max() > 1e-9
        g = green_function(z, Q)
        assert abs(np.polyval(c, z * g)) / np.linalg.norm(c) <= 1e-15

    def test_branch_ambiguity_near_collision(self):
        # at the Q=1 support edge the physical root and its partner collide
        # as eps -> 0; with eps tiny their gap is far below the ambiguity
        # tolerance and a `previous` between them must refuse to choose
        z = 2.0 - 1e-14j
        roots = theory.quartic_roots_batch(green_quartic_coeffs(z, 1.0)[None, :])[0] / z
        d = np.sort(np.abs(roots[:, None] - roots[None, :]), axis=None)
        close_pair = d[4]  # smallest nonzero pairwise distance
        assert close_pair < 1e-6
        i, j = np.unravel_index(
            np.argmin(np.abs(roots[:, None] - roots[None, :]) + np.eye(4)), (4, 4)
        )
        midpoint = 0.5 * (roots[i] + roots[j])
        with pytest.raises(BranchAmbiguity):
            green_function(z, 1.0, previous=midpoint)


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


def _reference_scan(cfg):
    with mock.patch.object(theory, "_track", reference_track):
        return _outcome(lambda: green_scan(cfg)[1])


@st.composite
def _grids(draw):
    """Strictly increasing grids: evenly spaced ones over a random window (on
    one side of 0 or across it) and scattered ones of a few points."""
    if draw(st.booleans()):
        lo = draw(st.floats(-4.0, 4.0))
        span = draw(st.floats(1e-3, 8.0))
        return np.linspace(lo, lo + span, draw(st.integers(2, 400)))
    return np.sort(draw(st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=40, unique=True)))


_Q = st.floats(1e-3, 20.0)
_EPS = st.floats(1e-5, 1e-2)


class TestGreenFunctionBatch:
    """``green_function`` over an array solves each point on its own."""

    @given(Q=_Q, eps=_EPS,
           xs=st.lists(st.floats(-70.0, 70.0), min_size=1, max_size=30),
           previous=st.none() | st.complex_numbers(max_magnitude=50.0))
    @example(Q=1.0, eps=1e-320, xs=[0.0, 1.0], previous=None)  # both points refused
    @settings(max_examples=150, deadline=None)
    def test_rows_match_scalar_calls(self, Q, eps, xs, previous):
        z = np.array(xs) - 1j * eps
        singles = [_outcome(lambda v=v: green_function(v, Q, previous)) for v in z]
        got = _outcome(lambda: green_function(z, Q, previous))
        if all(status == "ok" for status, _ in singles):
            _assert_same_outcome(got, ("ok", np.array([g for _, g in singles])))
        else:  # one failing point refuses the call, with a gate one of them failed
            assert got[0] != "ok"
            assert _gate(got) in {_gate(o) for o in singles if o[0] != "ok"}

    @pytest.mark.parametrize("x", [1e-320, 5e-324])
    def test_overflowing_root_is_a_numerical_error(self, x):
        # w/z overflows when |z| is near the smallest double
        with pytest.raises(NumericalError, match=f"^non-finite root at x = {x}$"):
            green_function(complex(x, -x), 1.0)

    def test_scalar_in_complex_out(self):
        for z in (1.0 - 1e-3j, np.complex128(1.0 - 1e-3j), np.array(1.0 - 1e-3j)):
            assert type(green_function(z, 2.0)) is complex
        assert green_function(np.array([1.0 - 1e-3j]), 2.0).shape == (1,)

    @pytest.mark.parametrize("z", [[1.0 - 1e-3j, 2.0 + 0j], [1.0 - 1e-3j, 2.0 + 1e-3j],
                                   [complex(1.0, np.nan)], [-1e-3j, 1.0 - 0j]])
    def test_refuses_any_point_off_the_lower_half_plane(self, z):
        with pytest.raises(ValueError, match="Im z < 0"):
            green_function(np.array(z), 2.0)

    @pytest.mark.parametrize("z", [np.full((2, 2), 1.0 - 1e-3j), np.full((1, 1), 1.0 - 1e-3j),
                                   np.array([], dtype=complex)])
    def test_refuses_other_shapes(self, z):
        with pytest.raises(ValueError, match="1-D"):
            green_function(z, 2.0)


class TestVectorizedTracker:
    """green_scan and green_function against the per-point loop, bit for bit:
    same picks, same errors at the same x."""

    @given(Q=_Q, eps=_EPS, xs=_grids())
    @example(Q=2.0, eps=1e-3, xs=np.linspace(-3.0, 3.0, 601))  # straddles 0
    @example(Q=0.25, eps=1e-4, xs=np.linspace(0.01, 4.0, 400))  # one side
    @example(Q=0.5, eps=1e-3, xs=np.linspace(-4.0, -0.5, 300))  # one side, left
    @example(Q=1.0, eps=1e-3, xs=np.array([-1.0, 0.5]))  # sides interleaved in |x|
    @example(Q=1e-3, eps=1e-5, xs=np.array([-0.01, 0.2, 0.3]))  # xs[0] nearest 0
    @example(Q=2.0, eps=1e-3, xs=np.concatenate([[-0.01], np.linspace(0.1, 3.0, 300)]))
    @settings(max_examples=150, deadline=None)
    def test_green_scan_matches_reference(self, Q, eps, xs):
        cfg = GreenSolveConfig(Q=Q, epsilon=eps, grid=xs)
        _assert_same_outcome(_outcome(lambda: green_scan(cfg)[1]), _reference_scan(cfg))

    @pytest.mark.parametrize("Q", [1e-3, 0.25, 1.0, 10.0])
    def test_default_grid_matches_reference(self, Q):
        cfg = GreenSolveConfig(Q=Q, epsilon=1e-4)
        _assert_same_outcome(_outcome(lambda: green_scan(cfg)[1]), _reference_scan(cfg))

    @given(rows=st.lists(st.lists(st.builds(complex, st.integers(0, 3), st.integers(0, 2)),
                                  min_size=4, max_size=4), min_size=1, max_size=40),
           scale=st.sampled_from([1e-7, 4e-7, 1.0]),
           previous=st.none() | st.builds(complex, st.integers(0, 3), st.integers(0, 2)))
    @settings(max_examples=300, deadline=None)
    def test_tracking_rule_on_lattice_roots(self, rows, scale, previous):
        # roots on a small lattice give exact distance ties (first index wins)
        # and, at scales below the 1e-6 tolerance, ambiguous steps everywhere
        roots = np.array(rows) * scale
        z = np.ones(len(rows), dtype=complex)  # G = w/z = w exactly; the seed 1/z is 1
        seed = None if previous is None else previous * scale
        # the fake roots are no roots of the quartic: the residual gate is opened
        with mock.patch.object(theory, "quartic_roots_batch", lambda c: roots.copy()), \
                mock.patch.object(theory, "_RESIDUAL_TOL", np.inf):
            got = _outcome(lambda: theory._track(z, 1.0, seed))
            want = _outcome(lambda: reference_track(z, 1.0, seed))
        _assert_same_outcome(got, want)

    @given(eps=st.floats(1e-16, 1e-12), center=st.sampled_from([0.0, 2.0]),
           offset=st.floats(-1e-11, 1e-11), step=st.floats(1e-15, 1e-11),
           n=st.integers(2, 60))
    @settings(max_examples=150, deadline=None)
    def test_near_root_collisions_match_reference(self, eps, center, offset, step, n):
        # at Q = 1 roots meet at x = 0 and x = 2; with eps this small, grids
        # that fine put several roots within the ambiguity tolerance
        xs = center + offset + step * np.arange(n)
        assume(np.all(np.diff(xs) > 0))
        cfg = GreenSolveConfig(Q=1.0, epsilon=eps, grid=xs)
        _assert_same_outcome(_outcome(lambda: green_scan(cfg)[1]), _reference_scan(cfg))

    @given(Q=_Q, eps=_EPS, x=st.floats(-5.0, 5.0), dx=st.floats(-0.05, 0.05),
           kind=st.sampled_from(["nearby", "midpoint", "arbitrary"]),
           arbitrary=st.complex_numbers(max_magnitude=50.0))
    @example(Q=1.0, eps=1e-14, x=2.0, dx=0.0, kind="midpoint", arbitrary=0j)
    @settings(max_examples=150, deadline=None)
    def test_green_function_previous_matches_reference(self, Q, eps, x, dx, kind, arbitrary):
        z = complex(x, -eps)
        if kind == "nearby":  # the continuation seed a sweep would pass
            status, previous = _outcome(lambda: green_function(complex(x + dx, -eps), Q))
            if status != "ok":
                return
        elif kind == "midpoint":  # halfway between the two closest roots
            roots = theory.quartic_roots_batch(green_quartic_coeffs(np.array([z]), Q))[0] / z
            gap = np.abs(roots[:, None] - roots[None, :]) + np.diag(np.full(4, np.inf))
            i, j = np.unravel_index(np.argmin(gap), gap.shape)
            previous = complex(0.5 * (roots[i] + roots[j]))
        else:
            previous = arbitrary
        got = _outcome(lambda: green_function(z, Q, previous=previous))
        want = _outcome(lambda: complex(reference_track(np.array([z]), Q, previous)[0]))
        _assert_same_outcome(got, want)

    def test_ambiguity_mid_sweep_at_the_same_x(self):
        # at the Q = 1 edge x = 2 two roots meet; with eps = 1e-14 and a grid
        # step of 1e-13 there, both continue within 1e-6 of the previous pick
        grid = np.concatenate([np.linspace(-2.5, 2.0 - 1e-11, 400),
                               2.0 + np.arange(-10, 11) * 1e-13,
                               np.linspace(2.0 + 1e-11, 2.5, 40)])
        cfg = GreenSolveConfig(Q=1.0, epsilon=1e-14, grid=grid)
        with pytest.raises(BranchAmbiguity) as got:
            green_scan(cfg)
        with mock.patch.object(theory, "_track", reference_track), \
                pytest.raises(BranchAmbiguity) as want:
            green_scan(cfg)
        assert got.value.x == want.value.x
        assert grid[20] < got.value.x < grid[-20]  # neither end of the sweep


class TestFoldAndBatchedEdgeSearch:
    """green_scan tracks each |x| once and mirrors the negative half-axis;
    _default_grid solves every edge candidate in one green_function call. Both
    against the paths they replace (tests/oracles.py): the two sweeps meeting at
    the origin and the candidate-by-candidate loop. An error on a custom grid may
    name the |x| of a negative grid point."""

    @given(Q=_Q, eps=_EPS, pos=st.lists(st.floats(1e-3, 5.0), min_size=1, max_size=60,
                                        unique=True),
           extra=st.lists(st.floats(-5.0, 5.0), max_size=20, unique=True))
    @example(Q=2.0, eps=1e-3, pos=list(np.linspace(0.01, 3.0, 300)), extra=[0.0])
    @settings(max_examples=100, deadline=None)
    def test_mirror_on_grids_holding_both_signs(self, Q, eps, pos, extra):
        xs = np.union1d(np.union1d(pos, np.negative(pos)), extra)
        status, G = _outcome(lambda: green_scan(GreenSolveConfig(Q=Q, epsilon=eps, grid=xs))[1])
        assume(status == "ok")
        right, left = np.searchsorted(xs, pos), np.searchsorted(xs, np.negative(pos))
        assert G[left].tobytes() == (-np.conj(G[right])).tobytes()

    @pytest.mark.parametrize("eps", ["1e-2", "1e-3", "3e-4", "1e-4"])
    @pytest.mark.parametrize("Q", ["0.1", "0.25", "0.5", "0.75", "1", "1.5", "2", "4", "10",
                                   "100"])
    def test_same_grid_and_curve_bytes_as_the_old_paths(self, Q, eps, tmp_path):
        grid = theory._default_grid(float(Q), float(eps))
        assert grid.tobytes() == loop_default_grid(float(Q), float(eps)).tobytes()
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
        # one quartic row per distinct |x| of the grid and one per edge candidate,
        # the candidates in one green_function call: a second sweep over the
        # negative half, or a call per candidate, fails this
        Q, eps = 2.0, 1e-3  # the CLI's default epsilon
        distinct = np.unique(np.abs(theory._default_grid(Q, eps))).size
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
        assert rows == [len(candidates), distinct]


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
    """green_scan against 30-digit roots of the quartic in G, near the origin,
    at the branch points and at the grid ends."""

    @pytest.mark.parametrize("Q", [0.25, 0.5, 4.0])
    def test_green_scan_matches_30_digit_roots(self, Q):
        mpmath = pytest.importorskip("mpmath")
        from rmtspec.theory import _default_grid

        eps = 1e-4
        base = _default_grid(Q, eps)
        L = float(base[-1])
        edges = _branch_points(Q)
        pts = [0.0, 5e-5, -5e-5, L, -L] + edges + [-e for e in edges]
        xs, G = green_scan(GreenSolveConfig(Q=Q, epsilon=eps, grid=np.union1d(base, pts)))
        u = np.finfo(float).eps / 2
        with mpmath.workdps(30):
            for x in pts:
                k = int(np.searchsorted(xs, x))
                z = complex(x, -eps)
                c = green_quartic_terms(mpmath.mpc(x, -eps), mpmath.mpf(Q))
                roots = mpmath.polyroots(c, maxsteps=200, extraprec=100)
                g = min(roots, key=lambda t: abs(t - G[k]))
                err = float(abs(g - G[k]) / abs(g))
                # the root's relative condition number in the w-quartic: near
                # the origin for Q < 1 it sits next to its partner (w = 1 - Q
                # is a double root at z = 0) and double precision gives less
                cw = green_quartic_coeffs(z, Q)
                w = z * G[k]
                kappa = sum(abs(cw[j]) * abs(w) ** (4 - j) for j in range(5)) / (
                    abs(w) * abs(np.polyval(np.polyder(cw), w)))
                assert err <= max(1e-12, 4 * u * kappa), (x, err, u * kappa)
                assert g.imag >= 0, (x, g)


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
        curve = lagged_density_symmetric(GreenSolveConfig(Q=Q))
        assert curve.total_mass() == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("Q", [0.5, 10.0])
    def test_even_symmetry(self, Q):
        curve = lagged_density_symmetric(GreenSolveConfig(Q=Q))
        sym_err = np.abs(curve.ys - curve.ys[::-1]).max()
        assert sym_err < 2e-3

    @pytest.mark.parametrize("Q, atom", [(0.5, 0.5), (1.0, 0.0), (10.0, 0.0)])
    def test_point_mass(self, Q, atom):
        assert lagged_density_symmetric(GreenSolveConfig(Q=Q)).point_mass_at_zero == atom

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
        with pytest.raises(ValidationError, match=f"^Q must be positive and finite, got {Q}$"):
            GreenSolveConfig(Q=Q)

    @pytest.mark.parametrize("eps", [0.0, -1e-3, np.inf, np.nan, 5e-324, 1e-310])
    def test_config_rejects_invalid_epsilon(self, eps):
        with pytest.raises(ValueError, match="epsilon"):
            GreenSolveConfig(Q=1.0, epsilon=eps)

    def test_config_accepts_smallest_normal_epsilon(self):
        assert GreenSolveConfig(Q=1.0, epsilon=2.2250738585072014e-308).epsilon > 0

    def test_custom_grid_respected(self):
        grid = np.linspace(-3.0, 3.0, 501)
        curve = lagged_density_symmetric(GreenSolveConfig(Q=2.0, grid=grid))
        np.testing.assert_array_equal(curve.xs, grid)

    def test_grid_starting_nearest_the_origin(self):
        # the |x| sweep passes the positive points first, then the mirror of -0.01
        grid = np.concatenate([[-0.01], np.linspace(0.1, 3.0, 300)])
        _, G = green_scan(GreenSolveConfig(Q=2.0, grid=grid))
        _, G_pos = green_scan(GreenSolveConfig(Q=2.0, grid=grid[1:]))
        np.testing.assert_array_equal(G[1:], G_pos)
        assert G[0].imag > 0

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
        proj = project_density(curve)
        assert proj.total_mass() == pytest.approx(curve.total_mass(), abs=1e-9)

    def test_rejects_unnormalized(self):
        xs = np.linspace(-1.0, 1.0, 101)
        with pytest.raises(ValidationError,
                           match="^input curve has mass 4.0000, more than 0.02 from 1$"):
            project_density(DensityCurve(xs, np.full_like(xs, 2.0)))
