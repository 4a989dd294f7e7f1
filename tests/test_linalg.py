import contextlib
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rmtspec import (
    DataMatrix,
    LaggedMatrix,
    eigvals_general,
    eigvals_symmetric,
    lagged_correlation,
    read_capture,
    sample_covariance,
    standardize_rows,
)
from rmtspec.cli import run_cli
from rmtspec.errors import NumericalError, ValidationError, ZeroVarianceRow
from rmtspec import curves, linalg

from test_golden import _openblas_core
from oracles import (
    charpoly_eigs,
    greedy_pairing_residual,
    lagged_corr_loops,
    reference_standardize_row_blocks,
    reference_standardize_rows,
    sample_cov_loops,
)


def _lexsorted(w):
    """``w`` as complex128 sorted by (real, imag): the order ``eigvals_general``
    returns."""
    w = np.asarray(w, dtype=np.complex128)
    return w[np.lexsort((w.imag, w.real))]


class TestStandardize:
    def test_two_point_row(self):
        X = standardize_rows(DataMatrix(np.array([[1.0, 3.0]])))
        np.testing.assert_allclose(X.entries, [[-1 / np.sqrt(2), 1 / np.sqrt(2)]], atol=1e-12)
        assert X.standardized

    def test_idempotent(self, rng):
        X = standardize_rows(DataMatrix(rng.standard_normal((4, 32))))
        Y = standardize_rows(X)
        np.testing.assert_allclose(Y.entries, X.entries, atol=1e-12)

    def test_seeded_matrix_moments(self):
        rng = np.random.default_rng(8)
        X = standardize_rows(DataMatrix(rng.standard_normal((8, 64))))
        a = X.entries
        assert np.abs(a.mean(axis=1)).max() < 1e-10
        np.testing.assert_allclose(a.var(axis=1, ddof=1), 1.0, atol=1e-8)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e-155, 1e-160, 1e-170, 1e-200, 1e-300])
    def test_row_whose_squares_underflow(self, scale):
        # [0, 1, 3] * scale has squared deviations that are subnormal (1e-155,
        # 1e-160) or below the smallest double
        X = standardize_rows(DataMatrix(np.array([[0.0, scale, 3 * scale], [1.0, 2.0, 3.0]])))
        want = standardize_rows(DataMatrix(np.array([[0.0, 1.0, 3.0], [1.0, 2.0, 3.0]])))
        np.testing.assert_allclose(X.entries, want.entries, rtol=1e-13, atol=0)
        assert np.array_equal(X.entries[1], want.entries[1])

    def test_constant_row_raises(self):
        with pytest.raises(ZeroVarianceRow) as err:
            standardize_rows(DataMatrix(np.array([[1.0, 2.0], [5.0, 5.0]])))
        assert err.value.row == 1


def _standardized_bits(standardize, a):
    """The bits ``standardize`` returns for ``a``, or the row it refuses."""
    try:
        return standardize(DataMatrix(a)).entries.view(np.uint64).tolist()
    except ZeroVarianceRow as exc:
        return exc.row


class TestStandardizeChunks:
    """Standardization runs over blocks of rows; the one-pass form in the
    oracles is the bit-for-bit reference, refusals included, at scales where
    it neither overflows nor underflows. At any scale a row gives the bits it
    gives at a power-of-two multiple."""

    @given(p=st.integers(1, 11), n=st.integers(2, 40), chunk_rows=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1.0, 1e150]))
    @settings(max_examples=300, deadline=None)
    def test_bits_match_one_pass(self, p, n, chunk_rows, seed, scale):
        a = scale * (np.random.default_rng(seed).standard_normal((p, n)) + 3.0)
        with mock.patch.object(curves, "_BLOCK_BYTES", chunk_rows * 8 * n):
            got = _standardized_bits(standardize_rows, a)
        assert got == _standardized_bits(reference_standardize_rows, a)

    @given(p=st.integers(1, 11), n=st.integers(2, 40), chunk_rows=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1), k=st.sampled_from([-1000, -665, 900]))
    @settings(max_examples=300, deadline=None)
    def test_bits_do_not_depend_on_a_power_of_two_scale(self, p, n, chunk_rows, seed, k):
        # |entries| in [1, 2): 2**-1000 keeps them normal, 2**900 finite
        rng = np.random.default_rng(seed)
        a = rng.uniform(1.0, 2.0, (p, n)) * rng.choice([-1.0, 1.0], (p, n))
        with mock.patch.object(curves, "_BLOCK_BYTES", chunk_rows * 8 * n):
            got = _standardized_bits(standardize_rows, np.ldexp(a, k))
        assert got == _standardized_bits(standardize_rows, a)

    def test_bits_match_one_pass_at_capture_width(self):
        a = np.random.default_rng(3).standard_normal((300, 4096))
        got = standardize_rows(DataMatrix(a)).entries
        want = reference_standardize_rows(DataMatrix(a)).entries
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_result_is_not_scanned_again(self, rng, dtype):
        # every row passed a finite, nonzero std, so DataMatrix's finite scan
        # of the result is skipped; the result keeps the one-pass form's bits
        n = 64
        X = DataMatrix((rng.standard_normal((40, n)) * 1e3 + 7.0).astype(dtype))
        with mock.patch.object(linalg, "_checked",
                               side_effect=AssertionError("result scanned again")):
            Y = standardize_rows(X)
        assert type(Y) is DataMatrix and Y.standardized
        assert Y.entries.dtype == np.float64 and Y.entries.flags.c_contiguous
        want = reference_standardize_rows(X).entries
        assert np.array_equal(Y.entries.view(np.uint64), want.view(np.uint64))
        assert np.abs(Y.entries).max() <= np.sqrt(n - 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_entry_changed_after_the_check_refused(self, rng, bad):
        X = DataMatrix(rng.standard_normal((3, 5)))
        X.entries[1, 2] = bad
        with pytest.raises(ValidationError, match="^data matrix contains non-finite entries$"):
            standardize_rows(X)

    def test_input_left_unmodified(self, rng):
        X = DataMatrix(rng.standard_normal((7, 9)))
        before = X.entries.copy()
        Y = standardize_rows(X)
        assert np.array_equal(X.entries.view(np.uint64), before.view(np.uint64))
        assert not np.shares_memory(X.entries, Y.entries)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("chunk_rows", [1, 2, 3, 100])
    def test_first_constant_row_named(self, rng, chunk_rows, dtype):
        a = rng.standard_normal((9, 6)).astype(dtype)
        a[[4, 5, 8]] = 2.5
        with mock.patch.object(curves, "_BLOCK_BYTES", chunk_rows * 8 * 6), \
                pytest.raises(ZeroVarianceRow) as err:
            standardize_rows(DataMatrix(a))
        assert err.value.row == 4

    @given(block_rows=st.integers(1, 5), rows_past_block=st.integers(-4, 8),
           n=st.integers(2, 24), f32=st.booleans(),
           layout=st.sampled_from(["C", "F", "strided", "reversed"]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_blocks_match_one_pass_for_any_dtype_and_layout(self, block_rows, rows_past_block,
                                                            n, f32, layout, seed):
        p = max(1, block_rows + rows_past_block)
        base = np.random.default_rng(seed).standard_normal((2 * p, 2 * n)) + 3.0
        base = base.astype(np.float32 if f32 else np.float64)
        a = {"C": base[:p, :n].copy(), "F": np.asfortranarray(base[:p, :n]),
             "strided": base[::2, ::2], "reversed": base[:p, :n][::-1, ::-1]}[layout]
        before = a.copy()
        X = DataMatrix(a)
        assert X.entries is a
        with mock.patch.object(curves, "_BLOCK_BYTES", block_rows * 8 * n):
            got = standardize_rows(X).entries
        want = reference_standardize_rows(X).entries
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(a, before)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("row", [[1e200, -1e200, 0, 3], [1.7e308, -1.7e308, -1.7e308, 0]])
    @pytest.mark.parametrize("at", [0, 5])
    def test_row_whose_squares_overflow(self, row, at):
        # its mean or squares overflow at scale 1: it gives the bits of the
        # same row times 2**-665, where the one-pass form is exact
        a = np.tile([1.0, 2.0, 3.0, 4.0], (7, 1))
        a[at] = row
        small = a.copy()
        small[at] = np.ldexp(row, -665)
        with mock.patch.object(curves, "_BLOCK_BYTES", 2 * 8 * 4):
            got = _standardized_bits(standardize_rows, a)
        assert got == _standardized_bits(reference_standardize_rows, small)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("at", [0, 5])
    def test_constant_row_at_the_float64_limit(self, at):
        # its mean would overflow at scale 1 and leave std = NaN
        a = np.tile([1.0, 2.0, 3.0, 4.0], (7, 1))
        a[at] = 1.7e308
        with mock.patch.object(curves, "_BLOCK_BYTES", 2 * 8 * 4), \
                pytest.raises(ZeroVarianceRow) as err:
            standardize_rows(DataMatrix(a))
        assert err.value.row == at

    def test_single_column_names_row_zero(self):
        with pytest.raises(ZeroVarianceRow) as err:
            standardize_rows(DataMatrix(np.ones((3, 1))))
        assert err.value.row == 0


class TestStandardizeLazily:
    """``standardize_rows`` keeps its input and three numbers per row, and
    forms ``entries`` when they are read: the eager row-block form in the
    oracles, which wrote the standardized float64 matrix at once, is the
    bit-for-bit reference, refusals included, which are raised by the call
    itself and not deferred to a product."""

    @given(p=st.integers(1, 12), n=st.integers(2, 40), block_rows=st.integers(1, 5),
           kind=st.sampled_from(["f64", "f32", "i16"]), constant_row=st.integers(-1, 11),
           seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-150, 1.0, 1e150]))
    @settings(max_examples=300, deadline=None)
    @example(p=1, n=2, block_rows=1, kind="f32", constant_row=-1, seed=0, scale=1.0)
    @example(p=1, n=7, block_rows=1, kind="i16", constant_row=-1, seed=1, scale=1.0)
    @example(p=5, n=2, block_rows=2, kind="f64", constant_row=3, seed=2, scale=1.0)
    def test_entries_match_the_eager_row_blocks(self, p, n, block_rows, kind, constant_row,
                                                seed, scale):
        rng = np.random.default_rng(seed)
        if kind == "i16":  # a capture of i16 samples as read: q / 32768 in float32
            a = rng.integers(-32768, 32768, (p, n)).astype(np.float32) / np.float32(32768.0)
        elif kind == "f32":  # 1e-30 to 1e30, within float32's range
            a = ((rng.standard_normal((p, n)) + 3.0) * scale**0.2).astype(np.float32)
        else:
            a = (rng.standard_normal((p, n)) + 3.0) * scale
        if 0 <= constant_row < p:
            a[constant_row] = a[constant_row, 0]
        X = DataMatrix(a)
        # the block spans block_rows rows, so the row counts cross its boundary
        with mock.patch.object(curves, "_BLOCK_BYTES", block_rows * 8 * n):
            try:
                want = reference_standardize_row_blocks(X).entries
            except ZeroVarianceRow as exc:
                with pytest.raises(ZeroVarianceRow) as err:
                    standardize_rows(X)
                assert err.value.row == exc.row
                return
            Y = standardize_rows(X)
        assert "entries" not in vars(Y)
        assert Y.entries.dtype == np.float64 and Y.entries.flags.c_contiguous
        assert np.array_equal(Y.entries.view(np.uint64), want.view(np.uint64))
        assert Y.entries is Y.entries

    def test_holds_the_input_and_no_float64_copy(self, rng):
        a = rng.standard_normal((6, 50)).astype(np.float32)
        Y = standardize_rows(DataMatrix(a))
        assert Y.p == 6 and Y.n == 50 and Y.standardized
        assert vars(Y).keys() == {"_source", "_scale", "standardized"}
        assert Y._source is a and all(s.shape == (6, 1) for s in Y._scale)


def _full_product(d, tau):
    """The p x p ``_lag_product`` of the float64 matrix ``d`` as one numpy
    ``matmul``, as it was formed before products were streamed."""
    p, T = d.shape
    out = np.empty((p, p), order="F")
    np.matmul(d[:, tau:], d[:, :T - tau].T, out=out.T)
    out /= T
    return out


def _small_product(d, tau):
    """The small side of the float64 matrix ``d`` as one numpy product; of
    one column, the dot product of the two columns taken contiguous (numpy
    strides its dot along a column of a wider matrix)."""
    T = d.shape[1]
    m = T - tau
    if m == 1:
        return np.array([[np.dot(d[:, tau].copy(), d[:, 0].copy())]]) / T
    return np.divide(d[:, tau:].T @ d[:, :m], T)


class TestStreamedProducts:
    """Both products of a lagged matrix, the p x p one and the m x m small
    side, are summed a block of their contraction (columns, rows) at a time,
    each block standardized as it is filled. With the contraction in one
    block they have the bits of one numpy product of the eager standardized
    matrix. Split into k-term blocks they stay within twice the bound of a
    k-term dot product, 2 * gamma_k * sum |x_t y_t| / T with gamma_k = k u /
    (1 - k u), plus the rounding of the division: the one-shot and the
    streamed sums each lie within gamma_k of the exact one, whatever order
    BLAS sums in."""

    @staticmethod
    def _data(p, T, seed, kind):
        a = np.random.default_rng(seed).standard_normal((p, T)) + 3.0
        if kind == "raw":  # standardization bypassed: the raw product
            return DataMatrix(a, standardized=True), a
        X = DataMatrix(a.astype(np.float32) if kind == "f32" else a)
        return standardize_rows(X), reference_standardize_row_blocks(X).entries

    @staticmethod
    def _products(X, tau):
        full = LaggedMatrix(X, tau).entries
        # formed again into a padded matrix for a solve: the same bits
        assert np.array_equal(linalg._owned(LaggedMatrix(X, tau)).view(np.uint64),
                              full.view(np.uint64))
        return full, linalg._lag_product(X, tau, 0, linalg._lapack_matrix(X.n - tau))

    @given(p=st.integers(1, 16), T=st.integers(2, 16), lag=st.sampled_from(["0", "1", "T-1"]),
           kind=st.sampled_from(["f64", "f32", "raw"]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_one_block_has_the_bits_of_one_product(self, p, T, lag, kind, seed):
        tau = {"0": 0, "1": 1, "T-1": T - 1}[lag]
        X, d = self._data(p, T, seed, kind)
        full, small = self._products(X, tau)
        for got, want in ((full, _full_product(d, tau)), (small, _small_product(d, tau))):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            if not tau:
                assert np.array_equal(got, got.T)

    @given(p=st.integers(2, 24), T=st.integers(2, 24), lag=st.sampled_from(["0", "1", "T-1"]),
           kind=st.sampled_from(["f64", "f32", "raw"]), depth=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_blocks_stay_within_the_dot_product_bound(self, p, T, lag, kind, depth, seed):
        tau = {"0": 0, "1": 1, "T-1": T - 1}[lag]
        X, d = self._data(p, T, seed, kind)
        with mock.patch.object(linalg, "_DEPTH", depth):
            full, small = self._products(X, tau)
        m, u = T - tau, 2.0**-53
        e = np.abs(d)
        for got, want, k, mass in ((full, _full_product(d, tau), m, e[:, :m] @ e[:, tau:].T),
                                   (small, _small_product(d, tau), p, e[:, tau:].T @ e[:, :m])):
            gamma = k * u / (1 - k * u)
            assert np.all(np.abs(got - want) <= (2 * gamma + 3 * u) * mass / T)
            if not tau:
                assert np.array_equal(got, got.T)

    @pytest.mark.parametrize("shape, tau", [((1000, 64), 0), ((1000, 64), 1), ((64, 1000), 0),
                                            ((64, 1000), 1)])
    def test_default_blocks_keep_the_bits_on_skylakex(self, shape, tau):
        # 1000 and 999 terms are split 384 + 308 + 308 or 384 + 308 + 307, as
        # OpenBLAS splits its own depth: on its SkylakeX kernels, whose panels
        # are 384 deep, each sum is that of one call; elsewhere it is rounded
        # differently, within 1e-14 of the largest entry here
        X, d = self._data(*shape, 2, "f32")
        got, want = ((linalg._lag_product(X, tau, 0, linalg._lapack_matrix(X.n - tau)),
                      _small_product(d, tau)) if shape[0] > 64
                     else (LaggedMatrix(X, tau).entries, _full_product(d, tau)))
        if _openblas_core() == "SkylakeX":
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @given(p=st.integers(1, 16), T=st.integers(2, 16), lag=st.sampled_from(["0", "1", "T-1"]),
           kind=st.sampled_from(["f64", "f32", "raw"]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_without_openblas_the_spectra_are_the_same(self, p, T, lag, kind, seed):
        # orders below 75, where the staged general solve has eigvals' bits
        tau = {"0": 0, "1": 1, "T-1": T - 1}[lag]
        X, _ = self._data(p, T, seed, kind)
        spectra = [eigvals_symmetric(sample_covariance(X)).values,
                   eigvals_general(lagged_correlation(X, tau))]
        with mock.patch.object(linalg, "_openblas", lambda: None):
            fallback = [eigvals_symmetric(sample_covariance(X)).values,
                        eigvals_general(lagged_correlation(X, tau))]
        for got, want in zip(spectra, fallback):
            assert np.array_equal(_bits(got), _bits(want))


class TestSampleCovariance:
    def test_identity_input(self):
        A = sample_covariance(DataMatrix(np.eye(2)))
        np.testing.assert_allclose(A.entries, 0.5 * np.eye(2), atol=1e-15)

    def test_rank_one_all_ones(self):
        A = sample_covariance(DataMatrix(np.ones((3, 5))))
        np.testing.assert_allclose(A.entries, np.ones((3, 3)), atol=1e-14)
        w = np.linalg.eigvalsh(A.entries)
        np.testing.assert_allclose(np.sort(w), [0.0, 0.0, 3.0], atol=1e-12)

    def test_against_triple_loop(self, rng):
        X = rng.standard_normal((4, 8))
        A = sample_covariance(DataMatrix(X)).entries
        np.testing.assert_allclose(A, sample_cov_loops(X), atol=1e-12)

    def test_psd_output(self, rng):
        X = DataMatrix(rng.standard_normal((6, 4)))  # p > n: rank deficient
        w = np.linalg.eigvalsh(sample_covariance(X).entries)
        assert w.min() >= -1e-10 * np.trace(sample_covariance(X).entries)


class TestLaggedCorrelation:
    def test_zero_lag_matches_covariance(self, rng):
        X = standardize_rows(DataMatrix(rng.standard_normal((5, 20))))
        C = lagged_correlation(X, 0).entries
        A = sample_covariance(X).entries
        np.testing.assert_allclose(C, A, atol=1e-12)
        np.testing.assert_allclose(C, X.entries @ X.entries.T / 20, atol=1e-14)

    def test_ones_row_lag_one(self):
        # standardization bypassed deliberately: contract is the raw product
        X = DataMatrix(np.ones((1, 6)), standardized=True)
        C = lagged_correlation(X, 1)
        np.testing.assert_allclose(C.entries, [[5.0 / 6.0]], atol=1e-15)

    def test_against_direct_sum(self, rng):
        X = standardize_rows(DataMatrix(rng.standard_normal((5, 50))))
        C = lagged_correlation(X, 2).entries
        np.testing.assert_allclose(C, lagged_corr_loops(X.entries, 2), atol=1e-12)

    def test_matches_shift_matrix_route(self, rng):
        # C(tau) = X D X^T / n with the indicator D[t, t'] = 1 iff t' = t + tau
        X = standardize_rows(DataMatrix(rng.standard_normal((4, 12))))
        a = X.entries
        for tau in (0, 1, 3, 11):
            C = lagged_correlation(X, tau).entries
            D = np.eye(12, k=tau)
            np.testing.assert_allclose(C, a @ D @ a.T / 12, atol=1e-13)

    def test_requires_standardized(self, rng):
        with pytest.raises(ValidationError,
                           match="^lagged_correlation requires a standardized matrix$"):
            lagged_correlation(DataMatrix(rng.standard_normal((3, 10))), 1)

    def test_lag_out_of_range(self, rng):
        X = standardize_rows(DataMatrix(rng.standard_normal((3, 10))))
        for tau in (10, -1):
            message = rf"^tau={tau} outside \[0, 9\]$"
            with pytest.raises(ValidationError, match=message):
                lagged_correlation(X, tau)
            with pytest.raises(ValidationError, match=message):
                LaggedMatrix(X.entries, tau)


class TestEigvals:
    def test_lapack_failure_is_a_numerical_error(self, monkeypatch):
        # the staged dhseqr with numpy's OpenBLAS, np.linalg.eigvals without it
        if linalg._openblas() is None:
            def fail(a):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")

            monkeypatch.setattr(np.linalg, "eigvals", fail)
        else:
            _spy(monkeypatch, [], fail="dhseqr")
        with pytest.raises(NumericalError, match="^Eigenvalues did not converge$"):
            eigvals_general(np.eye(3))

    def test_diagonal(self):
        s = eigvals_symmetric(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(s.values, [1, 2, 3], atol=1e-14)

    def test_rank_one_ones(self):
        s = eigvals_symmetric(np.ones((3, 3)))
        np.testing.assert_allclose(s.values, [0, 0, 3], atol=1e-12)

    def test_trace_consistency(self, rng):
        M = rng.standard_normal((7, 7))
        M = M + M.T
        s = eigvals_symmetric(M)
        assert abs(s.values.sum() - np.trace(M)) <= 1e-8 * max(1, abs(np.trace(M)))

    def test_rejects_asymmetric(self, rng):
        asymmetric = r"^asymmetry \S+ exceeds 1e-10 \* \S+$"
        with pytest.raises(ValidationError, match=asymmetric):
            eigvals_symmetric(rng.standard_normal((4, 4)))
        # a lagged matrix at tau > 0 is scanned like an array
        with pytest.raises(ValidationError, match=asymmetric):
            eigvals_symmetric(LaggedMatrix(rng.standard_normal((4, 8)), 1))
        with pytest.raises(ValidationError, match=r"^matrix of shape \(2, 3\) is not square$"):
            eigvals_symmetric(np.zeros((2, 3)))

    # entries at the largest doubles: the refusals raise with no numpy warning
    # first, from the asymmetry's difference or the eigenvalues' sum
    _BIG = 1.7e308

    @pytest.mark.filterwarnings("error")
    def test_overflowing_asymmetry_refused_without_warnings(self):
        with pytest.raises(ValidationError, match=r"^asymmetry inf exceeds 1e-10 \* 1.7e\+308$"):
            eigvals_symmetric(np.array([[0.0, self._BIG], [-self._BIG, 0.0]]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("solve", [eigvals_symmetric, eigvals_general])
    def test_eigenvalues_of_both_infinities_refused_without_warnings(self, solve):
        with pytest.raises(NumericalError, match="^matrix holds an inf or NaN, or its "
                                                 "eigenvalues' sum overflows doubles$"):
            solve(np.array([[self._BIG, self._BIG], [self._BIG, -self._BIG]]))

    @pytest.mark.filterwarnings("error")
    def test_symmetric_solve_refuses_a_complex_matrix(self):
        # copied to float64 it would lose its imaginary part and solve as [2, 2]
        hermitian = np.array([[2, 1j], [-1j, 2]])
        with pytest.raises(ValidationError, match=r"^matrix of dtype complex128 is not real$"):
            eigvals_symmetric(hermitian)
        np.testing.assert_allclose(eigvals_general(hermitian), [1, 3], atol=1e-12)

    @pytest.mark.parametrize("solve", [eigvals_symmetric, eigvals_general])
    @pytest.mark.parametrize("shape, message", [
        ((2, 3), r"^matrix of shape \(2, 3\) is not square$"),
        ((3,), r"^matrix of shape \(3,\) is not square$"),
        ((2, 2, 2), r"^matrix of shape \(2, 2, 2\) is not square$"),
        ((0, 0), r"^matrix of shape \(0, 0\) is empty$"),
    ])
    def test_solvers_refuse_what_is_not_a_square_matrix(self, solve, shape, message):
        with pytest.raises(ValidationError, match=message):
            solve(np.zeros(shape))

    def test_entries_formed_from_data_skip_the_symmetry_scan(self, rng, monkeypatch):
        import rmtspec.linalg as linalg

        calls = []
        check = linalg._require_symmetric
        monkeypatch.setattr(linalg, "_require_symmetric", lambda a: calls.append(a) or check(a))
        X = standardize_rows(DataMatrix(rng.standard_normal((6, 40))))
        C = sample_covariance(X)
        s = eigvals_symmetric(C)
        assert calls == []
        assert np.array_equal(C.entries, C.entries.T)
        assert np.array_equal(s.values, np.linalg.eigvalsh(C.entries))
        # nor is the n x n small-side matrix of a rank-deficient covariance
        wide = sample_covariance(standardize_rows(DataMatrix(rng.standard_normal((40, 6)))))
        eigvals_symmetric(wide)
        assert calls == []
        assert "entries" not in vars(wide)
        # the same matrix passed as a raw array is scanned
        eigvals_symmetric(C.entries)
        assert len(calls) == 1

    def test_rotation_matrix(self):
        s = eigvals_general(np.array([[0.0, -1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(s, [-1j, 1j], atol=1e-12)

    def test_general_diagonal(self):
        s = eigvals_general(np.diag([2.0, 5.0]))
        np.testing.assert_allclose(s, [2.0, 5.0], atol=1e-14)

    def test_conjugate_closure(self, rng):
        for _ in range(10):
            M = rng.standard_normal((6, 6))
            v = eigvals_general(M)
            assert greedy_pairing_residual(v, np.conj(v)) < 1e-8

    def test_symmetric_vs_charpoly_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = rng.integers(1, 4)
            M = rng.standard_normal((n, n))
            M = M + M.T
            got = eigvals_symmetric(M).values
            want = np.sort(charpoly_eigs(M).real)
            np.testing.assert_allclose(got, want, atol=1e-8, rtol=1e-8)

    def test_general_vs_charpoly_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            n = rng.integers(1, 4)
            M = rng.standard_normal((n, n))
            got = eigvals_general(M)
            assert greedy_pairing_residual(got, charpoly_eigs(M)) < 1e-8


class TestTypes:
    @pytest.mark.filterwarnings("error")
    def test_data_matrix_rejects_nan(self):
        with pytest.raises(ValidationError, match="^data matrix contains non-finite entries$"):
            DataMatrix(np.array([[1.0, np.nan]]))
        for bad in (np.nan, np.inf, -np.inf):
            for i, j in ((0, 0), (1, 2), (2, 1)):
                a = np.arange(12.0).reshape(3, 4)
                a[i, j] = bad
                with pytest.raises(ValidationError,
                                   match="^data matrix contains non-finite entries$"):
                    DataMatrix(a)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a", [np.array([[1 + 2j, 3, 5], [2, 1j, 0]]),
                                   np.zeros((2, 2), np.complex64), [[1 + 0j, 2.0]]])
    def test_data_matrix_rejects_complex(self, a):
        # a float cast would keep [[1, 3, 5], [2, 0, 0]] with a ComplexWarning
        with pytest.raises(ValidationError, match=r"^data matrix of dtype complex\d+ is not real$"):
            DataMatrix(a)

    def test_only_float32_data_is_float32(self, rng):
        a32 = rng.standard_normal((3, 5)).astype(np.float32)
        assert DataMatrix(a32).entries is a32
        assert DataMatrix(a32, standardized=True).entries is a32
        assert DataMatrix(np.arange(6, dtype=np.int16).reshape(2, 3)).entries.dtype == np.float64
        assert DataMatrix(a32.astype(np.float16)).entries.dtype == np.float64
        assert DataMatrix(a32.astype(np.float16), standardized=True).entries.dtype == np.float64
        assert standardize_rows(DataMatrix(a32)).entries.dtype == np.float64
        # a lagged matrix holds its data as given: blocks are promoted as used
        assert lagged_correlation(DataMatrix(a32, standardized=True), 1).data.entries is a32

    @pytest.mark.parametrize("shape", [(64, 16), (16, 64)])
    def test_lagged_matrix_promotes_float32(self, rng, shape):
        # (64, 16) is solved on the small side, (16, 64) dense
        a32 = rng.standard_normal(shape).astype(np.float32)
        a64 = a32.astype(np.float64)
        assert LaggedMatrix(a32, 1).data.entries is a32
        got = eigvals_symmetric(LaggedMatrix(a32, 0)).values
        want = eigvals_symmetric(LaggedMatrix(a64, 0)).values
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        got, want = (eigvals_general(LaggedMatrix(a, 1)) for a in (a32, a64))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        got, want = (LaggedMatrix(a, 1).entries for a in (a32, a64))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_sample_covariance_promotes_float32(self, rng):
        a32 = rng.standard_normal((6, 4)).astype(np.float32)
        got, want = (sample_covariance(DataMatrix(a)) for a in (a32, a32.astype(np.float64)))
        assert got.data.entries.dtype == np.float32 and got.entries.dtype == np.float64
        assert np.array_equal(got.entries.view(np.uint64), want.entries.view(np.uint64))
        w32, w64 = (eigvals_symmetric(sample_covariance(DataMatrix(a))).values
                    for a in (a32, a32.astype(np.float64)))
        assert np.array_equal(w32.view(np.uint64), w64.view(np.uint64))

    def test_data_matrix_rejects_non_2d(self):
        with pytest.raises(ValidationError, match=r"^expected a 2-d matrix, got shape \(3,\)$"):
            DataMatrix(np.zeros(3))

    def test_complex_spectrum_sorted(self):
        # eigenvalues -1 and 2 +- 1j, sorted by (real, imag)
        s = eigvals_general(np.array([[2.0, -1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, -1.0]]))
        assert s.dtype == np.complex128
        np.testing.assert_allclose(s, [-1 + 0j, 2 - 1j, 2 + 1j], atol=1e-12)
        # a real spectrum is complex128 too, and ascending
        s = eigvals_general(np.diag([3.0, -1.0, 2.0]))
        assert s.dtype == np.complex128
        np.testing.assert_array_equal(s, [-1, 2, 3])

    @pytest.mark.parametrize("matrix", ["raw", "small side"])
    def test_real_spectrum_trace_mismatch(self, monkeypatch, rng, matrix):
        # the eigenvalue sum is checked against the trace of the matrix solved
        monkeypatch.setattr(linalg, "_eigvalsh_owned", lambda a: np.full(a.shape[0], 10.0))
        M = (np.diag([1.0, 2.0]) if matrix == "raw"
             else sample_covariance(DataMatrix(rng.standard_normal((5, 2)))))
        with pytest.raises(ValueError, match=r"^eigenvalue sum \S+ inconsistent with "
                                             r"trace \S+$"):
            eigvals_symmetric(M)


class TestSmallSide:
    """The rank-deficient small-side solves against dense p x p eigensolves."""

    @given(p=st.integers(1, 12), n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           standardize=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_dense_solve(self, p, n, seed, standardize):
        g = np.random.default_rng(seed)
        X = DataMatrix(g.standard_normal((p, n)))
        if standardize and n >= 2:
            X = standardize_rows(X)

        cov = sample_covariance(X)
        got = eigvals_symmetric(cov).values
        want = np.linalg.eigvalsh(cov.entries)
        scale = max(1.0, np.abs(want).max())
        assert greedy_pairing_residual(got, want) <= 1e-10 * scale
        if p > n:
            assert np.count_nonzero(got == 0.0) >= p - n
        # a raw array has no source data: it takes the dense path unchanged
        np.testing.assert_array_equal(eigvals_symmetric(cov.entries).values, np.sort(want))

        # standardization bypassed for raw data: the contract is the raw product
        Xl = DataMatrix(X.entries, standardized=True)
        for tau in sorted({0, 1, n - 1} & set(range(n))):
            C = lagged_correlation(Xl, tau)
            got = eigvals_general(C)
            want = np.linalg.eigvals(C.entries)
            scale = max(1.0, np.abs(want).max())
            assert greedy_pairing_residual(got, want) <= 1e-10 * scale
            if p > n - tau:
                assert np.count_nonzero(got == 0.0) >= p - (n - tau)
            np.testing.assert_array_equal(eigvals_general(C.entries),
                                          _lexsorted(want))

    def test_entries_built_on_first_access(self, rng):
        X = standardize_rows(DataMatrix(rng.standard_normal((6, 4))))
        a = X.entries
        cov = sample_covariance(X)
        eigvals_symmetric(cov)
        assert "entries" not in vars(cov)  # the small side never builds it
        c = a @ a.T / 4
        np.testing.assert_array_equal(cov.entries, c)
        np.testing.assert_array_equal(cov.entries, 0.5 * (c + c.T))
        np.testing.assert_array_equal(lagged_correlation(X, 0).entries, c)
        C1 = lagged_correlation(X, 1)
        eigvals_general(C1)
        assert "entries" not in vars(C1)
        np.testing.assert_array_equal(C1.entries, a[:, :3] @ a[:, 1:].T / 4)

    def test_small_side_memory(self):
        X = standardize_rows(DataMatrix(np.random.default_rng(5).standard_normal((2048, 64))))
        tracemalloc.start()
        try:
            eigvals_symmetric(sample_covariance(X))
            eigvals_general(lagged_correlation(X, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one 2048 x 2048 float64 matrix alone is 32 MiB
        assert peak < 4 * 2**20


class TestLagZeroSmallSide:
    """The covariance is the lag-0 ``LaggedMatrix``: both solvers hand LAPACK
    the product ``a.T @ a`` divided by n in place when n < p, as the
    covariance's own small side did, and ``a @ a.T`` divided by n otherwise,
    each formed from blocks of ``a`` copied C-ordered, so with the bits of
    the C-ordered ``a`` whatever its layout."""

    @given(p=st.integers(1, 40),
           offset=st.one_of(st.sampled_from([-1, 0, 1]), st.integers(-39, 39)),
           seed=st.integers(0, 2**32 - 1),
           layout=st.sampled_from(["C", "F", "strided", "reversed"]),
           scale=st.sampled_from([1e-150, 1e-3, 1.0, 1e5, 1e150]))
    @settings(max_examples=200, deadline=None)
    def test_product_bits_and_zeros(self, p, offset, seed, layout, scale):
        n = max(1, p + offset)
        base = np.random.default_rng(seed).standard_normal((2 * p + 1, 3 * n + 1)) * scale
        d = {"C": np.ascontiguousarray(base[:p, :n]),
             "F": np.asfortranarray(base[:p, :n]),
             "strided": base[1::2, ::3][:p, :n],
             "reversed": base[::-2, ::-3][:p, :n]}[layout]
        cov = sample_covariance(DataMatrix(d))
        handed = []

        def record(solve):
            return lambda a: handed.append(a.copy()) or solve(a)

        with mock.patch.object(linalg, "_eigvalsh_owned", record(linalg._eigvalsh_owned)), \
                mock.patch.object(linalg, "_eigvals_owned", record(linalg._eigvals_owned)):
            symmetric = eigvals_symmetric(cov).values
            general = eigvals_general(cov)
        assert "entries" not in vars(cov)
        c = np.ascontiguousarray(d)
        if n < p:
            want = np.matmul(c.T, c)
        else:  # formed as out.T, so the matrix solved is its transpose
            want = np.matmul(c, c.T).T
        want /= n
        assert len(handed) == 2
        for a in handed:
            assert np.array_equal(a.view(np.uint64), want.view(np.uint64))
        zeros = max(0, p - n)
        assert np.count_nonzero(symmetric == 0.0) >= zeros
        assert np.count_nonzero(general == 0.0) >= zeros


class TestGramSymmetry:
    """``a @ a.T`` and ``a.T @ a`` are exactly symmetric, also formed into a
    plain or a padded destination, so neither the covariance nor the small
    side symmetrizes or scans what it forms."""

    @given(p=st.integers(1, 48), n=st.integers(1, 48), seed=st.integers(0, 2**32 - 1),
           layout=st.sampled_from(["C", "F", "strided", "reversed"]),
           scale=st.sampled_from([1e-150, 1e-3, 1.0, 1e5, 1e150]))
    @settings(max_examples=200, deadline=None)
    def test_products_exactly_symmetric(self, p, n, seed, layout, scale):
        base = np.random.default_rng(seed).standard_normal((2 * p + 1, 3 * n + 1)) * scale
        a = {"C": np.ascontiguousarray(base[:p, :n]),
             "F": np.asfortranarray(base[:p, :n]),
             "strided": base[1::2, ::3][:p, :n],
             "reversed": base[::-2, ::-3][:p, :n]}[layout]
        X = DataMatrix(a)
        for g in (a @ a.T, a.T @ a, sample_covariance(X).entries,
                  linalg._owned(sample_covariance(X))):
            assert np.array_equal(g, g.T)

    def test_capture_shapes_exactly_symmetric(self):
        d = standardize_rows(DataMatrix(np.random.default_rng(3).standard_normal((2048, 64))))
        for g in (sample_covariance(d).entries, linalg._owned(sample_covariance(d)),
                  d.entries.T @ d.entries / 64):
            assert np.array_equal(g, g.T)


_NO_OPENBLAS = ("numpy has not loaded a vendored libscipy_openblas64_, so there is "
                "no OpenBLAS thread count to lower and no LAPACK handle to call")


# position of LDA (LDH of dhseqr) in each routine's arguments
_LDA_AT = {"dsyevd": 4, "dgeev": 4, "dgebal": 3, "dgehrd": 4, "dhseqr": 6}


def _spy(monkeypatch, seen, fail=None, stage_raises=None, ldas=None):
    """Wrap the LAPACK handles of ``linalg._openblas()`` so that every call
    appends (routine, OpenBLAS thread count) to ``seen``, and (routine, LDA)
    to the list ``ldas`` if one is given. The routine named ``fail`` returns
    INFO = 1 without running; the one named ``stage_raises`` raises
    ``RuntimeError``."""
    blas = linalg._openblas()

    def wrap(name):
        routine = getattr(blas, name)

        def spy(*args):
            seen.append((name, blas.get_threads()))
            if ldas is not None:
                ldas.append((name, args[_LDA_AT[name]].contents.value))
            if name == stage_raises:
                raise RuntimeError(f"{name} raised")
            if name == fail:
                args[-1].contents.value = 1
                return None
            return routine(*args)
        return spy

    spied = blas._replace(**{name: wrap(name) for name in linalg._LAPACK_ARGS})
    monkeypatch.setattr(linalg, "_openblas", lambda: spied)


def _sym(k):
    """Calls of one symmetric solve on k threads: dsyevd's workspace query,
    then dsyevd."""
    return [("dsyevd", k)] * 2


def _gen(k):
    """Calls of one general solve whose pool stages see k threads: dgeev's
    workspace query, dgebal and dgehrd, then dhseqr on one thread."""
    return [("dgeev", k), ("dgebal", k), ("dgehrd", k), ("dhseqr", 1)]


@pytest.fixture
def get():
    """The OpenBLAS thread-count getter, with the pool at 2 threads for the
    test and the count restored after it."""
    blas = linalg._openblas()
    before = blas.get_threads()
    blas.set_threads(2)
    yield blas.get_threads
    blas.set_threads(before)


@pytest.mark.skipif(linalg._openblas() is None, reason=_NO_OPENBLAS)
class TestSmallSolveThreads:
    """Small sides of order <= 128 whose product has <= 2**24 multiply-adds run
    on one OpenBLAS thread; other solves keep the pool for every stage but the
    QR iteration; the count is restored after every call."""

    @pytest.fixture
    def capture(self):
        return standardize_rows(DataMatrix(np.random.default_rng(5).standard_normal((2048, 64))))

    def test_small_sides_run_on_one_thread(self, monkeypatch, get, capture):
        seen = []
        _spy(monkeypatch, seen)
        eigvals_symmetric(sample_covariance(capture))
        assert (seen, get()) == (_sym(1), 2)
        eigvals_general(lagged_correlation(capture, 1))
        assert (seen, get()) == (_sym(1) + _gen(1), 2)

    # counts seen by the covariance small side (order n) and the tau = 1 lag
    # small side (order n - 1): one thread while the order is <= 128 and the
    # order**2 * p multiply-adds of the product are <= 2**24
    @pytest.mark.parametrize("shape, counts", [
        ((200, 128), [1, 1]), ((200, 129), [2, 1]),
        ((4096, 64), [1, 1]), ((4097, 64), [2, 1]), ((4228, 64), [2, 2]),
    ])
    def test_small_side_limits(self, monkeypatch, get, shape, counts):
        seen = []
        _spy(monkeypatch, seen)
        X = DataMatrix(np.random.default_rng(11).standard_normal(shape), standardized=True)
        eigvals_symmetric(sample_covariance(X))
        eigvals_general(lagged_correlation(X, 1))
        assert (seen, get()) == (_sym(counts[0]) + _gen(counts[1]), 2)

    def test_dense_sides_keep_the_pool(self, monkeypatch, get):
        seen = []
        _spy(monkeypatch, seen)
        X = DataMatrix(np.random.default_rng(13).standard_normal((128, 400)), standardized=True)
        eigvals_symmetric(sample_covariance(X))
        eigvals_general(lagged_correlation(X, 1))
        assert (seen, get()) == (_sym(2) + _gen(2), 2)

    def test_large_solve_keeps_the_pool(self, monkeypatch, get, rng):
        seen = []
        _spy(monkeypatch, seen)
        eigvals_symmetric(sample_covariance(DataMatrix(rng.standard_normal((300, 400)))))
        assert (seen, get()) == (_sym(2), 2)

    def test_count_is_never_raised(self, monkeypatch, get, capture):
        seen = []
        _spy(monkeypatch, seen)
        linalg._openblas().set_threads(1)
        eigvals_symmetric(sample_covariance(capture))
        # a dense lag solve: its pool stages see the lower count as well
        dense = DataMatrix(np.random.default_rng(13).standard_normal((64, 200)), standardized=True)
        eigvals_general(lagged_correlation(dense, 1))
        assert (seen, get()) == (_sym(1) + _gen(1), 1)

    def test_concurrent_solves_restore_the_count(self, get):
        X = standardize_rows(DataMatrix(np.random.default_rng(7).standard_normal((256, 16))))
        errors = []

        def solve():
            try:
                for _ in range(50):
                    eigvals_symmetric(sample_covariance(X))
                    eigvals_general(lagged_correlation(X, 1))
            except Exception as exc:  # noqa: BLE001 - reported by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=solve) for _ in range(6)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert (errors, get()) == ([], 2)

    def test_raising_solve_restores_the_count(self, monkeypatch, get, capture):
        seen = []
        _spy(monkeypatch, seen, fail="dhseqr")
        with pytest.raises(NumericalError, match="^Eigenvalues did not converge$"):
            eigvals_general(lagged_correlation(capture, 1))
        assert (seen, get()) == (_gen(1), 2)

    def test_spectra_without_the_limit(self, monkeypatch, get, capture):
        cov, lag = sample_covariance(capture), lagged_correlation(capture, 1)
        limited = eigvals_symmetric(cov).values, eigvals_general(lag)
        monkeypatch.setattr(linalg, "_openblas", lambda: None)
        pooled = eigvals_symmetric(cov).values, eigvals_general(lag)
        # the Gram product and eigvalsh give the same bits on any thread count
        assert np.array_equal(limited[0], pooled[0])
        # the 63 x 2048 x 63 lag gemm may not: on two threads, entries of the 7
        # columns past the last 8-wide block can differ in the last bit, and
        # eigvals carries that into the spectrum at the 1e-15 relative level
        scale = np.abs(pooled[1]).max()
        assert np.abs(limited[1] - pooled[1]).max() <= 1e-13 * scale
        assert np.count_nonzero(limited[1] == 0) == np.count_nonzero(pooled[1] == 0) == 1985


@pytest.mark.skipif(linalg._openblas() is None, reason=_NO_OPENBLAS)
class TestRunCliThreads:
    """A ``run_cli`` command keeps the pool for every stage but the one-thread
    rules', never raises a lower count, and restores the count on every exit
    path."""

    @pytest.fixture
    def capture(self, tmp_path):
        # 100 x 200: both solves are dense, so their pool stages show the pool
        path = str(tmp_path / "x.rmtc")
        assert run_cli(["generate", "--signal", "wgn", "--rows", "100", "--cols", "200",
                        "-o", path]) == 0
        return path

    @pytest.mark.filterwarnings("error")
    def test_rmt_threads_is_no_setting(self, monkeypatch, get, tmp_path, capture, capsys):
        # the variable once lowered the pool for one command; it is read no more
        monkeypatch.setenv("RMT_THREADS", "abc")
        assert run_cli(["theory", "mp", "--c", "0.5", "-o", str(tmp_path / "mp.csv")]) == 0
        assert capsys.readouterr().err == ""
        seen = []
        _spy(monkeypatch, seen)
        assert run_cli(["analyze", "lagged", "-i", capture, "--tau", "1",
                        "-o", str(tmp_path / "cloud.csv")]) == 0
        assert (seen, get()) == (_gen(2), 2)

    @pytest.mark.parametrize("argv, fail, code, calls", [
        (["analyze", "cov"], None, 0, _sym(2)),
        (["analyze", "cov", "--bins", "0"], None, 1, _sym(2)),
        (["analyze", "cov", "--bins"], None, 1, []),
        (["analyze", "lagged", "--tau", "1"], "dhseqr", 2, _gen(2)),
    ], ids=["exit-0", "exit-1", "usage-exit-1", "exit-2"])
    def test_count_restored_on_every_exit(self, monkeypatch, get, tmp_path, capture,
                                          argv, fail, code, calls):
        seen = []
        _spy(monkeypatch, seen, fail=fail)
        out = str(tmp_path / "out")
        assert run_cli([*argv[:2], "-i", capture, *argv[2:], "-o", out]) == code
        assert (seen, get()) == (calls, 2)

    def test_count_is_never_raised(self, monkeypatch, get, tmp_path, capture):
        linalg._openblas().set_threads(1)
        seen = []
        _spy(monkeypatch, seen)
        assert run_cli(["analyze", "lagged", "-i", capture, "--tau", "1",
                        "-o", str(tmp_path / "cloud.csv")]) == 0
        assert (seen, get()) == (_gen(1), 1)


def _bits(v):
    return np.asarray(v, dtype=np.complex128).view(np.uint64)


@pytest.fixture
def qr_on_the_pool(monkeypatch):
    """Let the QR stage keep the pool: the staged solve is then dgeev's."""
    monkeypatch.setattr(linalg, "_blas_threads", contextlib.nullcontext)


@pytest.mark.skipif(linalg._openblas() is None, reason=_NO_OPENBLAS)
class TestStagedSolvers:
    """The dense solves call numpy's LAPACK routines stage by stage, in place
    on an F-ordered array they own."""

    # dhseqr runs dlahqr below 75; 256 is a padded power-of-two order above
    ORDERS = [2, 74, 75, 256, 300]

    @pytest.mark.parametrize("n", ORDERS)
    def test_general_is_eigvals_with_qr_on_the_pool(self, get, qr_on_the_pool, n):
        g = np.random.default_rng(n)
        for m in (g.standard_normal((n, n)),
                  lagged_correlation(standardize_rows(DataMatrix(
                      g.standard_normal((n, 2 * n)))), 1).entries):
            got = linalg._eigvals_owned(linalg._owned(m))
            assert np.array_equal(_bits(got), _bits(np.linalg.eigvals(m)))

    @pytest.mark.parametrize("n", ORDERS)
    def test_general_with_qr_on_one_thread(self, get, n):
        m = np.random.default_rng(n).standard_normal((n, n))
        got = eigvals_general(m)
        want = np.linalg.eigvals(m)
        assert greedy_pairing_residual(got, want) <= 1e-13 * np.abs(want).max()
        if n < 75:  # dhseqr runs dlahqr, which makes no BLAS-3 call
            assert np.array_equal(_bits(got), _bits(_lexsorted(want)))

    @pytest.mark.parametrize("n", ORDERS)
    @pytest.mark.parametrize("scale", [1e-160, 1.0, 1e160])
    def test_symmetric_is_eigvalsh(self, get, n, scale):
        m = np.random.default_rng(n).standard_normal((n, n)) * scale
        m = m + m.T
        assert np.array_equal(linalg._eigvalsh_owned(linalg._owned(m)),
                              np.linalg.eigvalsh(m))
        assert np.array_equal(eigvals_symmetric(m).values, np.linalg.eigvalsh(m))

    @pytest.mark.parametrize("scale", [1e-160, 1e160])
    def test_unscaled_range_goes_to_numpy(self, monkeypatch, get, scale):
        # dgeev would scale these first; the staged solve leaves them to it
        seen = []
        _spy(monkeypatch, seen)
        m = np.random.default_rng(3).standard_normal((80, 80)) * scale
        got = eigvals_general(m)
        assert seen == []
        assert np.array_equal(_bits(got), _bits(_lexsorted(np.linalg.eigvals(m))))

    def test_non_finite_inputs(self, get):
        a = np.eye(4)
        a[1, 2] = a[2, 1] = np.nan
        for bad in (a, np.array([[np.inf, 0.0], [0.0, 1.0]])):
            with pytest.raises(NumericalError, match="^Array must not contain infs or NaNs$"):
                eigvals_general(bad)
        # eigvalsh returns NaN eigenvalues for the first and does not converge
        # on the second; the symmetric solve refuses both by one message
        for bad in (a, np.full((3, 3), np.nan)):
            with pytest.raises(NumericalError, match="^matrix holds an inf or NaN, or its "
                                                     "eigenvalues' sum overflows doubles$"):
                eigvals_symmetric(bad)

    def test_overflowed_product_refused(self, get):
        # finite data whose lag-0 product overflows: dsyevd returns no finite sum
        X = DataMatrix(np.full((3, 2), 1e200))
        with pytest.raises(NumericalError, match="^matrix holds an inf or NaN, or its "
                                                 "eigenvalues' sum overflows doubles$"):
            eigvals_symmetric(sample_covariance(X))

    def test_inputs_are_never_overwritten(self, get, rng):
        X = standardize_rows(DataMatrix(rng.standard_normal((40, 90))))
        data = X.entries.copy()
        for M, solve in ((sample_covariance(X), eigvals_symmetric),
                         (lagged_correlation(X, 1), eigvals_general)):
            solve(M)  # from an uncached product
            cached = M.entries.copy()
            solve(M)
            assert np.array_equal(M.entries.view(np.uint64), cached.view(np.uint64))
            for raw in (np.ascontiguousarray(cached),
                        np.asfortranarray(cached[::-1, ::-1])[::-1, ::-1]):
                solve(raw)
                assert np.array_equal(raw.view(np.uint64), cached.view(np.uint64))
        assert np.array_equal(X.entries.view(np.uint64), data.view(np.uint64))

    def test_dense_solve_forms_an_uncached_product(self, get, rng):
        X = standardize_rows(DataMatrix(rng.standard_normal((40, 90))))
        def symmetric(M):
            return eigvals_symmetric(M).values

        for M, solve in ((sample_covariance(X), symmetric),
                         (lagged_correlation(X, 0), eigvals_general),
                         (lagged_correlation(X, 2), eigvals_general)):
            got = solve(M)
            assert "entries" not in vars(M)
            assert np.array_equal(got, solve(M.entries))
            assert M.entries.flags.f_contiguous

    def test_non_convergence_is_a_numerical_error(self, monkeypatch, get):
        seen = []
        _spy(monkeypatch, seen, fail="dsyevd")
        with pytest.raises(NumericalError, match="^Eigenvalues did not converge$"):
            eigvals_symmetric(np.eye(3))
        monkeypatch.undo()
        _spy(monkeypatch, seen, fail="dhseqr")
        with pytest.raises(NumericalError, match="^Eigenvalues did not converge$"):
            eigvals_general(np.eye(3))
        assert get() == 2

    def test_fallback_non_convergence_is_a_numerical_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(linalg, "_openblas", lambda: None)
        for name, solve in (("eigvalsh", eigvals_symmetric), ("eigvals", eigvals_general)):
            monkeypatch.setattr(np.linalg, name, fail)
            with pytest.raises(NumericalError, match="^Eigenvalues did not converge$"):
                solve(np.eye(3))

    def test_stage_thread_counts(self, monkeypatch, get, rng):
        seen = []
        _spy(monkeypatch, seen)
        eigvals_general(rng.standard_normal((90, 90)))
        assert (seen, get()) == (_gen(2), 2)

    @pytest.mark.parametrize("stage", ["dgehrd", "dhseqr"])
    def test_count_restored_when_a_stage_raises(self, monkeypatch, get, rng, stage):
        seen = []
        _spy(monkeypatch, seen, stage_raises=stage)
        with pytest.raises(RuntimeError, match=f"^{stage} raised$"):
            eigvals_general(rng.standard_normal((90, 90)))
        assert (seen, get()) == (_gen(2)[:3 if stage == "dgehrd" else 4], 2)

    @pytest.mark.parametrize("n", [64, 256])
    def test_dense_solves_pass_a_padded_lda(self, monkeypatch, get, n):
        X = standardize_rows(DataMatrix(np.random.default_rng(n).standard_normal((n, 2 * n))))
        for M, solve, calls in ((sample_covariance(X), eigvals_symmetric, _sym(2)),
                                (lagged_correlation(X, 1), eigvals_general, _gen(2))):
            ldas = []
            _spy(monkeypatch, [], ldas=ldas)
            solve(M)  # from an uncached product
            assert "entries" not in vars(M)
            raw = M.entries.copy(order="C")
            solve(M)  # from the cached entries
            solve(raw)
            monkeypatch.undo()
            assert ldas == 3 * [(name, n + 8) for name, _ in calls]

def _slack_filled(m, slack):
    """``m`` as an F-ordered view with ``slack`` NaN rows below each column,
    and the buffer it lies in."""
    n = m.shape[0]
    buf = np.full((n + slack, n), np.nan, order="F")
    view = buf[:n]
    view[...] = m
    return view, buf


_LAYOUT_ORDERS = [1, 2, 63, 64, 74, 75, 128, 256, 300]


@pytest.mark.skipif(linalg._openblas() is None, reason=_NO_OPENBLAS)
class TestPaddedLayout:
    """A matrix a LAPACK stage overwrites may have slack below each column:
    the stages take its column stride as LDA and never touch the slack."""

    @staticmethod
    def _case(n, seed, symmetric):
        m = np.random.default_rng(seed).standard_normal((n, n))
        if symmetric:
            return m + m.T, linalg._eigvalsh_owned, np.linalg.eigvalsh
        return m, linalg._eigvals_owned, np.linalg.eigvals

    @given(n=st.sampled_from(_LAYOUT_ORDERS), slack=st.sampled_from([1, 8, 13]),
           seed=st.integers(0, 2**32 - 1), symmetric=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_slack_changes_no_bit_and_is_never_touched(self, n, slack, seed, symmetric):
        m, solve, _ = self._case(n, seed, symmetric)
        view, buf = _slack_filled(m, slack)
        got = solve(view)
        assert np.array_equal(_bits(got), _bits(solve(np.array(m, order="F"))))
        assert np.isnan(buf[n:]).all()


def test_entries_keep_the_formula_bits():
    X = standardize_rows(DataMatrix(np.random.default_rng(8).standard_normal((256, 512))))
    a, T = X.entries, 512
    cov = a @ a.T
    cov /= T
    got = sample_covariance(X).entries
    assert got.flags.f_contiguous
    assert np.array_equal(got.view(np.uint64), cov.T.view(np.uint64))
    for tau in (0, 1, 2):
        # the transpose, formed and divided in C order
        transposed = a[:, tau:] @ a[:, :T - tau].T
        transposed /= T
        got = lagged_correlation(X, tau).entries
        assert got.flags.f_contiguous
        assert np.array_equal(got.view(np.uint64), transposed.T.view(np.uint64))


@pytest.mark.slow
@pytest.mark.skipif(linalg._openblas() is None, reason=_NO_OPENBLAS)
def test_padded_lag_solve_bits_at_acceptance_size(tmp_path):
    path = tmp_path / "capture.rmtc"
    assert run_cli(["generate", "--signal", "ncofdm", "--seed", "5", "--rows", "1024",
                    "--cols", "4096", "--snr-db", "10", "--freq-domain", "-o", str(path)]) == 0
    lag = lagged_correlation(standardize_rows(read_capture(str(path))), 1)
    padded = linalg._owned(lag)
    assert padded.strides == (8, 8 * (2048 + 8))
    got = linalg._eigvals_owned(padded)
    contiguous = np.array(lag.entries, order="F")
    assert np.array_equal(_bits(got), _bits(linalg._eigvals_owned(contiguous)))
