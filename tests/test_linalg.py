import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmtspec import (
    ComplexSpectrum,
    DataMatrix,
    LaggedMatrix,
    eigvals_general,
    eigvals_symmetric,
    lagged_correlation,
    sample_covariance,
    standardize_rows,
)
from rmtspec.errors import NumericalError, ValidationError, ZeroVarianceRow
from rmtspec import linalg

from oracles import (
    charpoly_eigs,
    greedy_pairing_residual,
    lagged_corr_loops,
    reference_standardize_rows,
    sample_cov_loops,
)


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
    """The std pass runs over row chunks; the one-pass form in the oracles is
    the bit-for-bit reference, refusals included (a tiny scale underflows the
    variance to zero)."""

    @given(p=st.integers(1, 11), n=st.integers(2, 40), chunk_rows=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-200, 1.0, 1e150]))
    @settings(max_examples=300, deadline=None)
    def test_bits_match_one_pass(self, p, n, chunk_rows, seed, scale):
        a = scale * (np.random.default_rng(seed).standard_normal((p, n)) + 3.0)
        with mock.patch.object(linalg, "_STD_CHUNK_BYTES", chunk_rows * 8 * n):
            got = _standardized_bits(standardize_rows, a)
        assert got == _standardized_bits(reference_standardize_rows, a)

    def test_bits_match_one_pass_at_capture_width(self):
        a = np.random.default_rng(3).standard_normal((300, 4096))
        got = standardize_rows(DataMatrix(a)).entries
        want = reference_standardize_rows(DataMatrix(a)).entries
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_input_left_unmodified(self, rng):
        X = DataMatrix(rng.standard_normal((7, 9)))
        before = X.entries.copy()
        Y = standardize_rows(X)
        assert np.array_equal(X.entries.view(np.uint64), before.view(np.uint64))
        assert not np.shares_memory(X.entries, Y.entries)

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3, 100])
    def test_first_constant_row_named(self, rng, chunk_rows):
        a = rng.standard_normal((9, 6))
        a[[4, 5, 8]] = 2.5
        with mock.patch.object(linalg, "_STD_CHUNK_BYTES", chunk_rows * 8 * 6), \
                pytest.raises(ZeroVarianceRow) as err:
            standardize_rows(DataMatrix(a))
        assert err.value.row == 4

    def test_single_column_names_row_zero(self):
        with pytest.raises(ZeroVarianceRow) as err:
            standardize_rows(DataMatrix(np.ones((3, 1))))
        assert err.value.row == 0


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
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
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
        # a matrix object other than a covariance is scanned like an array
        with pytest.raises(ValidationError, match=asymmetric):
            eigvals_symmetric(LaggedMatrix(rng.standard_normal((4, 8)), 1))
        with pytest.raises(ValidationError, match=r"^matrix of shape \(2, 3\) is not square$"):
            eigvals_symmetric(np.zeros((2, 3)))

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
        # the same matrix passed as a raw array is scanned
        eigvals_symmetric(C.entries)
        assert len(calls) == 1

    def test_rotation_matrix(self):
        s = eigvals_general(np.array([[0.0, -1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(s.values, [-1j, 1j], atol=1e-12)

    def test_general_diagonal(self):
        s = eigvals_general(np.diag([2.0, 5.0]))
        np.testing.assert_allclose(s.values, [2.0, 5.0], atol=1e-14)

    def test_conjugate_closure(self, rng):
        for _ in range(10):
            M = rng.standard_normal((6, 6))
            v = eigvals_general(M).values
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
            got = eigvals_general(M).values
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

    def test_data_matrix_rejects_non_2d(self):
        with pytest.raises(ValidationError, match=r"^expected a 2-d matrix, got shape \(3,\)$"):
            DataMatrix(np.zeros(3))

    def test_complex_spectrum_sorted(self):
        s = ComplexSpectrum(np.array([2 + 1j, -1 + 0j, 2 - 1j]))
        np.testing.assert_array_equal(s.values, [-1 + 0j, 2 - 1j, 2 + 1j])

    def test_real_spectrum_trace_mismatch(self):
        from rmtspec import RealSpectrum
        with pytest.raises(ValueError):
            RealSpectrum(values=np.array([1.0, 2.0]), matrix_trace=10.0)


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
            got = eigvals_general(C).values
            want = np.linalg.eigvals(C.entries)
            scale = max(1.0, np.abs(want).max())
            assert greedy_pairing_residual(got, want) <= 1e-10 * scale
            if p > n - tau:
                assert np.count_nonzero(got == 0.0) >= p - (n - tau)
            np.testing.assert_array_equal(eigvals_general(C.entries).values,
                                          ComplexSpectrum(want).values)

    def test_entries_built_on_first_access(self, rng):
        X = standardize_rows(DataMatrix(rng.standard_normal((6, 4))))
        a = X.entries
        cov = sample_covariance(X)
        eigvals_symmetric(cov)
        assert "entries" not in vars(cov)  # the small side never builds it
        c = a @ a.T / 4
        np.testing.assert_array_equal(cov.entries, 0.5 * (c + c.T))
        np.testing.assert_array_equal(lagged_correlation(X, 0).entries, 0.5 * (c + c.T))
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
