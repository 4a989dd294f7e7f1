"""Data matrices and their decompositions.

Covers row standardization, sample covariance (optionally shaped by a
population covariance), time-lagged correlation with its shift matrix, the
symmetric/antisymmetric split, and eigenvalue extraction for both the
symmetric and the general (complex-spectrum) case.

A p x p matrix built from p x n data has rank at most n. When it keeps that
data and n < p, its eigenvalues are solved on the small side: AB and BA share
their nonzero eigenvalues, so an n x n eigensolve plus p - n exact zeros gives
the whole spectrum. The matrices that ``sample_covariance`` and
``lagged_correlation`` return hold only that data and form the p x p product
the first time ``entries`` is read, so the small side never builds it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    LagOutOfRange,
    NotPSD,
    NotStandardized,
    NotSymmetric,
    ZeroVarianceRow,
)

__all__ = [
    "DataMatrix",
    "CovarianceMatrix",
    "LaggedMatrix",
    "RealSpectrum",
    "ComplexSpectrum",
    "standardize_rows",
    "matrix_sqrt_psd",
    "sample_covariance",
    "shift_matrix",
    "lagged_correlation",
    "split_symmetric",
    "eigvals_symmetric",
    "eigvals_general",
]


@dataclass(frozen=True)
class DataMatrix:
    """p x n observation matrix: rows are dimensions, columns are samples."""

    entries: np.ndarray
    standardized: bool = False

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise DimensionMismatch(f"expected a 2-d matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("data matrix contains non-finite entries")
        object.__setattr__(self, "entries", a)

    @property
    def p(self) -> int:
        return self.entries.shape[0]

    @property
    def n(self) -> int:
        return self.entries.shape[1]


class CovarianceMatrix:
    """Real symmetric PSD matrix with the (p, n) it was estimated from.

    Built from ``entries``, from ``data`` (the p x n array ``a`` with
    ``entries = a a^T / n``), or both. When only ``data`` is given, the
    p x p ``entries`` is formed the first time it is read, exactly symmetric.
    """

    def __init__(self, entries: np.ndarray | None, source_dims: tuple[int, int],
                 data: np.ndarray | None = None):
        _check_source(entries, data)
        if entries is not None:
            self.entries = entries
        self.source_dims = source_dims
        self.data = data
        self._formed_from_data = entries is None

    @functools.cached_property
    def entries(self) -> np.ndarray:
        return _gram(self.data)


class LaggedMatrix:
    """Lag-tau correlation matrix; non-symmetric for tau > 0.

    Built from ``entries``, from ``data`` (the p x T array ``a`` with
    ``entries = a[:, :T-tau] a[:, tau:]^T / T``, symmetrized at tau = 0),
    or both. When only ``data`` is given, the p x p ``entries`` is formed the
    first time it is read.
    """

    def __init__(self, entries: np.ndarray | None, tau: int, source_dims: tuple[int, int],
                 data: np.ndarray | None = None):
        _check_source(entries, data)
        if data is not None and not 0 <= tau < data.shape[1]:
            raise LagOutOfRange(f"tau={tau} outside [0, {data.shape[1] - 1}]")
        if entries is not None:
            self.entries = entries
        self.tau = tau
        self.source_dims = source_dims
        self.data = data

    @functools.cached_property
    def entries(self) -> np.ndarray:
        a, tau = self.data, self.tau
        T = a.shape[1]
        if tau == 0:
            return _gram(a)
        return (a[:, : T - tau] @ a[:, tau:].T) / T


@dataclass(frozen=True)
class RealSpectrum:
    """Eigenvalues of a symmetric matrix, ascending, plus the matrix trace."""

    values: np.ndarray
    matrix_trace: float

    def __post_init__(self):
        v = np.sort(np.asarray(self.values, dtype=np.float64))
        object.__setattr__(self, "values", v)
        scale = max(1.0, abs(self.matrix_trace))
        if abs(v.sum() - self.matrix_trace) > 1e-8 * scale:
            raise ValueError(
                f"eigenvalue sum {v.sum()!r} inconsistent with trace {self.matrix_trace!r}"
            )


@dataclass(frozen=True)
class ComplexSpectrum:
    """Eigenvalues of a general square matrix, sorted by (real, imag)."""

    values: np.ndarray = field(default_factory=lambda: np.empty(0, complex))

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        order = np.lexsort((v.imag, v.real))
        object.__setattr__(self, "values", v[order])


def standardize_rows(X: DataMatrix) -> DataMatrix:
    """Shift/scale each row to mean 0 and sample variance 1 (divisor n-1).

    Raises ``ZeroVarianceRow`` on a constant row. Idempotent up to rounding.
    """
    a = X.entries
    mean = a.mean(axis=1, keepdims=True)
    centered = a - mean
    # sample std, divisor n-1; a single-column row is constant by definition
    if a.shape[1] < 2:
        raise ZeroVarianceRow(0)
    std = centered.std(axis=1, ddof=1, keepdims=True)
    bad = np.where(std[:, 0] == 0.0)[0]
    if bad.size:
        raise ZeroVarianceRow(int(bad[0]))
    return DataMatrix(centered / std, standardized=True)


def matrix_sqrt_psd(T: CovarianceMatrix) -> CovarianceMatrix:
    """Symmetric PSD square root S with S @ S = T."""
    a = np.asarray(T.entries, dtype=np.float64)
    _require_symmetric(a)
    w, V = np.linalg.eigh(a)
    norm = max(np.abs(w).max(), 1e-300)
    if w.min() < -1e-8 * norm:
        raise NotPSD(f"minimum eigenvalue {w.min()} below PSD tolerance")
    s = V @ (np.sqrt(np.clip(w, 0.0, None))[:, None] * V.T)
    s = 0.5 * (s + s.T)
    return CovarianceMatrix(s, source_dims=T.source_dims)


def sample_covariance(X: DataMatrix, T: CovarianceMatrix | None = None) -> CovarianceMatrix:
    """Sample covariance (1/n) S X X^T S, S the PSD root of the population
    matrix ``T`` (identity when omitted)."""
    a = X.entries
    p, n = a.shape
    if T is not None:
        if np.asarray(T.entries).shape != (p, p):
            raise DimensionMismatch(
                f"population matrix is {np.asarray(T.entries).shape}, data has p={p}"
            )
        s = matrix_sqrt_psd(T).entries
        a = s @ a
    return CovarianceMatrix(None, source_dims=(p, n), data=a)


def shift_matrix(T: int, tau: int) -> np.ndarray:
    """T x T lag indicator: entry (t, t') is 1 iff t' = t + tau (non-circular)."""
    if not 0 <= tau <= T - 1:
        raise LagOutOfRange(f"tau={tau} outside [0, {T - 1}]")
    D = np.zeros((T, T))
    idx = np.arange(T - tau)
    D[idx, idx + tau] = 1.0
    return D


def lagged_correlation(X: DataMatrix, tau: int) -> LaggedMatrix:
    """Lagged correlation C = (1/T) X D_tau X^T of a standardized matrix.

    Equivalent to C_ij = (1/T) sum_t X[i, t] X[j, t + tau] with the sum
    truncated at the boundary (no wrap-around).
    """
    if not X.standardized:
        raise NotStandardized("lagged_correlation requires a standardized matrix")
    a = X.entries
    p, T = a.shape
    if not 0 <= tau <= T - 1:
        raise LagOutOfRange(f"tau={tau} outside [0, {T - 1}]")
    return LaggedMatrix(None, tau=tau, source_dims=(p, T), data=a)


def split_symmetric(C: LaggedMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(C + C^T)/2 and (C - C^T)/2; the parts sum back to C exactly."""
    a = np.asarray(C.entries, dtype=np.float64)
    sym = 0.5 * (a + a.T)
    return sym, a - sym


def eigvals_symmetric(A) -> RealSpectrum:
    """All eigenvalues of a symmetric matrix, ascending.

    A ``CovarianceMatrix`` that keeps its p x n data with n < p is solved as
    ``eigvalsh(a^T a / n)`` plus p - n exact zeros, without forming the
    p x p matrix; anything else, including a raw array, by a dense
    eigensolve of the matrix itself. The matrix solved is checked for
    symmetry, except the ``entries`` a ``CovarianceMatrix`` formed from its
    data (symmetrized by construction); the eigenvalue sum is checked
    against the trace.
    """
    if isinstance(A, CovarianceMatrix) and A.data is not None \
            and A.data.shape[1] < A.data.shape[0]:
        d = A.data
        p, n = d.shape
        small = d.T @ d / n
        _require_symmetric(small)
        w = np.concatenate([np.zeros(p - n), np.linalg.eigvalsh(small)])
        # ||a||_F^2 / n, taken from the data rather than the matrix solved
        trace = float(np.einsum("ij,ij->", d, d)) / n
    else:
        a = np.asarray(getattr(A, "entries", A), dtype=np.float64)
        if not (isinstance(A, CovarianceMatrix) and A._formed_from_data):
            _require_symmetric(a)
        w = np.linalg.eigvalsh(a)
        trace = float(np.trace(a))
    return RealSpectrum(values=w, matrix_trace=trace)


def eigvals_general(C) -> ComplexSpectrum:
    """All (generally complex) eigenvalues of a square matrix.

    A ``LaggedMatrix`` that keeps its p x T data with m = T - tau < p is
    solved as ``eigvals(a[:, tau:]^T a[:, :m] / T)`` plus p - m exact zeros,
    without forming the p x p matrix; anything else, including a raw array,
    by a dense eigensolve.
    """
    zeros = 0
    if isinstance(C, LaggedMatrix) and C.data is not None \
            and C.data.shape[1] - C.tau < C.data.shape[0]:
        d, tau = C.data, C.tau
        p, T = d.shape
        m = T - tau
        a = d[:, tau:].T @ d[:, :m] / T
        zeros = p - m
    else:
        a = np.asarray(getattr(C, "entries", C))
    try:
        w = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    return ComplexSpectrum(values=np.concatenate([np.zeros(zeros), w]))


def _gram(a: np.ndarray) -> np.ndarray:
    """Symmetrized a a^T / n of a p x n array."""
    g = (a @ a.T) / a.shape[1]
    return 0.5 * (g + g.T)


def _check_source(entries: np.ndarray | None, data: np.ndarray | None) -> None:
    if entries is None and data is None:
        raise ValueError("a matrix needs its entries, its source data, or both")
    if data is not None and (np.ndim(data) != 2 or (
            entries is not None and np.shape(data)[0] != np.shape(entries)[0])):
        raise DimensionMismatch(
            f"source data of shape {np.shape(data)} does not match a matrix of "
            f"shape {np.shape(entries)}"
        )


def _require_symmetric(a: np.ndarray, rel_tol: float = 1e-10) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetric(f"matrix of shape {a.shape} is not square")
    scale = max(np.abs(a).max(), 1e-300)
    dev = np.abs(a - a.T).max()
    if dev > rel_tol * scale:
        raise NotSymmetric(f"asymmetry {dev} exceeds {rel_tol} * {scale}")
