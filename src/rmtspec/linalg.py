"""Data matrices and their decompositions.

Covers row standardization, sample covariance (optionally shaped by a
population covariance), time-lagged correlation with its shift matrix, the
symmetric/antisymmetric split, and eigenvalue extraction for both the
symmetric and the general (complex-spectrum) case.

A p x p matrix built from p x n data has rank at most n. When it keeps that
data and n < p, its eigenvalues are solved on the small side: AB and BA share
their nonzero eigenvalues, so an n x n eigensolve plus p - n exact zeros gives
the whole spectrum.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class CovarianceMatrix:
    """Real symmetric PSD matrix with the (p, n) it was estimated from.

    ``data``, when given, is the p x n array ``a`` with ``entries = a a^T / n``.
    """

    entries: np.ndarray
    source_dims: tuple[int, int]
    data: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        _check_source(self.entries, self.data)


@dataclass(frozen=True)
class LaggedMatrix:
    """Lag-tau correlation matrix; non-symmetric for tau > 0.

    ``data``, when given, is the p x T array ``a`` with
    ``entries = a[:, :T-tau] a[:, tau:]^T / T``.
    """

    entries: np.ndarray
    tau: int
    source_dims: tuple[int, int]
    data: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        _check_source(self.entries, self.data)
        if self.data is not None and not 0 <= self.tau < self.data.shape[1]:
            raise LagOutOfRange(f"tau={self.tau} outside [0, {self.data.shape[1] - 1}]")


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
    cov = (a @ a.T) / n
    cov = 0.5 * (cov + cov.T)
    return CovarianceMatrix(cov, source_dims=(p, n), data=a)


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
    if tau == 0:
        C = (a @ a.T) / T
        C = 0.5 * (C + C.T)
    else:
        C = (a[:, : T - tau] @ a[:, tau:].T) / T
    return LaggedMatrix(C, tau=tau, source_dims=(p, T), data=a)


def split_symmetric(C: LaggedMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(C + C^T)/2 and (C - C^T)/2; the parts sum back to C exactly."""
    a = np.asarray(C.entries, dtype=np.float64)
    sym = 0.5 * (a + a.T)
    return sym, a - sym


def eigvals_symmetric(A) -> RealSpectrum:
    """All eigenvalues of a symmetric matrix, ascending.

    A ``CovarianceMatrix`` that keeps its p x n data with n < p is solved as
    ``eigvalsh(a^T a / n)`` plus p - n exact zeros; anything else, including
    a raw array, by a dense eigensolve of the matrix itself.
    """
    a = np.asarray(A.entries if hasattr(A, "entries") else A, dtype=np.float64)
    _require_symmetric(a)
    if isinstance(A, CovarianceMatrix) and A.data is not None and A.data.shape[1] < a.shape[0]:
        d = A.data
        w = np.linalg.eigvalsh(d.T @ d / d.shape[1])
        w = np.concatenate([np.zeros(a.shape[0] - len(w)), w])
    else:
        w = np.linalg.eigvalsh(a)
    # the trace of the p x p matrix cross-checks the small-side solve as well
    return RealSpectrum(values=w, matrix_trace=float(np.trace(a)))


def eigvals_general(C) -> ComplexSpectrum:
    """All (generally complex) eigenvalues of a square matrix.

    A ``LaggedMatrix`` that keeps its p x T data with m = T - tau < p is
    solved as ``eigvals(a[:, tau:]^T a[:, :m] / T)`` plus p - m exact zeros;
    anything else, including a raw array, by a dense eigensolve.
    """
    a = np.asarray(C.entries if hasattr(C, "entries") else C)
    small = None
    if isinstance(C, LaggedMatrix) and C.data is not None:
        d, tau = C.data, C.tau
        m = d.shape[1] - tau
        if m < a.shape[0]:
            small = d[:, tau:].T @ d[:, :m] / d.shape[1]
    try:
        w = np.linalg.eigvals(a if small is None else small)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    if small is not None:
        w = np.concatenate([np.zeros(a.shape[0] - len(w)), w])
    return ComplexSpectrum(values=w)


def _check_source(entries: np.ndarray, data: np.ndarray | None) -> None:
    if data is not None and (np.ndim(data) != 2 or np.shape(data)[0] != np.shape(entries)[0]):
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
