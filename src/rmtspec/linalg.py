"""Data matrices and their decompositions.

Covers row standardization, sample covariance (optionally shaped by a
population covariance), time-lagged correlation with its shift matrix, the
symmetric/antisymmetric split, and eigenvalue extraction for both the
symmetric and the general (complex-spectrum) case.

A p x p matrix built from p x n data has rank at most n. ``CovarianceMatrix``
and ``LaggedMatrix`` are built from that data alone and form the p x p product
the first time ``entries`` is read. When n < p their eigenvalues are solved on
the small side, which never builds it: AB and BA share their nonzero
eigenvalues, so an n x n eigensolve plus p - n exact zeros gives the whole
spectrum.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    LagOutOfRange,
    NonFiniteData,
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

_STD_CHUNK_BYTES = 1 << 22  # bytes of each row chunk of standardize_rows' std pass


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
            raise NonFiniteData("data matrix contains non-finite entries")
        object.__setattr__(self, "entries", a)

    @property
    def p(self) -> int:
        return self.entries.shape[0]

    @property
    def n(self) -> int:
        return self.entries.shape[1]


class CovarianceMatrix:
    """Real symmetric PSD matrix ``a a^T / n`` of the p x n array ``data``.

    The p x p ``entries`` is formed the first time it is read, exactly
    symmetric.
    """

    def __init__(self, data: np.ndarray):
        self.data = data

    @functools.cached_property
    def entries(self) -> np.ndarray:
        return _gram(self.data)


class LaggedMatrix:
    """Lag-tau correlation matrix ``a[:, :T-tau] a[:, tau:]^T / T`` of the
    p x T array ``data``, symmetrized at tau = 0; non-symmetric for tau > 0.

    The p x p ``entries`` is formed the first time it is read.
    """

    def __init__(self, data: np.ndarray, tau: int):
        if not 0 <= tau < data.shape[1]:
            raise LagOutOfRange(f"tau={tau} outside [0, {data.shape[1] - 1}]")
        self.data = data
        self.tau = tau

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
    ``X`` is left as it is; the centered copy is the one new matrix.
    """
    a = X.entries
    # sample std, divisor n-1; a single-column row is constant by definition
    if a.shape[1] < 2:
        raise ZeroVarianceRow(0)
    centered = a - a.mean(axis=1, keepdims=True)
    # each row's std is its own pairwise sum, so a row chunk gives the same bits
    std = np.empty((a.shape[0], 1))
    step = max(1, _STD_CHUNK_BYTES // centered[0].nbytes)
    for lo in range(0, a.shape[0], step):
        std[lo:lo + step] = centered[lo:lo + step].std(axis=1, ddof=1, keepdims=True)
    bad = np.flatnonzero(std[:, 0] == 0.0)
    if bad.size:
        raise ZeroVarianceRow(int(bad[0]))
    np.divide(centered, std, out=centered)
    return DataMatrix(centered, standardized=True)


def matrix_sqrt_psd(T: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root S with S @ S = T."""
    a = np.asarray(T, dtype=np.float64)
    _require_symmetric(a)
    w, V = np.linalg.eigh(a)
    norm = max(np.abs(w).max(), 1e-300)
    if w.min() < -1e-8 * norm:
        raise NotPSD(f"minimum eigenvalue {w.min()} below PSD tolerance")
    s = V @ (np.sqrt(np.clip(w, 0.0, None))[:, None] * V.T)
    return 0.5 * (s + s.T)


def sample_covariance(X: DataMatrix, T: np.ndarray | None = None) -> CovarianceMatrix:
    """Sample covariance (1/n) S X X^T S, S the PSD root of the p x p
    population matrix ``T`` (identity when omitted)."""
    a = X.entries
    if T is not None:
        p = a.shape[0]
        if np.shape(T) != (p, p):
            raise DimensionMismatch(f"population matrix is {np.shape(T)}, data has p={p}")
        a = matrix_sqrt_psd(T) @ a
    return CovarianceMatrix(a)


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
    return LaggedMatrix(X.entries, tau)


def split_symmetric(C: LaggedMatrix | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(C + C^T)/2 and (C - C^T)/2 of a ``LaggedMatrix`` or a square array;
    the parts sum back to C exactly."""
    a = np.asarray(getattr(C, "entries", C), dtype=np.float64)
    sym = 0.5 * (a + a.T)
    return sym, a - sym


def eigvals_symmetric(A) -> RealSpectrum:
    """All eigenvalues of a symmetric matrix, ascending.

    A ``CovarianceMatrix`` is solved from its p x n data: when n < p as
    ``eigvalsh(a^T a / n)`` plus p - n exact zeros, without forming the
    p x p matrix, otherwise from its formed ``entries``, symmetric by
    construction and not scanned again. A raw array is checked for symmetry
    and solved dense. The eigenvalue sum is checked against the trace.
    """
    if isinstance(A, CovarianceMatrix) and A.data.shape[1] < A.data.shape[0]:
        d = A.data
        p, n = d.shape
        small = d.T @ d / n
        _require_symmetric(small)
        w = np.concatenate([np.zeros(p - n), np.linalg.eigvalsh(small)])
        # ||a||_F^2 / n, taken from the data rather than the matrix solved
        trace = float(np.einsum("ij,ij->", d, d)) / n
    else:
        a = np.asarray(getattr(A, "entries", A), dtype=np.float64)
        if not isinstance(A, CovarianceMatrix):
            _require_symmetric(a)
        w = np.linalg.eigvalsh(a)
        trace = float(np.trace(a))
    return RealSpectrum(values=w, matrix_trace=trace)


def eigvals_general(C) -> ComplexSpectrum:
    """All (generally complex) eigenvalues of a square matrix.

    A ``LaggedMatrix`` is solved from its p x T data: when m = T - tau < p
    as ``eigvals(a[:, tau:]^T a[:, :m] / T)`` plus p - m exact zeros,
    without forming the p x p matrix, otherwise from its formed ``entries``.
    A raw array is solved dense.
    """
    zeros = 0
    if isinstance(C, LaggedMatrix) and C.data.shape[1] - C.tau < C.data.shape[0]:
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


def _require_symmetric(a: np.ndarray, rel_tol: float = 1e-10) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetric(f"matrix of shape {a.shape} is not square")
    scale = max(np.abs(a).max(), 1e-300)
    dev = np.abs(a - a.T).max()
    if dev > rel_tol * scale:
        raise NotSymmetric(f"asymmetry {dev} exceeds {rel_tol} * {scale}")
