"""Data matrices and their decompositions.

Covers row standardization, sample covariance, time-lagged correlation, and
eigenvalue extraction for both the symmetric and the general
(complex-spectrum) case.

A p x p matrix built from p x n data has rank at most n. ``CovarianceMatrix``
and ``LaggedMatrix`` are built from that data alone and form the p x p product
the first time ``entries`` is read. When n < p their eigenvalues are solved on
the small side, which never builds it: AB and BA share their nonzero
eigenvalues, so an n x n eigensolve plus p - n exact zeros gives the whole
spectrum.

Dense eigensolves run numpy's own LAPACK routines from numpy's vendored
OpenBLAS, stage by stage, in place on an F-ordered product this module formed
itself (a cached ``entries`` or a raw array is copied once). The symmetric
solve is ``dsyevd('N', 'L')``, numpy's ``eigvalsh``. The general solve is
``dgeev``'s eigenvalue path: ``dgebal`` and ``dgehrd`` on the pool, then the
QR iteration ``dhseqr`` on one thread. Timed on a 2-vCPU host (wall / CPU
seconds, pool against one thread, padded layout below), ``dhseqr`` took
1.43 / 2.84 against 1.44 / 1.57 at order 2048 and 0.56 / 1.11 against
0.55 / 0.67 at order 1024, while ``dgehrd`` gained from the pool: 1.05
against 1.83 s wall at 2048.
Below order 75 the QR stage is ``dlahqr``, which makes no BLAS-3 call, so
there the spectrum has ``eigvals``' bits; above, one thread may move it in the
last bits (2.1e-14 at order 2048). A matrix whose largest |entry| lies
outside ``dgeev``'s unscaled range [sqrt(tiny)/eps, eps/sqrt(tiny)], or that
is not finite, is left to ``np.linalg``, as is everything with a BLAS other
than numpy's vendored OpenBLAS.

Every matrix a LAPACK stage overwrites (the product formed for a dense or a
small-side solve, or the one copy of a cached ``entries`` or a raw array) has
8 doubles, one 64-byte line, of slack below each column, and the stages get
LDA = n + 8. A frequency-domain NC-OFDM capture has a power-of-two order
(``NcofdmSpec`` requires a power-of-two ``n_fft``, and p = 2 * n_fft). With a
column stride of 2048 doubles a row of the matrix falls into a few cache sets,
so the row sweeps of ``dgebal`` and ``dhseqr`` evict their own lines. The slack changes no
floating-point operation, so the spectra keep their bits. On the lag matrix of
a 2048 x 4096 NC-OFDM capture (2-vCPU host, median of 5) it took ``dgebal``
from 0.110 to 0.037 s, ``dgehrd`` from 1.01 to 0.99 s and one-thread
``dhseqr`` from 1.68 to 1.44 s at order 2048; ``dhseqr`` from 0.65 to 0.55 s
at 1024 and from 0.22 to 0.16 s at 512. It gave nothing at order 1000, or to
``dsyevd`` at 2048 (0.51 against 0.50 s). ``entries`` stays an unpadded
F-ordered array.

A small-side solve of order m <= 128 whose product has m * m * p <= 2**24
multiply-adds (a 2048 x 64 capture has 8 Mi) runs on one OpenBLAS thread,
together with that product. On a 2-vCPU host at p = 2048 a second thread gave
it no wall time: a 63 x 2048 x 63 lag product woke it, and it then kept
spinning after the call, about doubling the process's CPU time. A longer
product (16384 x 128, 65536 x 64) formed faster on the pool and keeps it, as
do the other stages of dense solves. The count is lowered only while a stage
runs and only when it is above 1, so a lower count set by ``RMT_THREADS`` or
``OPENBLAS_NUM_THREADS`` is never raised. The count is process-wide: BLAS
called from another Python thread meanwhile runs on one thread too.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .errors import NumericalError, ValidationError, ZeroVarianceRow

__all__ = [
    "DataMatrix",
    "CovarianceMatrix",
    "LaggedMatrix",
    "RealSpectrum",
    "ComplexSpectrum",
    "standardize_rows",
    "sample_covariance",
    "lagged_correlation",
    "eigvals_symmetric",
    "eigvals_general",
]

_STD_CHUNK_BYTES = 1 << 22  # bytes of each row chunk of standardize_rows' std pass
# doubles of slack below each column of a matrix a LAPACK stage overwrites: one
# 64-byte line, so that a power-of-two order does not give a power-of-two stride
_SLACK = 8
# largest small side run on one BLAS thread: its order m (at p = 2048 one thread
# ties at 128 and loses wall time from 256 on), and the m * m * p multiply-adds
# of the product that forms it (the pool forms it faster from 2**25 on)
_ONE_THREAD_MAX_ORDER = 128
_ONE_THREAD_MAX_PRODUCT = 1 << 24
# dgeev scales a matrix whose largest |entry| lies outside [2**-459, 2**459]
# (sqrt(tiny) / eps and its inverse) before it balances; the staged solve does not
_GEEV_SMALL = np.sqrt(np.finfo(np.float64).tiny) / np.finfo(np.float64).eps
_GEEV_BIG = 1.0 / _GEEV_SMALL


@dataclass(frozen=True)
class DataMatrix:
    """p x n observation matrix: rows are dimensions, columns are samples."""

    entries: np.ndarray
    standardized: bool = False

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise ValidationError(f"expected a 2-d matrix, got shape {a.shape}")
        # min and max carry any NaN and expose any inf without a p x n mask
        if not (np.isfinite(a.min()) and np.isfinite(a.max())):
            raise ValidationError("data matrix contains non-finite entries")
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
        p = self.data.shape[0]
        return self._form(np.empty((p, p), order="F"))

    def _form(self, out: np.ndarray) -> np.ndarray:
        """The matrix, written into the F-ordered p x p array ``out``."""
        a = self.data
        return _product(a, a.T, a.shape[1], out)


class LaggedMatrix:
    """Lag-tau correlation matrix ``a[:, :T-tau] a[:, tau:]^T / T`` of the
    p x T array ``data``, exactly symmetric at tau = 0; non-symmetric for tau > 0.

    The p x p ``entries`` is formed the first time it is read.
    """

    def __init__(self, data: np.ndarray, tau: int):
        if not 0 <= tau < data.shape[1]:
            raise ValidationError(f"tau={tau} outside [0, {data.shape[1] - 1}]")
        self.data = data
        self.tau = tau

    @functools.cached_property
    def entries(self) -> np.ndarray:
        p = self.data.shape[0]
        return self._form(np.empty((p, p), order="F"))

    def _form(self, out: np.ndarray) -> np.ndarray:
        """The matrix, written into the F-ordered p x p array ``out``: its
        transpose ``a[:, tau:] a[:, :T-tau]^T / T`` is formed in C order (at
        tau = 0 the Gram product of the covariance)."""
        a, tau = self.data, self.tau
        T = a.shape[1]
        return _product(a[:, tau:], a[:, : T - tau].T, T, out)


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


def sample_covariance(X: DataMatrix) -> CovarianceMatrix:
    """Sample covariance (1/n) X X^T."""
    return CovarianceMatrix(X.entries)


def lagged_correlation(X: DataMatrix, tau: int) -> LaggedMatrix:
    """Lagged correlation C_ij = (1/T) sum_t X[i, t] X[j, t + tau] of a
    standardized matrix, the sum truncated at the boundary (no wrap-around)."""
    if not X.standardized:
        raise ValidationError("lagged_correlation requires a standardized matrix")
    return LaggedMatrix(X.entries, tau)


def eigvals_symmetric(A) -> RealSpectrum:
    """All eigenvalues of a symmetric matrix, ascending.

    A ``CovarianceMatrix`` is solved from its p x n data: when n < p as
    ``eigvalsh(a^T a / n)`` plus p - n exact zeros, without forming the
    p x p matrix, otherwise from the p x p matrix; both are symmetric by
    construction and not scanned. A raw array is checked for symmetry and
    solved dense. The eigenvalue sum is checked against the trace. A small
    side within the limits above runs on one BLAS thread. ``NumericalError``
    reports a solve that did not converge.
    """
    if isinstance(A, CovarianceMatrix) and A.data.shape[1] < A.data.shape[0]:
        d = A.data
        p, n = d.shape
        with _one_blas_thread(_small_side(n, p)):
            w = _eigvalsh_owned(_product(d.T, d, n, _lapack_matrix(n)))
        w = np.concatenate([np.zeros(p - n), w])
        # ||a||_F^2 / n, taken from the data rather than the matrix solved
        trace = float(np.einsum("ij,ij->", d, d)) / n
    else:
        a = _owned(A, np.float64)
        if not isinstance(A, CovarianceMatrix):
            _require_symmetric(a)
        trace = float(np.trace(a))
        w = _eigvalsh_owned(a)
    return RealSpectrum(values=w, matrix_trace=trace)


def eigvals_general(C) -> ComplexSpectrum:
    """All (generally complex) eigenvalues of a square matrix.

    A ``LaggedMatrix`` is solved from its p x T data: when m = T - tau < p
    as ``eigvals(a[:, tau:]^T a[:, :m] / T)`` plus p - m exact zeros,
    without forming the p x p matrix, otherwise from the p x p matrix. A
    raw array is solved dense. A small side within the limits above runs on
    one BLAS thread, and every QR stage does. ``NumericalError`` reports a
    solve that did not converge, or a non-finite input.
    """
    zeros = 0
    try:
        if isinstance(C, LaggedMatrix) and C.data.shape[1] - C.tau < C.data.shape[0]:
            d, tau = C.data, C.tau
            p, T = d.shape
            m = T - tau
            with _one_blas_thread(_small_side(m, p)):
                # formed in C order and copied: formed F-ordered, the product
                # (and so the spectrum) can differ in the last bits
                w = _eigvals_owned(np.divide(d[:, tau:].T @ d[:, :m], T, out=_lapack_matrix(m)))
            zeros = p - m
        else:
            w = _eigvals_owned(_owned(C))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(str(exc)) from exc
    return ComplexSpectrum(values=np.concatenate([np.zeros(zeros), w]))


def _owned(M, dtype=None) -> np.ndarray:
    """The matrix of ``M`` as a new F-ordered array that a solve may
    overwrite: formed from the data of a ``CovarianceMatrix`` or
    ``LaggedMatrix`` whose ``entries`` have not been (and not cached), else
    copied once from ``entries`` or from ``M`` itself. A square float64
    matrix lands in a ``_lapack_matrix``."""
    if isinstance(M, (CovarianceMatrix, LaggedMatrix)) and "entries" not in vars(M):
        return M._form(_lapack_matrix(M.data.shape[0]))
    a = np.asarray(getattr(M, "entries", M))
    square = a.ndim == 2 and a.shape[0] == a.shape[1] > 0
    if not square or np.dtype(dtype or a.dtype) != np.float64:
        return np.array(a, dtype=dtype, order="F")
    out = _lapack_matrix(a.shape[0])
    out[...] = a
    return out


def _lapack_matrix(n: int) -> np.ndarray:
    """An uninitialised n x n float64 array for a LAPACK stage to overwrite:
    F-ordered, with its columns n + 8 doubles apart, so that no power-of-two
    order gives a power-of-two column stride."""
    return np.empty((n + _SLACK, n), order="F")[:n]


# arguments of each LAPACK routine called, INFO included; all by reference
_LAPACK_ARGS = {"dsyevd": 11, "dgeev": 14, "dgebal": 8, "dgehrd": 9, "dhseqr": 14}


class _OpenBLAS(NamedTuple):
    """Thread count and LAPACK routines of numpy's vendored OpenBLAS."""

    get_threads: Callable
    set_threads: Callable
    dsyevd: Callable
    dgeev: Callable
    dgebal: Callable
    dgehrd: Callable
    dhseqr: Callable


@functools.cache
def _openblas() -> _OpenBLAS | None:
    """Handles into numpy's vendored OpenBLAS, or None when numpy has not
    loaded one (another BLAS)."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
            routines = {name: getattr(lib, f"scipy_{name}_64_") for name in _LAPACK_ARGS}
            get, set_threads = (lib.scipy_openblas_get_num_threads64_,
                                lib.scipy_openblas_set_num_threads64_)
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        for name, routine in routines.items():
            routine.argtypes = [ctypes.c_void_p] * _LAPACK_ARGS[name]
            routine.restype = None
        return _OpenBLAS(get, set_threads, **routines)
    return None


def _lapack(routine, *args) -> int:
    """Call a LAPACK routine of the ILP64 OpenBLAS, passing every argument by
    reference (a bytes flag as is, an int as an int64, an array as its
    buffer, a ctypes integer as a pointer) and a trailing INFO; returns INFO
    when >= 0."""
    info = ctypes.c_int64()
    refs = [x if isinstance(x, bytes)
            else ctypes.pointer(ctypes.c_int64(x)) if isinstance(x, int)
            else ctypes.c_void_p(x.ctypes.data) if isinstance(x, np.ndarray)
            else ctypes.pointer(x) for x in args]
    routine(*refs, ctypes.pointer(info))
    if info.value < 0:
        raise ValueError(f"LAPACK argument {-info.value} is illegal")
    return info.value


def _lda(a: np.ndarray) -> int:
    """The leading dimension LDA with which the LAPACK calls take ``a``, or 0
    when they cannot: ``a`` must be a non-empty, square, writeable float64
    matrix with contiguous columns at least n doubles apart."""
    if not (a.dtype == np.float64 and a.ndim == 2 and a.shape[0] == a.shape[1] > 0
            and a.flags.writeable):
        return 0
    n = a.shape[0]
    if a.flags.f_contiguous:  # also a 1 x 1 matrix, whose strides are arbitrary
        return n
    step, stride = a.strides
    lda, rest = divmod(stride, a.itemsize)
    return lda if step == a.itemsize and rest == 0 and lda >= n else 0


def _eigvalsh_owned(a: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, of the symmetric F-ordered float64 array ``a``,
    whose lower triangle is overwritten: ``dsyevd('N', 'L')`` with its own
    workspace query, numpy's ``eigvalsh`` without its copy. An array in
    another layout (see ``_lda``) goes to ``np.linalg.eigvalsh``."""
    blas = _openblas()
    lda = _lda(a)
    if blas is None or not lda:
        try:
            return np.linalg.eigvalsh(a)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(str(exc)) from exc
    n = a.shape[0]
    w, work, iwork = np.empty(n), np.empty(1), np.empty(1, np.int64)
    _lapack(blas.dsyevd, b"N", b"L", n, a, lda, w, work, -1, iwork, -1)
    work, iwork = np.empty(int(work[0])), np.empty(int(iwork[0]), np.int64)
    if _lapack(blas.dsyevd, b"N", b"L", n, a, lda, w, work, work.size, iwork, iwork.size):
        raise NumericalError("Eigenvalues did not converge")
    return w


def _eigvals_owned(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of the F-ordered square array ``a``, which is overwritten.

    ``dgeev('N', 'N')`` without its copy, stage by stage, with ``dgeev``'s
    workspace split as ``dgeev`` splits it (``dgehrd``'s block size, and so
    the bits, depend on it): ``dgebal('B')`` and ``dgehrd`` on the pool,
    ``dhseqr('E', 'N')`` on one thread. Real eigenvalues come back as a real
    array, as from ``eigvals``. An array in another layout (see ``_lda``),
    not finite, or outside ``dgeev``'s unscaled range goes to
    ``np.linalg.eigvals``, which raises ``LinAlgError`` where it refuses.
    """
    blas = _openblas()
    lda = _lda(a)
    amax = max(a.max(), -a.min()) if lda else np.nan
    if blas is None or not (amax == 0.0 or _GEEV_SMALL <= amax <= _GEEV_BIG):
        return np.linalg.eigvals(a)
    n = a.shape[0]
    wr, wi, query = np.empty(n), np.empty(n), np.empty(1)
    _lapack(blas.dgeev, b"N", b"N", n, a, lda, wr, wi, query, 1, query, 1, query, -1)
    lwork = int(query[0])
    work = np.empty(lwork)
    ilo, ihi = ctypes.c_int64(), ctypes.c_int64()
    # WORK(1:N) holds the balancing scales, WORK(N+1:2N) the reflectors' tau
    _lapack(blas.dgebal, b"B", n, a, lda, ilo, ihi, work)
    _lapack(blas.dgehrd, n, ilo, ihi, a, lda, work[n:], work[2 * n:], lwork - 2 * n)
    with _one_blas_thread():
        info = _lapack(blas.dhseqr, b"E", b"N", n, ilo, ihi, a, lda, wr, wi, query, 1,
                       work[n:], lwork - n)
    if info:
        raise NumericalError("Eigenvalues did not converge")
    if not wi.any():
        return wr
    w = np.empty(n, np.complex128)
    w.real, w.imag = wr, wi
    return w


def _small_side(m: int, p: int) -> bool:
    """Whether the m x m product of p x m data is small enough to form and
    solve on one BLAS thread: m <= 128 and m * m * p <= 2**24."""
    return m <= _ONE_THREAD_MAX_ORDER and m * m * p <= _ONE_THREAD_MAX_PRODUCT


@contextlib.contextmanager
def _one_blas_thread(lower: bool = True):
    """Run the block on one OpenBLAS thread, if ``lower``.

    Lowers the process-wide count only, never raises it, and restores it on
    exit, also when the block raises. No lock: a thread lowers the count only
    when it reads one above 1 and then restores what it read, so concurrent
    solves cannot leave it at 1; one may run on the pool if another restores
    first.
    """
    blas = _openblas() if lower else None
    before = blas.get_threads() if blas else 1
    if before > 1:
        blas.set_threads(1)
    try:
        yield
    finally:
        if before > 1:
            blas.set_threads(before)


def _product(x: np.ndarray, y: np.ndarray, n: int, out: np.ndarray) -> np.ndarray:
    """``(x @ y)^T / n`` written into the F-ordered array ``out``, which is
    returned: ``x @ y`` is formed in C order as ``out.T`` and divided in
    place. ``x @ x.T`` comes out exactly symmetric: BLAS forms it as a rank-k
    update that computes one triangle and mirrors it."""
    np.matmul(x, y, out=out.T)
    out /= n
    return out


def _require_symmetric(a: np.ndarray, rel_tol: float = 1e-10) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"matrix of shape {a.shape} is not square")
    scale = max(np.abs(a).max(), 1e-300)
    dev = np.abs(a - a.T).max()
    if dev > rel_tol * scale:
        raise ValidationError(f"asymmetry {dev} exceeds {rel_tol} * {scale}")
