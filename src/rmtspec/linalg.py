"""Data matrices and their decompositions.

Covers row standardization, sample covariance, time-lagged correlation, and
eigenvalue extraction for both the symmetric and the general
(complex-spectrum) case.

A ``LaggedMatrix`` is the lag-tau correlation of p x T data, and the sample
covariance is its lag-0 member. Each is built from the data alone and forms
the p x p product the first time ``entries`` is read. Its rank is at most
m = T - tau. When m < p both solvers solve the m x m small side, which never
builds the p x p matrix: AB and BA share their nonzero eigenvalues, so an
m x m eigensolve plus p - m exact zeros gives the whole spectrum.

A raw array has one intake, ``_owned``: it must be a non-empty square matrix,
and real for the symmetric solve, and is copied once into an array this
module allocated.

Dense eigensolves run numpy's own LAPACK routines from numpy's vendored
OpenBLAS, stage by stage, in place on an F-ordered matrix this module
allocated: the product it formed, or its one copy of a cached ``entries`` or a
raw array. The symmetric solve is ``dsyevd('N', 'L')``, numpy's ``eigvalsh``.
The general solve is ``dgeev``'s eigenvalue path: ``dgebal`` and ``dgehrd`` on
the pool, then the QR iteration ``dhseqr`` on one thread. Timed on a 2-vCPU
host (wall / CPU seconds, pool against one thread, padded layout below),
``dhseqr`` took 1.43 / 2.84 against 1.44 / 1.57 at order 2048 and 0.56 / 1.11
against 0.55 / 0.67 at order 1024, while ``dgehrd`` gained from the pool: 1.05
against 1.83 s wall at 2048. Below order 75 the QR stage is ``dlahqr``, which
makes no BLAS-3 call, so there the spectrum has ``eigvals``' bits; above, one
thread may move it in the last bits (2.1e-14 at order 2048). A matrix whose
largest |entry| lies outside ``dgeev``'s unscaled range [sqrt(tiny)/eps,
eps/sqrt(tiny)], or that is not finite, or is complex, is left to
``np.linalg``, as is everything with a BLAS other than numpy's vendored
OpenBLAS.

Every matrix a LAPACK stage overwrites has 8 doubles, one 64-byte line, of
slack below each column, and the stages take its column stride, n + 8, as LDA.
A frequency-domain NC-OFDM capture has a power-of-two order
(``gen_ncofdm_frames`` requires a power-of-two ``n_fft``, and p = 2 * n_fft).
With a column stride of 2048 doubles a row of the matrix falls into a few cache
sets, so the row sweeps of ``dgebal`` and ``dhseqr`` evict their own lines. The
slack changes no floating-point operation, so the spectra keep their bits. On
the lag matrix of a 2048 x 4096 NC-OFDM capture (2-vCPU host, median of 5) it
took ``dgebal`` from 0.110 to 0.037 s, ``dgehrd`` from 1.01 to 0.99 s and
one-thread ``dhseqr`` from 1.68 to 1.44 s at order 2048; ``dhseqr`` from 0.65
to 0.55 s at 1024 and from 0.22 to 0.16 s at 512. It gave nothing at order
1000, or to ``dsyevd`` at 2048 (0.51 against 0.50 s). ``entries`` stays an
unpadded F-ordered array.

A small-side solve of order m <= 128 whose product has m * m * p <= 2**24
multiply-adds (a 2048 x 64 capture has 8 Mi) runs on one OpenBLAS thread,
together with that product. On a 2-vCPU host at p = 2048 a second thread gave
it no wall time: a 63 x 2048 x 63 lag product woke it, and it then kept
spinning after the call, about doubling the process's CPU time. A longer
product (16384 x 128, 65536 x 64) formed faster on the pool and keeps it, as
do the other stages of dense solves. The pool is the count numpy's OpenBLAS
starts with, which ``OPENBLAS_NUM_THREADS`` sets. Both one-thread rules go
through one context manager, ``_blas_threads``: it lowers the count to 1 for
the stage, never raises it, and restores it afterwards, so a lower count set
by ``OPENBLAS_NUM_THREADS`` holds for every stage. The count is process-wide:
BLAS called from another Python thread meanwhile runs on one thread too.
"""

from __future__ import annotations

import collections
import contextlib
import ctypes
import functools
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NumericalError, ValidationError, ZeroVarianceRow

__all__ = [
    "DataMatrix",
    "LaggedMatrix",
    "RealSpectrum",
    "standardize_rows",
    "sample_covariance",
    "lagged_correlation",
    "eigvals_symmetric",
    "eigvals_general",
]

# float64 bytes of each row block of standardize_rows (one row at least): the
# block and the one block-sized temporary of its std, 1 MiB together, stay in
# cache, and that temporary is all a standardize holds beside its result
_STD_CHUNK_BYTES = 1 << 19
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
# largest |A - A^T| entry, relative to the largest |entry|, of a matrix that a
# symmetric solve accepts from outside
_SYMMETRY_REL_TOL = 1e-10
# the refusal of a matrix, or a product, or a spectrum, beyond doubles
_NOT_FINITE = "matrix holds an inf or NaN, or its eigenvalues' sum overflows doubles"


@dataclass(frozen=True)
class DataMatrix:
    """p x n observation matrix: rows are dimensions, columns are samples.

    ``entries`` is real and finite. A float32 array is kept as float32 (a
    capture as read, half the bytes of its float64 promotion); any other is
    held as float64. ``ValidationError`` refuses a complex array, whose
    imaginary part a float cast would drop.
    """

    entries: np.ndarray
    standardized: bool = False

    def __post_init__(self):
        a = np.asarray(self.entries)
        if np.iscomplexobj(a):
            raise ValidationError(f"data matrix of dtype {a.dtype} is not real")
        a = np.asarray(a, dtype=np.float32 if a.dtype == np.float32 else np.float64)
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


class LaggedMatrix:
    """Lag-tau correlation matrix ``a[:, :T-tau] a[:, tau:]^T / T`` of the
    p x T array ``data``, exactly symmetric at tau = 0; non-symmetric for tau > 0.

    ``data`` is a ``DataMatrix``, or an array that one accepts. It is held as
    float64 (float32 data is promoted), so every product and solve runs in
    float64. The p x p ``entries`` is formed the first time it is read.
    """

    def __init__(self, data, tau: int):
        if not isinstance(data, DataMatrix):
            data = DataMatrix(data)
        data = np.asarray(data.entries, dtype=np.float64)
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
        transpose ``a[:, tau:] a[:, :T-tau]^T`` is formed in C order as
        ``out.T`` and divided by T in place. At tau = 0 that is ``a a^T``,
        which BLAS forms as a rank-k update that computes one triangle and
        mirrors it, so it comes out exactly symmetric."""
        a, tau = self.data, self.tau
        T = a.shape[1]
        with np.errstate(over="ignore", invalid="ignore"):  # the solves refuse an inf
            np.matmul(a[:, tau:], a[:, : T - tau].T, out=out.T)
            out /= T
        return out


@dataclass(frozen=True)
class RealSpectrum:
    """Eigenvalues of a symmetric matrix, ascending, as ``eigvals_symmetric``
    returns them."""

    values: np.ndarray


def standardize_rows(X: DataMatrix) -> DataMatrix:
    """Shift/scale each row to mean 0 and sample variance 1 (divisor n-1).

    The result is the one new matrix, float64 and C-ordered, written a block
    of rows at a time: each block is promoted into it, each row multiplied by
    the power of two 2**-e that brings its largest |value| into [0.5, 1),
    centered by its mean and divided by its ``std(ddof=1)`` while it is in
    cache. The scaling is exact, so no mean or sum of squares overflows or
    underflows at any scale, and every rounding is the row's at scale 1
    while no intermediate is subnormal. Every step is per row, so the bits
    do not depend on the block size or on the layout of ``X``, which is left
    as it is. Raises ``ZeroVarianceRow`` on the first constant row (a
    single-column matrix is constant), and ``ValidationError`` on a
    non-finite entry written into ``X.entries`` after it was checked.
    Idempotent up to rounding.
    """
    a = X.entries
    p, n = a.shape
    if n < 2:
        raise ZeroVarianceRow(0)
    out = np.empty((p, n))
    step = max(1, _STD_CHUNK_BYTES // out[0].nbytes)
    for lo in range(0, p, step):
        block = out[lo:lo + step]
        block[...] = a[lo:lo + step]
        amax = np.maximum(block.max(axis=1, keepdims=True), -block.min(axis=1, keepdims=True))
        if not np.isfinite(amax).all():  # X.entries was changed after it was checked
            raise ValidationError("data matrix contains non-finite entries")
        np.ldexp(block, -np.frexp(amax)[1], out=block)
        block -= block.mean(axis=1, keepdims=True)
        std = block.std(axis=1, ddof=1, keepdims=True)
        if not std.all():  # argmin of the non-negative std is its first zero
            raise ZeroVarianceRow(lo + int(np.argmin(std)))
        block /= std
    # every row was finite with a nonzero std, so every |entry| is at most
    # sqrt(n - 1): the result skips DataMatrix's scan of it
    Y = object.__new__(DataMatrix)
    object.__setattr__(Y, "entries", out)
    object.__setattr__(Y, "standardized", True)
    return Y


def sample_covariance(X: DataMatrix) -> LaggedMatrix:
    """Sample covariance (1/n) X X^T, the lag-0 ``LaggedMatrix``: real,
    symmetric and positive semi-definite."""
    return LaggedMatrix(X, 0)


def lagged_correlation(X: DataMatrix, tau: int) -> LaggedMatrix:
    """Lagged correlation C_ij = (1/T) sum_t X[i, t] X[j, t + tau] of a
    standardized matrix, the sum truncated at the boundary (no wrap-around)."""
    if not X.standardized:
        raise ValidationError("lagged_correlation requires a standardized matrix")
    return LaggedMatrix(X, tau)


def eigvals_symmetric(A) -> RealSpectrum:
    """All eigenvalues of a symmetric matrix, ascending.

    A lag-0 ``LaggedMatrix`` (a sample covariance among them) is symmetric by
    construction and solved from its data (see ``_solve``). Any other
    matrix, a raw array or a lagged matrix at tau > 0, must be real; it is
    checked for symmetry and solved dense. The eigenvalue sum is checked
    against the trace of the matrix solved (see ``_solve_owned``).
    ``ValidationError`` reports a matrix that is not square, empty, complex
    or not symmetric, and ``NumericalError`` a solve that did not converge.
    """
    return RealSpectrum(np.sort(_solve(A, symmetric=True)))


def eigvals_general(C) -> np.ndarray:
    """All (generally complex) eigenvalues of a square matrix, as complex128
    sorted by (real, imag).

    A ``LaggedMatrix`` is solved from its data (see ``_solve``), any other
    matrix dense. ``ValidationError`` reports a matrix that is not square or
    empty, and ``NumericalError`` a solve that did not converge, or a
    non-finite input.
    """
    w = np.asarray(_solve(C, symmetric=False), dtype=np.complex128)
    return w[np.lexsort((w.imag, w.real))]


def _solve(M, symmetric: bool) -> np.ndarray:
    """Eigenvalues of ``M``.

    A ``LaggedMatrix`` of p x T data at lag tau (for a symmetric solve, only
    at tau = 0) has rank at most m = T - tau. When m < p its small side
    ``a[:, tau:]^T a[:, :m] / T`` is solved, plus p - m exact zeros, and the
    p x p matrix is never formed; within the limits of ``_small_side`` the
    product and the solve run on one BLAS thread. Anything else is solved
    from ``_owned(M)``, and scanned for symmetry by a symmetric solve unless
    it is a lag-0 matrix.
    """
    from_data = isinstance(M, LaggedMatrix) and not (symmetric and M.tau)
    if from_data and M.data.shape[1] - M.tau < M.data.shape[0]:
        d, tau = M.data, M.tau
        p, T = d.shape
        m = T - tau
        with _blas_threads() if _small_side(m, p) else contextlib.nullcontext():
            # formed in C order and copied: formed F-ordered, the lag product
            # (and so the spectrum) can differ in the last bits
            with np.errstate(over="ignore", invalid="ignore"):  # the solve refuses an inf
                a = np.divide(d[:, tau:].T @ d[:, :m], T, out=_lapack_matrix(m))
            w = _solve_owned(a, symmetric)
        return np.concatenate([np.zeros(p - m), w])
    a = _owned(M, symmetric)
    if symmetric and not from_data:
        _require_symmetric(a)
    return _solve_owned(a, symmetric)


def _solve_owned(a: np.ndarray, symmetric: bool) -> np.ndarray:
    """Eigenvalues of the owned matrix ``a``, which is overwritten.

    A symmetric solve checks their sum against the trace of ``a``, taken
    before the solve (tr(A^T A) = tr(A A^T), so a small side checks the trace
    of the p x p matrix), and raises ``ValueError`` when they disagree by
    more than 1e-8 * max(1, |trace|, max |eigenvalue|). Either solve raises
    ``NumericalError`` when the eigenvalues' sum (or the trace) is not finite:
    ``dsyevd`` returns non-finite eigenvalues for a matrix with an inf or NaN,
    given or overflowed in its product, and an eigenvalue may overflow.
    ``np.linalg``'s ``LinAlgError`` becomes ``NumericalError``."""
    with np.errstate(over="ignore"):  # sums beyond doubles are refused below
        trace = float(np.trace(a)) if symmetric else 0.0
        try:
            w = (_eigvalsh_owned if symmetric else _eigvals_owned)(a)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(str(exc)) from exc
        total = w.sum()
    if not (np.isfinite(total) and np.isfinite(trace)):
        raise NumericalError(_NOT_FINITE)
    # eigenvalues of both signs cancel in the sum, to rounding of the largest
    if symmetric and abs(total - trace) > 1e-8 * max(1.0, abs(trace), np.abs(w).max()):
        raise ValueError(f"eigenvalue sum {total!r} inconsistent with trace {trace!r}")
    return w


def _owned(M, symmetric: bool = False) -> np.ndarray:
    """The matrix of ``M`` as a new F-ordered array that a solve may
    overwrite.

    A ``LaggedMatrix`` whose ``entries`` have not been read is formed from
    its data, and not cached, in a ``_lapack_matrix``. Otherwise ``entries``,
    or ``M`` itself, is copied once: a real matrix as float64 into a
    ``_lapack_matrix``, a complex one F-ordered as it is. This is the one
    intake of raw arrays: ``ValidationError`` refuses a matrix that is not
    square, is empty, or is complex when ``symmetric``.
    """
    if isinstance(M, LaggedMatrix) and "entries" not in vars(M):
        return M._form(_lapack_matrix(M.data.shape[0]))
    a = np.asarray(getattr(M, "entries", M))
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"matrix of shape {a.shape} is not square")
    if not a.size:
        raise ValidationError(f"matrix of shape {a.shape} is empty")
    if np.iscomplexobj(a):
        if symmetric:
            raise ValidationError(f"matrix of dtype {a.dtype} is not real")
        return np.array(a, order="F")
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
# thread count and LAPACK routines of numpy's vendored OpenBLAS
_OpenBLAS = collections.namedtuple("_OpenBLAS", ["get_threads", "set_threads", *_LAPACK_ARGS])


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


def _eigvalsh_owned(a: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, of the symmetric float64 ``_lapack_matrix``
    ``a``, whose lower triangle is overwritten: ``dsyevd('N', 'L')`` with its
    own workspace query and the column stride as LDA, numpy's ``eigvalsh``
    without its copy."""
    blas = _openblas()
    if blas is None:
        return np.linalg.eigvalsh(a)
    n, lda = a.shape[0], a.strides[1] // a.itemsize
    w, work, iwork = np.empty(n), np.empty(1), np.empty(1, np.int64)
    _lapack(blas.dsyevd, b"N", b"L", n, a, lda, w, work, -1, iwork, -1)
    work, iwork = np.empty(int(work[0])), np.empty(int(iwork[0]), np.int64)
    if _lapack(blas.dsyevd, b"N", b"L", n, a, lda, w, work, work.size, iwork, iwork.size):
        raise NumericalError("Eigenvalues did not converge")
    return w


def _eigvals_owned(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of the square matrix ``a`` from ``_owned``, which is
    overwritten.

    ``dgeev('N', 'N')`` without its copy, stage by stage, with the column
    stride as LDA and ``dgeev``'s workspace split as ``dgeev`` splits it
    (``dgehrd``'s block size, and so the bits, depend on it): ``dgebal('B')``
    and ``dgehrd`` on the pool, ``dhseqr('E', 'N')`` on one thread. Real
    eigenvalues come back as a real array, as from ``eigvals``. A complex or
    non-finite matrix, or one outside ``dgeev``'s unscaled range, goes to
    ``np.linalg.eigvals``, which raises ``LinAlgError`` where it refuses.
    """
    blas = _openblas()
    amax = max(a.max(), -a.min()) if a.dtype == np.float64 else np.nan
    if blas is None or not (amax == 0.0 or _GEEV_SMALL <= amax <= _GEEV_BIG):
        return np.linalg.eigvals(a)
    n, lda = a.shape[0], a.strides[1] // a.itemsize
    wr, wi, query = np.empty(n), np.empty(n), np.empty(1)
    _lapack(blas.dgeev, b"N", b"N", n, a, lda, wr, wi, query, 1, query, 1, query, -1)
    lwork = int(query[0])
    work = np.empty(lwork)
    ilo, ihi = ctypes.c_int64(), ctypes.c_int64()
    # WORK(1:N) holds the balancing scales, WORK(N+1:2N) the reflectors' tau
    _lapack(blas.dgebal, b"B", n, a, lda, ilo, ihi, work)
    _lapack(blas.dgehrd, n, ilo, ihi, a, lda, work[n:], work[2 * n:], lwork - 2 * n)
    with _blas_threads():
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
def _blas_threads():
    """Run the block on one OpenBLAS thread.

    Lowers the process-wide count only, never raises it, and restores it on
    exit, also when the block raises. Without numpy's vendored OpenBLAS it
    touches nothing. No lock: a thread lowers the count only when it reads
    one above 1 and then restores what it read, so concurrent blocks cannot
    leave it lowered; one may run on the pool if another restores first.
    """
    blas = _openblas()
    before = blas.get_threads() if blas else 1
    if before > 1:
        blas.set_threads(1)
    try:
        yield
    finally:
        if before > 1:
            blas.set_threads(before)


def _require_symmetric(a: np.ndarray) -> None:
    scale = max(np.abs(a).max(), 1e-300)
    if not np.isfinite(scale):
        raise NumericalError(_NOT_FINITE)
    dev = np.abs(a - a.T).max()
    if dev > _SYMMETRY_REL_TOL * scale:
        raise ValidationError(f"asymmetry {dev} exceeds {_SYMMETRY_REL_TOL} * {scale}")
