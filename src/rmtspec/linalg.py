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

No analysis holds a float64 copy of its data. ``standardize_rows`` keeps the
array it is given (a capture as read, 4pn bytes in float32) with a power of
two, a mean and a std per row. Each product, p x p or small side, is summed
over its contraction index (columns, rows) a block of ``_DEPTH`` = 384 at a
time: the block is promoted and standardized into one reused float64 buffer
and added into the matrix by OpenBLAS's ``dsyrk`` or ``dgemm``, the calls
numpy's ``matmul`` makes, with the bits of ``matmul`` on the whole
standardized matrix when the contraction fits one block. So a full-rank
analysis holds 4pn + 8p(p + 8) bytes and one block (6 MiB at p = 2048),
against 12pn while standardizing before. The blocks split the contraction
as OpenBLAS's level-3 routines split their own depth, and 384 is that depth
on its SkylakeX kernels, so there a product over several blocks keeps the
bits of one call.

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

from .curves import _block_items
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

# doubles of slack below each column of a matrix a LAPACK stage overwrites: one
# 64-byte line, so that a power-of-two order does not give a power-of-two stride
_SLACK = 8
# largest small side run on one BLAS thread: its order m (at p = 2048 one thread
# ties at 128 and loses wall time from 256 on), and the m * m * p multiply-adds
# of the product that forms it (the pool forms it faster from 2**25 on)
_ONE_THREAD_MAX_ORDER = 128
_ONE_THREAD_MAX_PRODUCT = 1 << 24
# contraction indices per block of a streamed product (see _depths): the depth
# of the panels OpenBLAS's SkylakeX dgemm and dsyrk sum (their GEMM_Q), so on
# that core the blocks keep the bits of one call. Depth stops paying before
# it: the lag product of a 2048 x 4096 capture (2-vCPU SkylakeX host, min of
# 7) took 0.297 s at 64 a block, 0.278 at 128, 0.269 at 256, 0.265 to 0.278
# from 384 to 768, and 0.281 in one block; the covariance 0.186, 0.173,
# 0.169, 0.169 to 0.171 and 0.209
_DEPTH = 384
# dgeev scales a matrix whose largest |entry| lies outside [2**-459, 2**459]
# (sqrt(tiny) / eps and its inverse) before it balances; the staged solve does not
_GEEV_SMALL = np.sqrt(np.finfo(np.float64).tiny) / np.finfo(np.float64).eps
_GEEV_BIG = 1.0 / _GEEV_SMALL
# largest |A - A^T| entry, relative to the largest |entry|, of a matrix that a
# symmetric solve accepts from outside
_SYMMETRY_REL_TOL = 1e-10
# the refusal of a matrix, or a product, or a spectrum, beyond doubles
_NOT_FINITE = "matrix holds an inf or NaN, or its eigenvalues' sum overflows doubles"


class DataMatrix:
    """p x n observation matrix: rows are dimensions, columns are samples.

    ``entries`` is real and finite. A float32 array is kept as float32 (a
    capture as read, half the bytes of its float64 promotion); any other is
    held as float64. ``ValidationError`` refuses a complex array, whose
    imaginary part a float cast would drop.

    A result of ``standardize_rows`` holds the array it standardized, as it
    was, and per row the power of two, mean and standard deviation of its
    standardization; its float64 ``entries`` are formed the first time they
    are read. A product of it (``LaggedMatrix``) standardizes one block at a
    time instead, so no float64 copy of the data is made.
    """

    def __init__(self, entries, standardized: bool = False):
        self._source = _checked(entries)
        self._scale = None
        self.standardized = standardized

    @property
    def p(self) -> int:
        return self._source.shape[0]

    @property
    def n(self) -> int:
        return self._source.shape[1]

    @functools.cached_property
    def entries(self) -> np.ndarray:
        if self._scale is None:
            return self._source
        return self._values(slice(None), slice(None))

    def _values(self, rows: slice, cols: slice, out: np.ndarray | None = None) -> np.ndarray:
        """``entries[rows, cols]`` in float64, written into ``out`` or a new
        C-ordered array: promoted and, for a result of ``standardize_rows``,
        scaled by the row's power of two, centered by its mean and divided by
        its std, the operations and so the bits of ``entries``."""
        src = self._source[rows, cols]
        out = np.empty(src.shape) if out is None else out
        out[...] = src
        if self._scale is not None:
            shift, mean, std = (s[rows] for s in self._scale)
            np.ldexp(out, shift, out=out)
            out -= mean
            out /= std
        return out


def _checked(entries) -> np.ndarray:
    """The real, finite 2-d matrix ``entries``: a float32 array as it is,
    any other as float64."""
    a = np.asarray(entries)
    if np.iscomplexobj(a):
        raise ValidationError(f"data matrix of dtype {a.dtype} is not real")
    a = np.asarray(a, dtype=np.float32 if a.dtype == np.float32 else np.float64)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValidationError(f"expected a 2-d matrix, got shape {a.shape}")
    # min and max carry any NaN and expose any inf without a p x n mask
    if not (np.isfinite(a.min()) and np.isfinite(a.max())):
        raise ValidationError("data matrix contains non-finite entries")
    return a


class LaggedMatrix:
    """Lag-tau correlation matrix ``a[:, :T-tau] a[:, tau:]^T / T`` of the
    p x T data ``a``, exactly symmetric at tau = 0; non-symmetric for tau > 0.

    ``data`` is a ``DataMatrix``, or an array that one accepts. Every product
    and solve runs in float64, on blocks of ``data`` promoted (and
    standardized) as they are used. The p x p ``entries`` is formed the first
    time it is read.
    """

    def __init__(self, data, tau: int):
        if not isinstance(data, DataMatrix):
            data = DataMatrix(data)
        if not 0 <= tau < data.n:
            raise ValidationError(f"tau={tau} outside [0, {data.n - 1}]")
        self.data = data
        self.tau = tau

    @functools.cached_property
    def entries(self) -> np.ndarray:
        p = self.data.p
        return self._form(np.empty((p, p), order="F"))

    def _form(self, out: np.ndarray) -> np.ndarray:
        """The matrix, written into the F-ordered p x p array ``out`` and
        returned: the product of the windows a[:, :m] and a[:, tau:] (m = T -
        tau) over their m columns, divided by T.

        It is numpy's ``matmul(a[:, tau:], a[:, :m].T, out=out.T)`` with ``a``
        standardized block by block: OpenBLAS's ``dgemm('T', 'N')``, or at
        tau = 0 ``dsyrk('L', 'T')`` with its lower triangle mirrored (exactly
        symmetric), accumulated over blocks of columns (see ``_depths``) from
        one reused buffer. A 1 x 1 product is numpy's dot product; without
        numpy's vendored OpenBLAS the data is formed whole and ``matmul``
        called."""
        X, tau = self.data, self.tau
        p, T = X.p, X.n
        m = T - tau
        blas = _openblas()
        everything = slice(None)
        with np.errstate(over="ignore", invalid="ignore"):  # the solves refuse an inf
            if p == 1:
                out[0, 0] = np.dot(X._values(everything, slice(tau, T))[0],
                                   X._values(everything, slice(0, m))[0])
            elif blas is None:
                a = X._values(everything, everything)
                np.matmul(a[:, tau:], a[:, :m].T, out=out.T)
            else:
                ld = out.strides[1] // out.itemsize
                buf = np.empty(p * (min(m, _DEPTH) + min(tau, _DEPTH)))
                for lo, hi in _depths(m):
                    # columns [lo, hi) and [lo + tau, hi + tau): one block of
                    # both when they overlap, else one block of each
                    w = hi - lo
                    if tau < w:
                        first = X._values(everything, slice(lo, hi + tau),
                                          out=buf[:p * (w + tau)].reshape(p, w + tau))
                        second, ld_block = first[:, tau:], w + tau
                    else:
                        first = X._values(everything, slice(lo, hi), out=buf[:p * w].reshape(p, w))
                        second = X._values(everything, slice(lo + tau, hi + tau),
                                           out=buf[p * w:2 * p * w].reshape(p, w))
                        ld_block = w
                    beta = 0.0 if lo == 0 else 1.0
                    if tau:
                        _blas(blas.dgemm, b"T", b"N", p, p, w, 1.0, first, ld_block,
                              second, ld_block, beta, out, ld)
                    else:
                        _blas(blas.dsyrk, b"L", b"T", p, w, 1.0, first, w, beta, out, ld)
                if not tau:
                    _mirror_lower(out)
            out /= T
        return out


@dataclass(frozen=True)
class RealSpectrum:
    """Eigenvalues of a symmetric matrix, ascending, as ``eigvals_symmetric``
    returns them."""

    values: np.ndarray


def standardize_rows(X: DataMatrix) -> DataMatrix:
    """Shift/scale each row to mean 0 and sample variance 1 (divisor n-1).

    The result holds ``X.entries`` as it is and three numbers per row,
    computed a block of rows at a time in one reused float64 buffer: each
    block is promoted into it, each row multiplied by the power of two
    2**-e that brings its largest |value| into [0.5, 1), then its mean and
    its ``std(ddof=1)`` about that mean are taken. The result's ``entries``,
    formed when first read, and every product of it apply the same
    operations to each element (promote, scale, center, divide), so its bits
    do not depend on the block or on the layout of ``X``. The scaling is
    exact, so no mean or sum of squares overflows or underflows at any
    scale, and every rounding is the row's at scale 1 while no intermediate
    is subnormal. Raises ``ZeroVarianceRow`` on the first constant row (a
    single-column matrix is constant), and ``ValidationError`` on a
    non-finite entry written into ``X.entries`` after it was checked; write
    into ``X.entries`` afterwards and the result changes with it.
    Idempotent up to rounding.
    """
    a = X.entries
    p, n = a.shape
    if n < 2:
        raise ZeroVarianceRow(0)
    shift, mean, std = np.empty((p, 1), np.int32), np.empty((p, 1)), np.empty((p, 1))
    # the buffer and the one temporary of its std, as large, make one block
    step = _block_items(2 * 8 * n)
    buf = np.empty((min(step, p), n))
    for lo in range(0, p, step):
        rows = slice(lo, lo + step)
        block = buf[:min(step, p - lo)]
        block[...] = a[rows]
        amax = np.maximum(block.max(axis=1, keepdims=True), -block.min(axis=1, keepdims=True))
        if not np.isfinite(amax).all():  # X.entries was changed after it was checked
            raise ValidationError("data matrix contains non-finite entries")
        shift[rows] = -np.frexp(amax)[1]
        np.ldexp(block, shift[rows], out=block)
        mean[rows] = block.mean(axis=1, keepdims=True)
        block -= mean[rows]
        std[rows] = block.std(axis=1, ddof=1, keepdims=True)
        if not std[rows].all():  # argmin of the non-negative std is its first zero
            raise ZeroVarianceRow(lo + int(np.argmin(std[rows])))
    # every row was finite with a nonzero std, so every |entry| is at most
    # sqrt(n - 1): the result skips DataMatrix's scan
    Y = object.__new__(DataMatrix)
    Y._source, Y._scale, Y.standardized = a, (shift, mean, std), True
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
    return np.sort(w, kind="stable")


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
    if from_data and M.data.n - M.tau < M.data.p:
        X, tau = M.data, M.tau
        p, m = X.p, X.n - tau
        with _blas_threads() if _small_side(m, p) else contextlib.nullcontext():
            w = _solve_owned(_small_side_matrix(X, tau), symmetric)
        return np.concatenate([np.zeros(p - m), w])
    a = _owned(M, symmetric)
    if symmetric and not from_data:
        _require_symmetric(a)
    return _solve_owned(a, symmetric)


def _small_side_matrix(X: DataMatrix, tau: int) -> np.ndarray:
    """The m x m small side ``a[:, tau:]^T a[:, :m] / T`` (m = T - tau) of
    the lag-tau matrix of X, in a new ``_lapack_matrix``.

    It is numpy's ``a[:, tau:].T @ a[:, :m]`` with ``a`` standardized block
    by block: OpenBLAS's ``dgemm('N', 'T')`` into a C-ordered m x m array
    that is then divided into the matrix (formed F-ordered, the lag product,
    and so the spectrum, can differ in the last bits), or at tau = 0
    ``dsyrk('L', 'N')`` into the matrix with its lower triangle mirrored,
    accumulated over blocks of rows (see ``_depths``) from one reused
    buffer. A 1 x 1 product is the dot product of the two columns; without
    numpy's vendored OpenBLAS the data is formed whole and ``matmul``
    called."""
    p, T = X.p, X.n
    m = T - tau
    out = _lapack_matrix(m)
    blas = _openblas()
    everything = slice(None)
    with np.errstate(over="ignore", invalid="ignore"):  # the solve refuses an inf
        if m == 1:
            out[0, 0] = np.dot(X._values(everything, slice(tau, T)).ravel(),
                               X._values(everything, slice(0, 1)).ravel()) / T
        elif blas is None:
            a = X._values(everything, everything)
            np.divide(a[:, tau:].T @ a[:, :m], T, out=out)
        else:
            ld = out.strides[1] // out.itemsize
            product = np.empty((m, m)) if tau else out
            buf = np.empty(min(p, _DEPTH) * T)
            for lo, hi in _depths(p):
                block = X._values(slice(lo, hi), everything,
                                  out=buf[:(hi - lo) * T].reshape(hi - lo, T))
                beta = 0.0 if lo == 0 else 1.0
                if tau:
                    _blas(blas.dgemm, b"N", b"T", m, m, hi - lo, 1.0, block, T,
                          block[:, tau:], T, beta, product, m)
                else:
                    _blas(blas.dsyrk, b"L", b"N", m, hi - lo, 1.0, block, T, beta, out, ld)
            if tau:
                np.divide(product, T, out=out)
            else:
                _mirror_lower(out)
                out /= T
    return out


def _depths(k: int):
    """The blocks ``(lo, hi)`` of a streamed product over k contraction
    indices, split as OpenBLAS's level-3 routines split their own: ``_DEPTH``
    while twice that remains, then what remains in two halves, or whole when
    it is ``_DEPTH`` or fewer. Each block's sum is added to the matrix as
    OpenBLAS adds each panel's, so where ``_DEPTH`` is its panel depth the
    matrix has the bits of one call over all k."""
    lo = 0
    while lo < k:
        left = k - lo
        step = _DEPTH if left >= 2 * _DEPTH else left if left <= _DEPTH else (left + 1) // 2
        yield lo, lo + step
        lo += step


def _mirror_lower(a: np.ndarray) -> None:
    """Copy the strictly lower triangle of the square ``a`` onto its upper
    one, as numpy's ``matmul`` completes the triangle that ``dsyrk`` forms."""
    for j in range(a.shape[0] - 1):
        a[j, j + 1:] = a[j + 1:, j]


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
    # sums beyond doubles, and +inf plus -inf eigenvalues, are refused below
    with np.errstate(over="ignore", invalid="ignore"):
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
        return M._form(_lapack_matrix(M.data.p))
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


# arguments of each LAPACK routine called, INFO included, and of each BLAS
# routine; all by reference
_LAPACK_ARGS = {"dsyevd": 11, "dgeev": 14, "dgebal": 8, "dgehrd": 9, "dhseqr": 14}
_BLAS_ARGS = {"dsyrk": 10, "dgemm": 13}
# thread count, LAPACK and BLAS routines of numpy's vendored OpenBLAS
_OpenBLAS = collections.namedtuple("_OpenBLAS",
                                   ["get_threads", "set_threads", *_LAPACK_ARGS, *_BLAS_ARGS])


@functools.cache
def _openblas() -> _OpenBLAS | None:
    """Handles into numpy's vendored OpenBLAS, or None when numpy has not
    loaded one (another BLAS)."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
            routines = {name: getattr(lib, f"scipy_{name}_64_")
                        for name in (*_LAPACK_ARGS, *_BLAS_ARGS)}
            get, set_threads = (lib.scipy_openblas_get_num_threads64_,
                                lib.scipy_openblas_set_num_threads64_)
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        for name, routine in routines.items():
            routine.argtypes = [ctypes.c_void_p] * {**_LAPACK_ARGS, **_BLAS_ARGS}[name]
            routine.restype = None
        return _OpenBLAS(get, set_threads, **routines)
    return None


def _refs(args) -> list:
    """Arguments for a routine of the ILP64 OpenBLAS, each by reference: a
    bytes flag as is, an int as an int64, a float as a double, an array as
    its buffer, a ctypes integer as a pointer."""
    return [x if isinstance(x, bytes)
            else ctypes.pointer(ctypes.c_int64(x)) if isinstance(x, int)
            else ctypes.pointer(ctypes.c_double(x)) if isinstance(x, float)
            else ctypes.c_void_p(x.ctypes.data) if isinstance(x, np.ndarray)
            else ctypes.pointer(x) for x in args]


def _blas(routine, *args) -> None:
    """Call a BLAS routine of the ILP64 OpenBLAS (see ``_refs``)."""
    routine(*_refs(args))


def _lapack(routine, *args) -> int:
    """Call a LAPACK routine of the ILP64 OpenBLAS (see ``_refs``) with a
    trailing INFO; returns INFO when >= 0."""
    info = ctypes.c_int64()
    routine(*_refs(args), ctypes.pointer(info))
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
    with np.errstate(over="ignore"):  # an overflowed difference is refused below
        dev = np.abs(a - a.T).max()
    if dev > _SYMMETRY_REL_TOL * scale:
        raise ValidationError(f"asymmetry {dev} exceeds {_SYMMETRY_REL_TOL} * {scale}")
