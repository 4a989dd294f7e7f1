"""Peak memory of the full-rank path's layers, measured with ``tracemalloc``
(numpy reports its data allocations to it): reading a capture holds the
float32 matrix it returns and one staging block, standardizing the one new
float64 matrix and one small block, checking a data matrix or a capture
payload for non-finite entries nothing of its size, and the kernel density
estimate a few small chunks."""

import struct
import tracemalloc

import numpy as np
import pytest

from rmtspec import DataMatrix, read_capture, standardize_rows, write_capture
from rmtspec import fileio
from rmtspec.estimation import kde_eval
from rmtspec.fileio import DTYPE_F32_COMPLEX

_MB = 2**20
# the Python objects of a call (the header, a few array views), not its data
_OBJECTS = 64 * 2**10


def _peak(fn, *args):
    """``fn(*args)`` and its peak traced bytes above the start of the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.fixture(scope="module")
def capture(tmp_path_factory):
    """512 x 4096 complex f32 capture: a 1024 x 4096 float32 (16 MiB) matrix,
    32 MiB standardized."""
    path = tmp_path_factory.mktemp("mem") / "c.rmtc"
    payload = np.random.default_rng(0).standard_normal(2 * 512 * 4096, dtype=np.float32)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sHHII16s", b"RMTC", 1, DTYPE_F32_COMPLEX, 512, 4096, bytes(16)))
        fh.write(payload)
    return str(path)


def test_read_capture_holds_the_result_and_one_block(capture):
    X, peak = _peak(read_capture, capture)
    assert X.entries.shape == (1024, 4096) and X.entries.dtype == np.float32
    assert peak <= X.entries.nbytes + fileio._READ_BLOCK_BYTES + _OBJECTS


def test_standardize_rows_holds_the_result_and_one_chunk(capture):
    X = read_capture(capture)
    Y, peak = _peak(standardize_rows, X)
    assert Y.entries.shape == X.entries.shape and Y.entries.dtype == np.float64
    assert peak <= Y.entries.nbytes + 1 * _MB


def test_data_matrix_finite_check_builds_no_mask():
    # a p x n bool mask of the 1024 x 4096 matrix alone would be 4 MiB
    a = np.random.default_rng(2).standard_normal((1024, 4096))
    X, peak = _peak(DataMatrix, a)
    assert X.entries is a
    assert peak < 1 * _MB


def test_write_capture_holds_only_the_f32_payload(tmp_path):
    a = np.random.default_rng(4).standard_normal((1024, 4096))
    _, peak = _peak(write_capture, str(tmp_path / "c.rmtc"), a)
    assert peak < a.size * 4 + 1 * _MB

def test_kde_eval_chunks_are_small():
    rng = np.random.default_rng(1)
    s = rng.gamma(2.0, 1.0, 2048)
    grid = np.linspace(-0.5, s.max() + 0.5, 1024)
    out, peak = _peak(kde_eval, s, grid, 0.1)
    assert out.shape == (1024,)
    assert peak <= 8 * _MB
