"""Peak memory of the full-rank path's layers, measured with ``tracemalloc``
(numpy reports its data allocations to it): reading a capture holds little
more than the matrix it returns, standardizing little more than the one new
matrix, and the kernel density estimate a few small chunks."""

import struct
import tracemalloc

import numpy as np
import pytest

from rmtspec import DataMatrix, read_capture, standardize_rows
from rmtspec.estimation import kde_eval
from rmtspec.fileio import DTYPE_F32_COMPLEX

_MB = 2**20


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
    """512 x 4096 complex f32 capture: a 1024 x 4096 f64 (32 MiB) matrix."""
    path = tmp_path_factory.mktemp("mem") / "c.rmtc"
    payload = np.random.default_rng(0).standard_normal(2 * 512 * 4096, dtype=np.float32)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sHHII16s", b"RMTC", 1, DTYPE_F32_COMPLEX, 512, 4096, bytes(16)))
        fh.write(payload)
    return str(path)


def test_read_capture_holds_the_result_and_one_block(capture):
    X, peak = _peak(read_capture, capture)
    assert X.entries.shape == (1024, 4096)
    assert peak <= X.entries.nbytes + 8 * _MB


def test_standardize_rows_holds_the_result_and_one_chunk(capture):
    X = read_capture(capture)
    Y, peak = _peak(standardize_rows, X)
    assert Y.entries.shape == X.entries.shape
    assert peak <= Y.entries.nbytes + 12 * _MB


def test_kde_eval_chunks_are_small():
    rng = np.random.default_rng(1)
    s = rng.gamma(2.0, 1.0, 2048)
    grid = np.linspace(-0.5, s.max() + 0.5, 1024)
    out, peak = _peak(kde_eval, s, grid, 0.1)
    assert out.shape == (1024,)
    assert peak <= 8 * _MB
