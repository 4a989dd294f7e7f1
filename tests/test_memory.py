"""Peak memory of the full-rank path's layers, measured with ``tracemalloc``
(numpy reports its data allocations to it): reading a capture holds the
float32 matrix it returns and one staging block, standardizing three numbers
per row and one block, checking a data matrix or a capture payload for
non-finite entries nothing of its size, and the kernel density estimate one
reused block. A product holds its matrix and one block of standardized data,
so no analysis holds a float64 copy of the capture. Generating a real stream
holds the stream, and a
capture one complex buffer per stage: the frames, the noisy copy, the
spectrum, and refuses before any of them exists when two streams would not fit
in physical memory."""

import os
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from rmtspec import (
    DataMatrix,
    eigvals_symmetric,
    read_capture,
    sample_covariance,
    standardize_rows,
    write_capture,
)
from rmtspec import curves, linalg, signals
from rmtspec.cli import run_cli
from rmtspec.estimation import kde_eval
from rmtspec.fileio import DTYPE_F32_COMPLEX

_MB = 2**20
# the Python objects of a call (the header, a few array views), not its data
_OBJECTS = 64 * 2**10
# numpy's iterator buffers for one ufunc call that broadcasts a per-row column
_BUFFERS = 128 * 2**10


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
    return _complex_capture(tmp_path_factory.mktemp("mem") / "c.rmtc", 512, 4096)


def _complex_capture(path, rows, cols):
    """A ``rows x cols`` complex f32 capture of normal draws: a 2 rows x cols matrix."""
    payload = np.random.default_rng(0).standard_normal(2 * rows * cols, dtype=np.float32)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sHHII16s", b"RMTC", 1, DTYPE_F32_COMPLEX, rows, cols, bytes(16)))
        fh.write(payload)
    return str(path)


def test_read_capture_holds_the_result_and_one_block(capture):
    X, peak = _peak(read_capture, capture)
    assert X.entries.shape == (1024, 4096) and X.entries.dtype == np.float32
    assert peak <= X.entries.nbytes + curves._BLOCK_BYTES + _OBJECTS


def test_standardize_rows_holds_the_row_scales_and_one_block(capture):
    # an exponent, a mean and a std per row; the buffer and its std's
    # temporary share one block
    X = read_capture(capture)
    Y, peak = _peak(standardize_rows, X)
    assert Y.entries.shape == X.entries.shape and Y.entries.dtype == np.float64
    assert peak <= X.p * (4 + 8 + 8) + curves._BLOCK_BYTES + _BUFFERS + _OBJECTS


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


@pytest.mark.parametrize("block", [curves._BLOCK_BYTES, 16 * 2048 * 8])
def test_kde_eval_chunks_are_small(block):
    # each grid chunk is evaluated in place in one reused block; the subtract
    # that fills it takes numpy's iterator buffers, 128 KiB, for the call
    rng = np.random.default_rng(1)
    s = rng.gamma(2.0, 1.0, 2048)
    grid = np.linspace(-0.5, s.max() + 0.5, 1024)
    with mock.patch.object(curves, "_BLOCK_BYTES", block):
        out, peak = _peak(kde_eval, s, grid, 0.1)
    assert out.shape == (1024,)
    assert peak <= out.nbytes + 2 * block + _OBJECTS


def test_analyze_cov_peaks_within_twelve_bytes_per_entry(tmp_path):
    # the rankdef-capture shape, 2048 x 64 of rank 63: reading, standardizing,
    # the small-side solve, the KDE of the 63 nonzero eigenvalues on 1024
    # points and the written columns hold at most 12pn bytes and one block;
    # the first run pays lazy set-up
    p, n = 2048, 64
    path = _complex_capture(tmp_path / "c.rmtc", p // 2, n)
    argv = ["analyze", "cov", "-i", path, "-o", str(tmp_path / "dens.csv")]
    assert run_cli(argv) == 0
    rc, peak = _peak(run_cli, argv)
    assert rc == 0 and peak <= 12 * p * n + curves._BLOCK_BYTES + _OBJECTS


def test_full_rank_analyses_hold_no_float64_copy(tmp_path):
    # 512 x 2048, full rank: the float32 capture (4pn), the padded p x p
    # matrix (8p(p + 8)) and one block of standardized columns, the product's
    # 384 and the lag's one more; a float64 copy of the capture alone is 8pn
    p, n = 512, 2048
    path = _complex_capture(tmp_path / "c.rmtc", p // 2, n)
    bound = 4 * p * n + 8 * p * (p + 8) + 8 * p * (linalg._DEPTH + 1) + _BUFFERS + _OBJECTS
    argv = ["analyze", "lagged", "-i", path, "--tau", "1", "-o", str(tmp_path / "cloud.csv")]
    assert run_cli(argv) == 0
    rc, peak = _peak(run_cli, argv)
    assert rc == 0 and peak <= bound
    # the library verdict's path
    spectrum, peak = _peak(lambda: eigvals_symmetric(sample_covariance(
        standardize_rows(read_capture(path)))))
    assert spectrum.values.shape == (p,) and peak <= bound


# 512 frames of 1024 bins: an 8 MiB complex stream
_FRAMES, _N_FFT = 512, 1024


@pytest.fixture(scope="module")
def frames():
    signals.spectrogram_matrix(signals.gen_ncofdm_frames(0, 1, _N_FFT), _N_FFT)  # FFT plans
    return signals.gen_ncofdm_frames(3, _FRAMES, _N_FFT)


@pytest.mark.parametrize("generate", [signals.gen_wgn, signals.gen_narrowband])
def test_stream_generators_hold_one_stream(generate):
    # the normal draw; the carrier built, cosined and keyed by each symbol in
    # place (its baseband, time axis, phase and cosine held 4.06 streams at once)
    x, peak = _peak(generate, 1, 2**20)
    assert x.nbytes == 2**20 * 8
    assert peak <= 1.2 * x.nbytes


def test_gen_ncofdm_frames_holds_the_frames_and_the_symbols(frames):
    # the inverse FFT runs in place on the frames; the BPSK symbols are drawn
    # as integers, mapped to +-1 floats and placed on the occupied bins
    x, peak = _peak(signals.gen_ncofdm_frames, 3, _FRAMES, _N_FFT)
    assert np.array_equal(x, frames) and x.nbytes == _FRAMES * _N_FFT * 16
    tones = signals.occupied_from_ranges(signals.DEFAULT_OCCUPIED_RANGES, _N_FFT)
    symbols = _FRAMES * len(tones) * 8
    assert peak <= x.nbytes + symbols + _OBJECTS


def test_add_awgn_holds_the_noisy_copy_and_one_chunk(frames):
    before = frames.copy()
    y, peak = _peak(signals.add_awgn, frames, 10.0, 4)
    assert np.array_equal(frames, before)
    assert peak <= y.nbytes + curves._BLOCK_BYTES + _OBJECTS


def test_spectrogram_matrix_holds_the_spectrum(frames):
    S, peak = _peak(signals.spectrogram_matrix, frames, _N_FFT)
    assert S.shape == (_N_FFT, _FRAMES)
    assert peak <= S.nbytes + _OBJECTS


def test_generate_set_up_capture_within_four_and_a_half_payloads(tmp_path):
    # the benchmark's 2048 x 4096 capture: a 32 MiB complex64 payload; the
    # stream, its noisy copy and its spectrum are 64 MiB each, two alive at once
    out = tmp_path / "c.rmtc"
    rc, peak = _peak(run_cli, ["generate", "--signal", "ncofdm", "--rows", "1024",
                               "--cols", "4096", "--snr-db", "10", "--freq-domain",
                               "-o", str(out)])
    payload = 1024 * 4096 * 8
    assert rc == 0 and out.stat().st_size == 32 + payload
    assert peak <= 4.5 * payload


@pytest.mark.parametrize("argv, stream", [
    (["--signal", "wgn", "--rows", "512", "--cols", "512"], 512 * 512 * 8),
    (["--signal", "narrowband", "--rows", "512", "--cols", "512"], 512 * 512 * 8),
    # whole frames: 513 x 512 samples take 257 frames of 1024
    (["--signal", "ncofdm", "--rows", "513", "--cols", "512"], 257 * 1024 * 16),
    (["--signal", "ncofdm", "--rows", "256", "--cols", "512", "--n-fft", "256",
      "--occupied", "10:200", "--freq-domain"], 256 * 512 * 16),
])
def test_generate_refuses_two_streams_above_physical_memory(tmp_path, monkeypatch, capsys,
                                                            argv, stream):
    # the stream and its noisy copy, each 2 to 4 MiB here, are alive at once;
    # physical memory is faked as one byte short of both, then as both
    sysconf = os.sysconf

    def physical(memory):
        pages = {"SC_PHYS_PAGES": memory, "SC_PAGE_SIZE": 1}
        monkeypatch.setattr(os, "sysconf", lambda name: pages.get(name) or sysconf(name))

    out = tmp_path / "c.rmtc"
    physical(2 * stream - 1)
    rc, peak = _peak(run_cli, ["generate", *argv, "-o", str(out)])
    assert rc == 1 and not out.exists()
    assert peak < 1 * _MB
    size = f"{stream / _MB:.1f} MiB"
    memory = f"{(2 * stream - 1) / _MB:.1f} MiB"
    assert capsys.readouterr().err == (
        f"error: Unable to allocate {size} twice, for the stream and its noisy copy: more "
        f"than the {memory} of physical memory\n")
    physical(2 * stream)
    assert run_cli(["generate", *argv, "-o", str(out)]) == 0
