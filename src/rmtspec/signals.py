"""Deterministic synthetic baseband sources at normalized sample rate 1.

Three source families: white Gaussian noise, a narrowband BPSK carrier
(rectangular pulses on a cosine), and NC-OFDM frames with BPSK on an
arbitrary occupied-subcarrier set. Every generator is a pure function of its
arguments (the seed among them) that checks them and returns a plain
``np.ndarray``; each draws from the Philox counter-based bit generator, so
streams are bit-identical across runs and platforms. Parallel per-frame
generation, if ever needed, must derive frame f's stream from
``SeedSequence(seed, spawn_key=(f,))`` to stay reproducible.
"""

from __future__ import annotations

import math

import numpy as np

from .curves import _block_items
from .errors import ValidationError

__all__ = [
    "DEFAULT_OCCUPIED_RANGES",
    "occupied_from_ranges",
    "gen_wgn",
    "gen_narrowband",
    "gen_ncofdm_frames",
    "add_awgn",
    "spectrogram_matrix",
]

# inclusive index ranges; 41+21+61+101+101+101 = 426 occupied tones of 1024
DEFAULT_OCCUPIED_RANGES = (
    (10, 50), (80, 100), (140, 200), (300, 400), (600, 700), (800, 900),
)


def occupied_from_ranges(ranges, n_fft: int) -> np.ndarray:
    """Expand inclusive (lo, hi) subcarrier ranges of an ``n_fft``-point frame
    into a sorted index array.

    ``n_fft`` must be a power of two, as ``gen_ncofdm_frames`` requires, and
    each range must run forward inside [0, n_fft - 1]; both are checked before
    any range is expanded, so a refused range builds no index array.
    """
    _require_power_of_two(n_fft)
    if not len(ranges):
        raise ValidationError("no occupied ranges given")
    for lo, hi in ranges:
        if not 0 <= lo <= hi < n_fft:
            raise ValidationError(f"occupied range {lo}:{hi} is reversed" if lo > hi else
                                  f"occupied indices outside [0, {n_fft - 1}] in range {lo}:{hi}")
    idx = np.concatenate([np.arange(lo, hi + 1) for lo, hi in ranges])
    return np.unique(idx)


def _require_power_of_two(n_fft: int) -> None:
    if n_fft < 2 or n_fft & (n_fft - 1):
        raise ValidationError(f"n_fft={n_fft} is not a power of two")


def _rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _stream(samples) -> np.ndarray:
    """``samples`` as an array, refused unless it is one 1-d stream."""
    x = np.asarray(samples)
    if x.ndim != 1:
        raise ValidationError(f"samples must be a 1-d stream, got shape {x.shape}")
    return x


def gen_wgn(seed: int, length: int, variance: float = 1.0) -> np.ndarray:
    """Seeded white Gaussian noise with the requested variance."""
    if not 0 < variance < math.inf:
        raise ValidationError(f"variance must be finite and positive, got {variance}")
    if length < 1:
        raise ValidationError("length must be >= 1")
    return math.sqrt(variance) * _rng(seed).standard_normal(length)


def gen_narrowband(seed: int, length: int, carrier: float = 0.25,
                   symbol_rate: float = 1.0 / 16.0) -> np.ndarray:
    """Rectangular-pulse BPSK on a cosine carrier.

    carrier: cycles/sample, in (0, 0.5).
    symbol_rate: symbols per sample; 1/symbol_rate must be a whole number of
        samples.
    """
    if not 0 < carrier < 0.5:
        raise ValidationError(f"carrier {carrier} outside (0, 0.5)")
    if not 0 < symbol_rate < math.inf:
        raise ValidationError(f"symbol rate must be finite and positive, got {symbol_rate}")
    sps = 1.0 / symbol_rate
    if sps == math.inf or abs(sps - round(sps)) > 1e-9 or round(sps) < 1:
        raise ValidationError("1/symbol_rate must be a positive integer sample count")
    if length < 1:
        raise ValidationError("length must be >= 1")
    sps = min(round(sps), length)  # a symbol longer than the stream fills it
    rng = _rng(seed)
    n_sym = -(-length // sps)
    symbols = rng.integers(0, 2, size=n_sym) * 2.0 - 1.0
    # the carrier, then each whole symbol and the tail in place: one
    # stream-sized array
    out = np.arange(length, dtype=np.float64)
    out *= 2.0 * np.pi * carrier
    np.cos(out, out=out)
    whole = length - length % sps
    out[:whole].reshape(-1, sps)[...] *= symbols[: whole // sps, None]
    out[whole:] *= symbols[-1]
    return out


def gen_ncofdm_frames(seed: int, n_frames: int, n_fft: int = 1024,
                      occupied=None) -> np.ndarray:
    """Concatenated time-domain NC-OFDM frames (no cyclic prefix).

    Each frame carries independent BPSK (+-1) on the occupied bins, zeros
    elsewhere, through a unitary inverse DFT of length n_fft. By default the
    occupied bins are ``DEFAULT_OCCUPIED_RANGES``, tones 10-900, which an
    ``n_fft`` of 1024 or more holds; a smaller frame needs ``occupied``.
    """
    _require_power_of_two(n_fft)
    if occupied is None:
        if n_fft <= DEFAULT_OCCUPIED_RANGES[-1][1]:
            raise ValidationError(f"n_fft={n_fft} is too small for the default occupied tones "
                                  f"(10-900 of a 1024-point frame): give occupied tones inside "
                                  f"[0, {n_fft - 1}]")
        occupied = occupied_from_ranges(DEFAULT_OCCUPIED_RANGES, n_fft)
    occ = np.unique(np.asarray(occupied, dtype=np.int64))
    if occ.size == 0:
        raise ValidationError("occupied subcarrier set is empty")
    if occ[0] < 0 or occ[-1] >= n_fft:
        raise ValidationError(f"occupied indices outside [0, {n_fft - 1}]")
    if n_frames < 1:
        raise ValidationError("n_frames must be >= 1")
    rng = _rng(seed)
    bits = rng.integers(0, 2, size=(n_frames, len(occ))) * 2.0 - 1.0
    freq = np.zeros((n_frames, n_fft), dtype=np.complex128)
    freq[:, occ] = bits
    # in place: the frames are the one stream-sized array
    return np.fft.ifft(freq, norm="ortho", out=freq).reshape(-1)


def add_awgn(samples: np.ndarray, snr_db: float, seed: int) -> np.ndarray:
    """Add seeded Gaussian noise at the given SNR (complex noise for complex
    input) to a 1-d stream; ``snr_db=+inf`` returns the samples unchanged.
    Samples of any other shape or without a finite mean power, NaN, ``-inf``
    and an SNR whose linear ratio is not a positive double are refused.

    The result is one new array, a copy of the samples to which the noise is
    added a block (``curves._BLOCK_BYTES``) of float64 values at a time: the
    real parts' draws, then the imaginary parts', in the order of one
    ``normal(size=(2, len))`` draw, so the bits do not depend on the block
    size. The samples are not changed.
    """
    x = _stream(samples)
    if len(x) == 0:
        raise ValidationError("empty stream")
    with np.errstate(over="ignore"):  # an overflowed power is refused below
        # one |x| buffer, squared in place and dropped by the second binding
        power = np.abs(x)
        power = float(np.mean(np.square(power, out=power)))
    if not math.isfinite(power):
        raise ValidationError(f"samples have mean power {power}, not a finite value")
    if snr_db == math.inf:
        return samples
    try:
        nvar = power / 10.0 ** (snr_db / 10.0)
    except (OverflowError, ZeroDivisionError):
        nvar = math.nan
    if not math.isfinite(nvar):
        raise ValidationError(f"snr_db = {snr_db} gives no finite noise variance "
                              "(give a finite SNR, or +inf for no noise)")
    rng = _rng(seed)
    out = x.astype(np.result_type(x, np.float64))  # a copy, typed as samples + noise
    if np.iscomplexobj(out):
        parts, sigma = (out.real, out.imag), math.sqrt(nvar / 2)
    else:
        parts, sigma = (out,), math.sqrt(nvar)
    for part in parts:
        step = _block_items(part.itemsize)
        for lo in range(0, len(part), step):
            chunk = part[lo:lo + step]
            chunk += rng.normal(0.0, sigma, len(chunk))
    return out


def spectrogram_matrix(samples: np.ndarray, n_fft: int) -> np.ndarray:
    """Per-frame unitary DFT of a 1-d stream of complex samples, arranged bins x
    frames.

    Row b is subcarrier b across frames; this is the orientation in which
    row standardization equalizes per-tone power.
    """
    if n_fft < 1:
        raise ValidationError(f"n_fft must be >= 1, got {n_fft}")
    samples = _stream(samples)
    n_frames = len(samples) // n_fft
    if n_frames < 1:
        raise ValidationError(f"need at least {n_fft} samples, stream has {len(samples)}")
    frames = samples[: n_frames * n_fft].reshape(n_frames, n_fft)
    with np.errstate(all="ignore"):  # refused below
        out = np.fft.fft(frames, norm="ortho")
    # min and max of the real words carry any NaN and expose any inf, no mask
    words = out.view(np.finfo(out.dtype).dtype)
    if not (np.isfinite(words.min()) and np.isfinite(words.max())):
        raise ValidationError("samples are not finite, or their spectrum overflows doubles")
    return out.T
