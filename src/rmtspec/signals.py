"""Deterministic synthetic baseband sources at normalized sample rate 1.

Three source families: white Gaussian noise, a narrowband BPSK carrier
(rectangular pulses on a cosine), and NC-OFDM frames with BPSK on an
arbitrary occupied-subcarrier set. All generators are pure functions of
(spec, seed) using the Philox counter-based bit generator, so streams are
bit-identical across runs and platforms. Parallel per-frame generation, if
ever needed, must derive frame f's stream from
``SeedSequence(seed, spawn_key=(f,))`` to stay reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AliasingConfig,
    EmptyOccupiedSet,
    InsufficientSamples,
    NonPowerOfTwoLength,
)
from .linalg import DataMatrix

__all__ = [
    "WgnSpec",
    "NarrowbandSpec",
    "NcofdmSpec",
    "SampleStream",
    "DEFAULT_OCCUPIED_RANGES",
    "occupied_from_ranges",
    "gen_wgn",
    "gen_narrowband",
    "gen_ncofdm_frames",
    "dft",
    "add_awgn",
    "stream_to_matrix",
    "spectrogram_matrix",
]

# inclusive index ranges; 41+21+61+101+101+101 = 426 occupied tones of 1024
DEFAULT_OCCUPIED_RANGES = (
    (10, 50), (80, 100), (140, 200), (300, 400), (600, 700), (800, 900),
)


def occupied_from_ranges(ranges=DEFAULT_OCCUPIED_RANGES) -> np.ndarray:
    """Expand inclusive (lo, hi) index ranges into a sorted index array."""
    idx = np.concatenate([np.arange(lo, hi + 1) for lo, hi in ranges])
    return np.unique(idx)


@dataclass(frozen=True)
class WgnSpec:
    seed: int
    length: int
    variance: float = 1.0

    def __post_init__(self):
        if not 0 < self.variance < math.inf:
            raise ValueError(f"variance must be finite and positive, got {self.variance}")
        if self.length < 1:
            raise ValueError("length must be >= 1")


@dataclass(frozen=True)
class NarrowbandSpec:
    """BPSK symbols on a cosine carrier, rectangular pulse shaping.

    carrier_norm: carrier in cycles/sample, in (0, 0.5).
    band_norm: nominal fractional bandwidth (used for validation/reporting).
    symbol_rate_norm: symbols per sample; 1/symbol_rate_norm must be a
        whole number of samples.
    """

    seed: int
    length: int
    carrier_norm: float = 0.25
    band_norm: float = 1.0 / 6.0
    symbol_rate_norm: float = 1.0 / 16.0

    def __post_init__(self):
        if not 0 < self.carrier_norm < 0.5:
            raise AliasingConfig(f"carrier {self.carrier_norm} outside (0, 0.5)")
        if not 0 < self.band_norm < math.inf:
            raise ValueError(f"band must be finite and positive, got {self.band_norm}")
        if self.carrier_norm + self.band_norm / 2 >= 0.5:
            raise AliasingConfig("carrier + band/2 reaches the Nyquist edge")
        if not 0 < self.symbol_rate_norm < math.inf:
            raise ValueError(
                f"symbol rate must be finite and positive, got {self.symbol_rate_norm}")
        sps = 1.0 / self.symbol_rate_norm
        if abs(sps - round(sps)) > 1e-9 or round(sps) < 1:
            raise ValueError("1/symbol_rate_norm must be a positive integer sample count")

    @property
    def samples_per_symbol(self) -> int:
        return int(round(1.0 / self.symbol_rate_norm))


@dataclass(frozen=True)
class NcofdmSpec:
    seed: int
    n_fft: int = 1024
    occupied: np.ndarray = field(default_factory=occupied_from_ranges)

    def __post_init__(self):
        occ = np.unique(np.asarray(self.occupied, dtype=np.int64))
        if occ.size == 0:
            raise EmptyOccupiedSet("occupied subcarrier set is empty")
        if occ[0] < 0 or occ[-1] >= self.n_fft:
            raise ValueError(f"occupied indices outside [0, {self.n_fft - 1}]")
        if self.n_fft < 2 or self.n_fft & (self.n_fft - 1):
            raise NonPowerOfTwoLength(f"n_fft={self.n_fft} is not a power of two")
        object.__setattr__(self, "occupied", occ)


@dataclass(frozen=True)
class SampleStream:
    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples)
        if not np.all(np.isfinite(s.real)) or not np.all(np.isfinite(s.imag)):
            raise ValueError("stream contains non-finite samples")
        object.__setattr__(self, "samples", s)

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.samples)

    def __len__(self) -> int:
        return len(self.samples)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def gen_wgn(spec: WgnSpec) -> SampleStream:
    """Seeded white Gaussian noise with the requested variance."""
    rng = _rng(spec.seed)
    return SampleStream(math.sqrt(spec.variance) * rng.standard_normal(spec.length))


def gen_narrowband(spec: NarrowbandSpec) -> SampleStream:
    """Rectangular-pulse BPSK on a cosine carrier."""
    rng = _rng(spec.seed)
    sps = spec.samples_per_symbol
    n_sym = -(-spec.length // sps)
    symbols = rng.integers(0, 2, size=n_sym) * 2.0 - 1.0
    baseband = np.repeat(symbols, sps)[: spec.length]
    t = np.arange(spec.length)
    return SampleStream(baseband * np.cos(2.0 * np.pi * spec.carrier_norm * t))


def gen_ncofdm_frames(spec: NcofdmSpec, n_frames: int) -> SampleStream:
    """Concatenated time-domain NC-OFDM frames (no cyclic prefix).

    Each frame carries independent BPSK (+-1) on the occupied bins, zeros
    elsewhere, through a unitary inverse DFT of length n_fft.
    """
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    rng = _rng(spec.seed)
    bits = rng.integers(0, 2, size=(n_frames, len(spec.occupied))) * 2.0 - 1.0
    freq = np.zeros((n_frames, spec.n_fft), dtype=np.complex128)
    freq[:, spec.occupied] = bits
    time = dft(freq, "inverse")
    return SampleStream(time.reshape(-1))


def dft(frame, direction: str = "forward") -> np.ndarray:
    """Unitary DFT (both directions scaled by 1/sqrt(n)); length must be a
    power of two."""
    a = np.asarray(frame, dtype=np.complex128)
    n = a.shape[-1]
    if n < 1 or n & (n - 1):
        raise NonPowerOfTwoLength(f"length {n} is not a power of two")
    if direction == "forward":
        return np.fft.fft(a, norm="ortho")
    if direction == "inverse":
        return np.fft.ifft(a, norm="ortho")
    raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")


def add_awgn(stream: SampleStream, snr_db: float, seed: int) -> SampleStream:
    """Add seeded Gaussian noise at the given SNR (complex noise for complex
    input); ``snr_db=+inf`` returns the stream unchanged. NaN, ``-inf`` and an
    SNR whose linear ratio is not a positive double are refused."""
    if len(stream) == 0:
        raise ValueError("empty stream")
    if snr_db == math.inf:
        return stream
    power = float(np.mean(np.abs(stream.samples) ** 2))
    try:
        nvar = power / 10.0 ** (snr_db / 10.0)
    except (OverflowError, ZeroDivisionError):
        nvar = math.nan
    if not math.isfinite(nvar):
        raise ValueError(f"snr_db = {snr_db} gives no finite noise variance "
                         "(give a finite SNR, or +inf for no noise)")
    rng = _rng(seed)
    if stream.is_complex:
        noise = rng.normal(0.0, math.sqrt(nvar / 2), size=(2, len(stream)))
        return SampleStream(stream.samples + noise[0] + 1j * noise[1])
    return SampleStream(stream.samples + rng.normal(0.0, math.sqrt(nvar), len(stream)))


def stream_to_matrix(stream: SampleStream, p: int, n: int) -> DataMatrix:
    """Frame a stream row-major into p rows of n consecutive samples.

    Complex streams produce 2p real rows: the p real-part rows followed by
    the p imaginary-part rows.
    """
    s = stream.samples
    if len(s) < p * n:
        raise InsufficientSamples(f"need {p * n} samples, stream has {len(s)}")
    block = s[: p * n].reshape(p, n)
    if np.iscomplexobj(block):
        return DataMatrix(np.vstack([block.real, block.imag]))
    return DataMatrix(block.astype(np.float64, copy=False))


def spectrogram_matrix(stream: SampleStream, n_fft: int) -> np.ndarray:
    """Per-frame unitary DFT of a complex stream, arranged bins x frames.

    Row b is subcarrier b across frames; this is the orientation in which
    row standardization equalizes per-tone power.
    """
    s = stream.samples
    n_frames = len(s) // n_fft
    if n_frames < 1:
        raise InsufficientSamples(f"need at least {n_fft} samples, stream has {len(s)}")
    frames = s[: n_frames * n_fft].reshape(n_frames, n_fft)
    return dft(frames, "forward").T
