import re
from unittest import mock

import numpy as np
import pytest

from rmtspec import (
    add_awgn,
    gen_narrowband,
    gen_ncofdm_frames,
    gen_wgn,
    occupied_from_ranges,
    spectrogram_matrix,
)
from rmtspec import curves
from rmtspec.errors import ValidationError

from oracles import narrowband_reference


class TestWgn:
    def test_determinism(self):
        a = gen_wgn(seed=42, length=1000)
        b = gen_wgn(seed=42, length=1000)
        np.testing.assert_array_equal(a, b)

    def test_moments_unit_variance(self):
        s = gen_wgn(seed=1, length=1_000_000)
        assert abs(s.mean()) < 0.005
        assert 0.99 <= s.var() <= 1.01

    def test_moments_variance_four(self):
        s = gen_wgn(seed=2, length=1_000_000, variance=4.0)
        assert 3.95 <= s.var() <= 4.05


    @pytest.mark.parametrize("variance", [0.0, -1.0, float("nan"), float("inf")])
    def test_variance_must_be_finite_positive(self, variance):
        with pytest.raises(ValidationError, match="variance must be finite and positive"):
            gen_wgn(seed=0, length=8, variance=variance)

    @pytest.mark.parametrize("length", [0, -3])
    def test_length_at_least_one(self, length):
        with pytest.raises(ValidationError, match="^length must be >= 1$"):
            gen_wgn(0, length)


class TestNarrowband:
    def test_pure_cosine_single_symbol(self):
        s = gen_narrowband(seed=0, length=8, carrier=0.25, symbol_rate=1.0 / 8.0)
        sym = np.sign(s[0])  # BPSK sign of the single symbol
        np.testing.assert_allclose(sym * s, [1, 0, -1, 0, 1, 0, -1, 0], atol=1e-12)

    def test_determinism(self):
        a = gen_narrowband(seed=9, length=4096)
        b = gen_narrowband(seed=9, length=4096)
        np.testing.assert_array_equal(a, b)

    def test_in_band_power(self):
        # a 1/6-wide band around the default carrier 0.25
        s = gen_narrowband(seed=3, length=1 << 18)
        power = np.abs(np.fft.rfft(s)) ** 2
        freqs = np.fft.rfftfreq(len(s))
        band = (freqs >= 0.25 - 1 / 12) & (freqs <= 0.25 + 1 / 12)
        assert power[band].sum() / power.sum() >= 0.90

    def test_correlated_within_symbol(self):
        s = gen_narrowband(seed=4, length=1 << 16)
        # lag-4 autocorrelation of a 16-sample/symbol cosine waveform is strong
        r4 = np.dot(s[:-4], s[4:]) / np.dot(s, s)
        assert abs(r4) > 0.5

    @pytest.mark.parametrize("carrier", [0.0, 0.5, 0.6, -0.1, float("nan")])
    def test_carrier_outside_nyquist_refused(self, carrier):
        with pytest.raises(ValidationError, match=rf"^carrier {carrier} outside \(0, 0.5\)$"):
            gen_narrowband(seed=0, length=8, carrier=carrier)

    @pytest.mark.parametrize("rate", [0.0, -0.25, float("nan"), float("inf")])
    def test_symbol_rate_must_be_finite_positive(self, rate):
        with pytest.raises(ValidationError, match="symbol rate must be finite and positive"):
            gen_narrowband(seed=0, length=8, symbol_rate=rate)

    @pytest.mark.parametrize("length", [0, -3])
    def test_length_at_least_one(self, length):
        with pytest.raises(ValidationError, match="^length must be >= 1$"):
            gen_narrowband(0, length)

    # 1/5e-324 overflows to inf
    @pytest.mark.parametrize("rate", [0.3, 2.0, 5e-324])
    def test_samples_per_symbol_must_be_a_whole_count(self, rate):
        with pytest.raises(ValidationError, match=r"^1/symbol_rate must be a positive integer "
                                             r"sample count$"):
            gen_narrowband(seed=0, length=8, symbol_rate=rate)

    # the in-place product against the whole-array one, at lengths that end
    # mid-symbol, hold one symbol or less (1, 5, 17) or are a power of two
    @pytest.mark.parametrize("length", [2**20, 1000, 33, 17, 5, 1])
    @pytest.mark.parametrize("carrier, rate", [(0.25, 1 / 16), (0.1234, 1 / 7), (0.3, 1.0),
                                               (0.25, 1 / 64)])
    def test_bytes_match_the_whole_array_form(self, length, carrier, rate):
        got = gen_narrowband(seed=6, length=length, carrier=carrier, symbol_rate=rate)
        assert got.tobytes() == narrowband_reference(6, length, carrier, rate).tobytes()

    # 1/1e-300 is a whole count of samples far past any length
    @pytest.mark.parametrize("rate", [1 / 64, 1e-300])
    def test_symbol_longer_than_the_stream_fills_it(self, rate):
        np.testing.assert_array_equal(gen_narrowband(seed=5, length=8, symbol_rate=rate),
                                      gen_narrowband(seed=5, length=8, symbol_rate=1 / 8))


class TestNcofdm:
    def test_default_occupied_count(self):
        assert len(occupied_from_ranges()) == 426

    def test_occupied_subtotals(self):
        counts = [hi - lo + 1 for lo, hi in
                  ((10, 50), (80, 100), (140, 200), (300, 400), (600, 700), (800, 900))]
        assert counts == [41, 21, 61, 101, 101, 101]
        assert sum(counts) == 426

    def test_ranges_of_a_smaller_frame(self):
        np.testing.assert_array_equal(occupied_from_ranges(((5, 7), (0, 1), (6, 15)), 16),
                                      [0, 1, *range(5, 16)])

    # each range is checked before any is expanded, so a range of 2^62 indices
    # is refused at once; n_fft is checked first
    @pytest.mark.parametrize("ranges, n_fft, message", [
        (((10, 12), (30, 20)), 1024, "occupied range 30:20 is reversed"),
        (((0, 2**62),), 1024,
         r"occupied indices outside \[0, 1023\] in range 0:4611686018427387904"),
        (((-1, 3),), 16, r"occupied indices outside \[0, 15\] in range -1:3"),
        (((3, 16),), 16, r"occupied indices outside \[0, 15\] in range 3:16"),
        (((50, 60),), 12, "n_fft=12 is not a power of two"),
        ((), 12, "n_fft=12 is not a power of two"),
        ((), 16, "no occupied ranges given"),
    ])
    def test_ranges_refused_before_expansion(self, ranges, n_fft, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            occupied_from_ranges(ranges, n_fft)

    def test_mean_power_parseval(self):
        s = gen_ncofdm_frames(seed=5, n_frames=64)
        want = 426.0 / 1024.0
        assert np.mean(np.abs(s) ** 2) == pytest.approx(want, abs=1e-10)

    def test_frame_roundtrip_recovers_bits(self):
        bins = spectrogram_matrix(gen_ncofdm_frames(seed=6, n_frames=3), 1024)[:, 1]
        occ = occupied_from_ranges()
        mask = np.zeros(1024, dtype=bool)
        mask[occ] = True
        np.testing.assert_allclose(np.abs(bins[mask]), 1.0, atol=1e-10)
        assert np.abs(bins[~mask]).max() < 1e-10
        assert np.all(np.abs(bins[mask].imag) < 1e-10)  # BPSK: exactly +-1

    def test_determinism(self):
        a = gen_ncofdm_frames(7, 4)
        b = gen_ncofdm_frames(7, 4)
        np.testing.assert_array_equal(a, b)

    def test_empty_occupied(self):
        with pytest.raises(ValidationError, match="^occupied subcarrier set is empty$"):
            gen_ncofdm_frames(seed=0, n_frames=1, occupied=np.array([], dtype=int))

    def test_occupied_set_is_sorted_and_deduplicated(self):
        want = gen_ncofdm_frames(seed=2, n_frames=3, n_fft=16, occupied=[1, 3, 4, 9])
        got = gen_ncofdm_frames(seed=2, n_frames=3, n_fft=16, occupied=(9.0, 3, 1, 4, 3))
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("occupied", [[-1, 3], [3, 16]])
    def test_occupied_out_of_range(self, occupied):
        with pytest.raises(ValidationError, match=r"^occupied indices outside \[0, 15\]$"):
            gen_ncofdm_frames(seed=0, n_frames=1, n_fft=16, occupied=occupied)

    def test_n_frames_at_least_one(self):
        with pytest.raises(ValidationError, match="^n_frames must be >= 1$"):
            gen_ncofdm_frames(seed=0, n_frames=0)

    def test_frame_energy_is_occupied_count(self):
        # the inverse DFT is unitary, so each frame keeps the energy of its
        # +-1 symbols: one unit per occupied bin
        frames = gen_ncofdm_frames(seed=3, n_frames=4, n_fft=64,
                                   occupied=np.array([1, 5, 6, 7, 40])).reshape(4, 64)
        np.testing.assert_allclose(np.sum(np.abs(frames) ** 2, axis=1), 5.0, rtol=1e-12)

    # checked before the occupied set, which the default one would fail
    @pytest.mark.parametrize("n_fft", [-8, 0, 1, 12, 1000])
    @pytest.mark.parametrize("occupied", [np.array([0]), None])
    def test_n_fft_not_power_of_two(self, n_fft, occupied):
        with pytest.raises(ValidationError, match=f"^n_fft={n_fft} is not a power of two$"):
            gen_ncofdm_frames(seed=0, n_frames=1, n_fft=n_fft, occupied=occupied)


class TestAwgn:
    def test_infinite_snr_identity(self):
        s = gen_wgn(seed=8, length=100)
        assert add_awgn(s, np.inf, seed=1) is s

    @pytest.mark.parametrize("shape", [(4, 4), (), (2, 3, 1), (0, 4)])
    def test_non_1d_stream_refused(self, shape):
        # noise drawn for len(samples) = 4 would broadcast over 16 samples
        msg = re.escape(f"samples must be a 1-d stream, got shape {shape}")
        with pytest.raises(ValidationError, match=f"^{msg}$"):
            add_awgn(np.ones(shape), 10.0, seed=1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("snr_db", [float("nan"), -np.inf, 1e308, -1e308])
    def test_snr_without_finite_noise_variance_refused(self, snr_db):
        s = gen_wgn(seed=8, length=100)
        with pytest.raises(ValidationError, match="snr_db"):
            add_awgn(s, snr_db, seed=1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_refused(self, dtype, bad):
        s = np.ones(16, dtype)
        s[5] = bad
        with pytest.raises(ValidationError, match=r"^samples have mean power (nan|inf), "
                                             r"not a finite value$"):
            add_awgn(s, 10.0, seed=1)

    def test_empty_refused(self):
        with pytest.raises(ValidationError, match="^empty stream$"):
            add_awgn(np.zeros(0), 10.0, seed=1)

    def test_zero_db_noise_power(self):
        clean = np.ones(1_000_000)
        noise = add_awgn(clean, 0.0, seed=2) - clean
        assert 0.98 <= noise.var() <= 1.02

    def test_complex_noise_power(self):
        clean = np.ones(500_000, dtype=complex)
        noise = add_awgn(clean, 3.0, seed=3) - clean
        want = 10 ** (-0.3)
        assert np.mean(np.abs(noise) ** 2) == pytest.approx(want, rel=0.02)

    def test_determinism(self):
        s = gen_wgn(seed=9, length=64)
        a = add_awgn(s, 10.0, seed=4)
        b = add_awgn(s, 10.0, seed=4)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("chunk", [1, 7, 64, 1 << 16])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.complex64, np.complex128])
    def test_chunked_noise_is_one_draw(self, chunk, dtype):
        # the noise is added in chunks, with the bits of one (2, len) draw
        # (complex) or one len draw (real) added to the samples as a whole
        s = gen_ncofdm_frames(seed=2, n_frames=2, n_fft=64, occupied=np.arange(3, 40))
        s = (s if np.dtype(dtype).kind == "c" else s.real).astype(dtype)
        before = s.copy()
        with mock.patch.object(curves, "_BLOCK_BYTES", 8 * chunk):
            got = add_awgn(s, 5.0, seed=3)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(3)))
        nvar = float(np.mean(np.abs(s) ** 2)) / 10.0 ** 0.5
        if np.iscomplexobj(s):
            noise = rng.normal(0.0, np.sqrt(nvar / 2), size=(2, len(s)))
            want = s + noise[0] + 1j * noise[1]
        else:
            want = s + rng.normal(0.0, np.sqrt(nvar), len(s))
        assert got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))
        assert np.array_equal(s.view(np.uint8), before.view(np.uint8))


class TestSeed:
    @pytest.mark.parametrize("make", [
        lambda seed: gen_wgn(seed, 8),
        lambda seed: gen_narrowband(seed, 8),
        lambda seed: gen_ncofdm_frames(seed, 1),
        lambda seed: add_awgn(np.ones(8), 10.0, seed),
    ])
    def test_negative_seed_refused(self, make):
        with pytest.raises(ValidationError, match="^seed must be >= 0, got -1$"):
            make(-1)
        make(0)


@pytest.mark.parametrize("make, dtype, size", [
    (lambda: gen_wgn(1, 10), np.float64, 10),
    (lambda: gen_narrowband(1, 10), np.float64, 10),
    (lambda: gen_ncofdm_frames(1, 2, 16, [1, 2]), np.complex128, 32),
    (lambda: add_awgn(gen_ncofdm_frames(1, 2, 16, [1, 2]), 10.0, 2), np.complex128, 32),
])
def test_generators_return_plain_arrays(make, dtype, size):
    out = make()
    assert type(out) is np.ndarray and out.dtype == dtype and out.shape == (size,)


class TestFraming:
    def test_spectrogram_orientation(self):
        S = spectrogram_matrix(gen_ncofdm_frames(seed=11, n_frames=8), 1024)
        assert S.shape == (1024, 8)
        # occupied rows carry unit-magnitude BPSK, others are empty
        occ_mask = np.zeros(1024, dtype=bool)
        occ_mask[occupied_from_ranges()] = True
        np.testing.assert_allclose(np.abs(S[occ_mask]), 1.0, atol=1e-10)
        assert np.abs(S[~occ_mask]).max() < 1e-10

    def test_spectrogram_is_unitary_per_frame(self, rng):
        x = rng.standard_normal(4 * 256) + 1j * rng.standard_normal(4 * 256)
        S = spectrogram_matrix(x, 256)
        assert S.shape == (256, 4)
        np.testing.assert_allclose(np.linalg.norm(S, axis=0),
                                   np.linalg.norm(x.reshape(4, 256), axis=1), rtol=1e-12)

    @pytest.mark.parametrize("n_fft", [0, -4])
    def test_spectrogram_n_fft_at_least_one(self, n_fft):
        with pytest.raises(ValidationError, match=f"^n_fft must be >= 1, got {n_fft}$"):
            spectrogram_matrix(np.ones(8, complex), n_fft)

    @pytest.mark.parametrize("shape", [(4, 4), (), (2, 8, 1)])
    def test_spectrogram_non_1d_stream_refused(self, shape):
        msg = re.escape(f"samples must be a 1-d stream, got shape {shape}")
        with pytest.raises(ValidationError, match=f"^{msg}$"):
            spectrogram_matrix(np.ones(shape, complex), 4)

    def test_spectrogram_insufficient(self):
        with pytest.raises(ValidationError, match="^need at least 8 samples, stream has 5$"):
            spectrogram_matrix(np.zeros(5, dtype=complex), 8)

    @pytest.mark.parametrize("delay", [0, 3])
    def test_spectrogram_impulse(self, delay):
        x = np.zeros(4, dtype=complex)
        x[delay] = 1.0
        S = spectrogram_matrix(x, 4)
        want = 0.5 * np.exp(-2j * np.pi * delay * np.arange(4) / 4)
        np.testing.assert_allclose(S[:, 0], want, atol=1e-15)

    def test_spectrogram_linearity(self, rng):
        x = rng.standard_normal(2 * 64) + 1j * rng.standard_normal(2 * 64)
        y = rng.standard_normal(2 * 64) + 1j * rng.standard_normal(2 * 64)
        lhs = spectrogram_matrix(2.0 * x + 3j * y, 64)
        rhs = 2.0 * spectrogram_matrix(x, 64) + 3j * spectrogram_matrix(y, 64)
        assert np.abs(lhs - rhs).max() < 1e-10
