import numpy as np
import pytest

from rmtspec import (
    NarrowbandSpec,
    NcofdmSpec,
    SampleStream,
    WgnSpec,
    add_awgn,
    gen_narrowband,
    gen_ncofdm_frames,
    gen_wgn,
    occupied_from_ranges,
    spectrogram_matrix,
)
from rmtspec.errors import ValidationError


class TestWgn:
    def test_determinism(self):
        a = gen_wgn(WgnSpec(seed=42, length=1000))
        b = gen_wgn(WgnSpec(seed=42, length=1000))
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_moments_unit_variance(self):
        s = gen_wgn(WgnSpec(seed=1, length=1_000_000)).samples
        assert abs(s.mean()) < 0.005
        assert 0.99 <= s.var() <= 1.01

    def test_moments_variance_four(self):
        s = gen_wgn(WgnSpec(seed=2, length=1_000_000, variance=4.0)).samples
        assert 3.95 <= s.var() <= 4.05


    @pytest.mark.parametrize("variance", [0.0, -1.0, float("nan"), float("inf")])
    def test_variance_must_be_finite_positive(self, variance):
        with pytest.raises(ValueError, match="variance must be finite and positive"):
            WgnSpec(seed=0, length=8, variance=variance)


class TestNarrowband:
    def test_pure_cosine_single_symbol(self):
        spec = NarrowbandSpec(seed=0, length=8, carrier_norm=0.25,
                              band_norm=0.2, symbol_rate_norm=1.0 / 8.0)
        s = gen_narrowband(spec).samples
        sym = np.sign(s[0])  # BPSK sign of the single symbol
        np.testing.assert_allclose(sym * s, [1, 0, -1, 0, 1, 0, -1, 0], atol=1e-12)

    def test_determinism(self):
        a = gen_narrowband(NarrowbandSpec(seed=9, length=4096))
        b = gen_narrowband(NarrowbandSpec(seed=9, length=4096))
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_in_band_power(self):
        spec = NarrowbandSpec(seed=3, length=1 << 18)
        s = gen_narrowband(spec).samples
        power = np.abs(np.fft.rfft(s)) ** 2
        freqs = np.fft.rfftfreq(len(s))
        band = (freqs >= spec.carrier_norm - spec.band_norm / 2) & \
               (freqs <= spec.carrier_norm + spec.band_norm / 2)
        assert power[band].sum() / power.sum() >= 0.90

    def test_correlated_within_symbol(self):
        spec = NarrowbandSpec(seed=4, length=1 << 16)
        s = gen_narrowband(spec).samples
        # lag-4 autocorrelation of a 16-sample/symbol cosine waveform is strong
        r4 = np.dot(s[:-4], s[4:]) / np.dot(s, s)
        assert abs(r4) > 0.5

    def test_aliasing_guard(self):
        with pytest.raises(ValidationError, match=r"^carrier \+ band/2 reaches the Nyquist edge$"):
            NarrowbandSpec(seed=0, length=8, carrier_norm=0.45, band_norm=0.2)
        with pytest.raises(ValidationError, match=r"^carrier 0.6 outside \(0, 0.5\)$"):
            NarrowbandSpec(seed=0, length=8, carrier_norm=0.6)

    @pytest.mark.parametrize("band", [0.0, -3.0, float("nan"), float("inf")])
    def test_band_must_be_finite_positive(self, band):
        with pytest.raises(ValueError, match="band must be finite and positive"):
            NarrowbandSpec(seed=0, length=8, band_norm=band)

    @pytest.mark.parametrize("rate", [0.0, -0.25, float("nan"), float("inf")])
    def test_symbol_rate_must_be_finite_positive(self, rate):
        with pytest.raises(ValueError, match="symbol rate must be finite and positive"):
            NarrowbandSpec(seed=0, length=8, symbol_rate_norm=rate)


class TestNcofdm:
    def test_default_occupied_count(self):
        assert len(occupied_from_ranges()) == 426

    def test_occupied_subtotals(self):
        counts = [hi - lo + 1 for lo, hi in
                  ((10, 50), (80, 100), (140, 200), (300, 400), (600, 700), (800, 900))]
        assert counts == [41, 21, 61, 101, 101, 101]
        assert sum(counts) == 426

    def test_mean_power_parseval(self):
        spec = NcofdmSpec(seed=5)
        s = gen_ncofdm_frames(spec, n_frames=64).samples
        want = 426.0 / 1024.0
        assert np.mean(np.abs(s) ** 2) == pytest.approx(want, abs=1e-10)

    def test_frame_roundtrip_recovers_bits(self):
        spec = NcofdmSpec(seed=6)
        bins = spectrogram_matrix(gen_ncofdm_frames(spec, n_frames=3), 1024)[:, 1]
        occ = spec.occupied
        mask = np.zeros(1024, dtype=bool)
        mask[occ] = True
        np.testing.assert_allclose(np.abs(bins[mask]), 1.0, atol=1e-10)
        assert np.abs(bins[~mask]).max() < 1e-10
        assert np.all(np.abs(bins[mask].imag) < 1e-10)  # BPSK: exactly +-1

    def test_determinism(self):
        a = gen_ncofdm_frames(NcofdmSpec(seed=7), 4)
        b = gen_ncofdm_frames(NcofdmSpec(seed=7), 4)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_empty_occupied(self):
        with pytest.raises(ValidationError, match="^occupied subcarrier set is empty$"):
            NcofdmSpec(seed=0, occupied=np.array([], dtype=int))

    def test_frame_energy_is_occupied_count(self):
        # the inverse DFT is unitary, so each frame keeps the energy of its
        # +-1 symbols: one unit per occupied bin
        spec = NcofdmSpec(seed=3, n_fft=64, occupied=np.array([1, 5, 6, 7, 40]))
        frames = gen_ncofdm_frames(spec, n_frames=4).samples.reshape(4, 64)
        np.testing.assert_allclose(np.sum(np.abs(frames) ** 2, axis=1), 5.0, rtol=1e-12)

    @pytest.mark.parametrize("n_fft", [1, 12, 1000])
    def test_n_fft_not_power_of_two(self, n_fft):
        with pytest.raises(ValidationError, match=f"^n_fft={n_fft} is not a power of two$"):
            NcofdmSpec(seed=0, n_fft=n_fft, occupied=np.array([0]))


class TestAwgn:
    def test_infinite_snr_identity(self):
        s = gen_wgn(WgnSpec(seed=8, length=100))
        out = add_awgn(s, np.inf, seed=1)
        np.testing.assert_array_equal(out.samples, s.samples)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("snr_db", [float("nan"), -np.inf, 1e308, -1e308])
    def test_snr_without_finite_noise_variance_refused(self, snr_db):
        s = gen_wgn(WgnSpec(seed=8, length=100))
        with pytest.raises(ValueError, match="snr_db"):
            add_awgn(s, snr_db, seed=1)

    def test_zero_db_noise_power(self):
        clean = SampleStream(np.ones(1_000_000))
        noisy = add_awgn(clean, 0.0, seed=2)
        noise = noisy.samples - clean.samples
        assert 0.98 <= noise.var() <= 1.02

    def test_complex_noise_power(self):
        clean = SampleStream(np.ones(500_000, dtype=complex))
        noisy = add_awgn(clean, 3.0, seed=3)
        noise = noisy.samples - clean.samples
        want = 10 ** (-0.3)
        assert np.mean(np.abs(noise) ** 2) == pytest.approx(want, rel=0.02)

    def test_determinism(self):
        s = gen_wgn(WgnSpec(seed=9, length=64))
        a = add_awgn(s, 10.0, seed=4)
        b = add_awgn(s, 10.0, seed=4)
        np.testing.assert_array_equal(a.samples, b.samples)


class TestSampleStream:
    @pytest.mark.parametrize("dtype, bad", [
        *((d, v) for d in (np.float32, np.float64) for v in (np.nan, np.inf, -np.inf)),
        *((d, v) for d in (np.complex64, np.complex128)
          for v in (np.nan, np.inf, -np.inf, 1j * np.nan, -1j * np.inf)),
    ])
    @pytest.mark.parametrize("step", [1, 3])
    def test_refuses_non_finite(self, dtype, bad, step):
        x = np.arange(30).astype(dtype)
        x[12] = bad
        with pytest.raises(ValueError, match="^stream contains non-finite samples$"):
            SampleStream(x[::step])

    @pytest.mark.parametrize("dtype", [np.int16, np.float32, np.complex64, np.complex128])
    def test_accepts_finite_and_empty(self, dtype):
        for x in (np.arange(30).astype(dtype)[::3], np.zeros(0, dtype)):
            assert SampleStream(x).samples is x

class TestFraming:
    def test_spectrogram_orientation(self):
        spec = NcofdmSpec(seed=11)
        stream = gen_ncofdm_frames(spec, n_frames=8)
        S = spectrogram_matrix(stream, 1024)
        assert S.shape == (1024, 8)
        # occupied rows carry unit-magnitude BPSK, others are empty
        occ_mask = np.zeros(1024, dtype=bool)
        occ_mask[spec.occupied] = True
        np.testing.assert_allclose(np.abs(S[occ_mask]), 1.0, atol=1e-10)
        assert np.abs(S[~occ_mask]).max() < 1e-10

    def test_spectrogram_is_unitary_per_frame(self, rng):
        x = rng.standard_normal(4 * 256) + 1j * rng.standard_normal(4 * 256)
        S = spectrogram_matrix(SampleStream(x), 256)
        assert S.shape == (256, 4)
        np.testing.assert_allclose(np.linalg.norm(S, axis=0),
                                   np.linalg.norm(x.reshape(4, 256), axis=1), rtol=1e-12)

    def test_spectrogram_insufficient(self):
        with pytest.raises(ValidationError, match="^need at least 8 samples, stream has 5$"):
            spectrogram_matrix(SampleStream(np.zeros(5, dtype=complex)), 8)

    @pytest.mark.parametrize("delay", [0, 3])
    def test_spectrogram_impulse(self, delay):
        x = np.zeros(4, dtype=complex)
        x[delay] = 1.0
        S = spectrogram_matrix(SampleStream(x), 4)
        want = 0.5 * np.exp(-2j * np.pi * delay * np.arange(4) / 4)
        np.testing.assert_allclose(S[:, 0], want, atol=1e-15)

    def test_spectrogram_linearity(self, rng):
        x = rng.standard_normal(2 * 64) + 1j * rng.standard_normal(2 * 64)
        y = rng.standard_normal(2 * 64) + 1j * rng.standard_normal(2 * 64)
        lhs = spectrogram_matrix(SampleStream(2.0 * x + 3j * y), 64)
        rhs = (2.0 * spectrogram_matrix(SampleStream(x), 64)
               + 3j * spectrogram_matrix(SampleStream(y), 64))
        assert np.abs(lhs - rhs).max() < 1e-10
