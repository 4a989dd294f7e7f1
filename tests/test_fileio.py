import numpy as np
import pytest

from rmtspec import (
    DataMatrix,
    DensityCurve,
    read_capture,
    read_density_csv,
    write_capture,
    write_density_csv,
)
from rmtspec.fileio import DTYPE_I16_REAL
from rmtspec.errors import BadMagic, TruncatedPayload, UnsupportedVersion


class TestCaptureFormat:
    def test_file_size_arithmetic(self, tmp_path):
        path = tmp_path / "m.rmtc"
        write_capture(str(path), np.zeros((2, 3), dtype=np.float32))
        assert path.stat().st_size == 32 + 2 * 3 * 4

    def test_f32_roundtrip_exact(self, tmp_path, rng):
        path = tmp_path / "m.rmtc"
        a = rng.standard_normal((5, 7)).astype(np.float32).astype(np.float64)
        write_capture(str(path), a)
        back = read_capture(str(path))
        np.testing.assert_array_equal(back.entries, a)

    def test_complex_interleaving(self, tmp_path):
        path = tmp_path / "c.rmtc"
        z = np.array([[1 + 2j, 3 + 4j]])
        write_capture(str(path), z)
        raw = path.read_bytes()
        payload = np.frombuffer(raw[32:], dtype="<f4")
        np.testing.assert_array_equal(payload, [1, 2, 3, 4])
        back = read_capture(str(path))
        np.testing.assert_array_equal(back.entries, [[1, 3], [2, 4]])

    def test_complex_expands_to_2p_rows(self, tmp_path, rng):
        path = tmp_path / "c.rmtc"
        z = (rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))).astype(np.complex64)
        write_capture(str(path), z)
        back = read_capture(str(path))
        assert back.entries.shape == (6, 4)
        np.testing.assert_allclose(back.entries[:3], z.real, atol=1e-7)
        np.testing.assert_allclose(back.entries[3:], z.imag, atol=1e-7)

    def test_i16_scaling(self, tmp_path):
        path = tmp_path / "q.rmtc"
        a = np.array([[0.5, -0.25]])
        write_capture(str(path), a, dtype=DTYPE_I16_REAL)
        back = read_capture(str(path))
        np.testing.assert_allclose(back.entries, [[16384 / 32768, -8192 / 32768]])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rmtc"
        write_capture(str(path), np.zeros((1, 1)))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(BadMagic):
            read_capture(str(path))

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v.rmtc"
        write_capture(str(path), np.zeros((1, 1)))
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(UnsupportedVersion):
            read_capture(str(path))

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.rmtc"
        write_capture(str(path), np.zeros((2, 2)))
        raw = path.read_bytes()
        path.write_bytes(raw[:-1])
        with pytest.raises(TruncatedPayload):
            read_capture(str(path))

    def test_datamatrix_input(self, tmp_path, rng):
        path = tmp_path / "d.rmtc"
        m = DataMatrix(rng.standard_normal((2, 2)).astype(np.float32).astype(float))
        write_capture(str(path), m)
        np.testing.assert_array_equal(read_capture(str(path)).entries, m.entries)


class TestDensityCsv:
    def test_row_count(self, tmp_path):
        path = tmp_path / "d.csv"
        xs = np.array([0.0, 1.0, 2.0])
        write_density_csv(str(path), [DensityCurve(xs, np.array([0.1, 0.2, 0.3]))], ["f"])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,f"
        assert len(lines) == 4

    def test_point_mass_comment(self, tmp_path):
        path = tmp_path / "d.csv"
        xs = np.linspace(1, 9, 5)
        curve = DensityCurve(xs, np.full(5, 0.03), point_mass_at_zero=0.75)
        write_density_csv(str(path), [curve], ["mp"])
        text = path.read_text()
        assert "# point_mass_mp=0.75" in text

    def test_parse_back_9_digits(self, tmp_path):
        path = tmp_path / "d.csv"
        xs = np.linspace(0, 1, 11)
        ys = np.abs(np.sin(xs * 3.7)) + 0.001
        write_density_csv(str(path), [DensityCurve(xs, ys, point_mass_at_zero=0.5)], ["s"])
        back = read_density_csv(str(path))["s"]
        np.testing.assert_allclose(back.xs, xs, rtol=1e-8)
        np.testing.assert_allclose(back.ys, ys, rtol=1e-8)
        assert back.point_mass_at_zero == 0.5

    def test_multi_curve_resampled(self, tmp_path):
        path = tmp_path / "d.csv"
        a = DensityCurve(np.linspace(0, 1, 11), np.ones(11))
        b = DensityCurve(np.linspace(0.5, 2, 31), np.full(31, 0.2))
        write_density_csv(str(path), [a, b], ["a", "b"])
        curves = read_density_csv(str(path))
        assert set(curves) == {"a", "b"}
        assert curves["a"].xs[0] == 0.0
        assert curves["a"].xs[-1] == 2.0

    @pytest.mark.parametrize("text, line", [
        ("x\n0\n1\n", 1),
        ("# point_mass_kde=0.5\nx,kde\n0,1\n1\n", 4),
        ("x,kde\n0,1\n1,1,1\n", 3),
        ("x,kde,kde\n0,1,0\n1,1,0\n", 1),
        ("x,kde\n0,1\n1,a\n", 3),
    ])
    def test_rejects_bad_shape(self, tmp_path, text, line):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"bad.csv:{line}: "):
            read_density_csv(str(path))
