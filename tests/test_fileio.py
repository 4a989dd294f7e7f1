import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rmtspec import (
    DataMatrix,
    DensityCurve,
    read_capture,
    read_density_csv,
    write_capture,
    write_density_csv,
)
from rmtspec.fileio import DTYPE_F32_COMPLEX, DTYPE_I16_REAL, write_table_csv
from rmtspec.errors import BadMagic, TruncatedPayload, UnsupportedVersion

from oracles import reference_density_csv


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


    @pytest.mark.parametrize("a, dtype", [
        (np.array([[1.0, 1e308]]), None),
        (np.array([[1.0, -4e38]]), None),
        (np.array([[1.0 + 1e300j, 0.0]]), None),
        (np.array([[1.0, np.nan]]), None),
        (np.array([[1e39, 0.0]]), DTYPE_F32_COMPLEX),
    ])
    @pytest.mark.filterwarnings("error")
    def test_refuses_payload_beyond_f32(self, tmp_path, a, dtype):
        path = tmp_path / "o.rmtc"
        with pytest.raises(ValueError, match="not finite as f32"):
            write_capture(str(path), a, dtype=dtype)
        assert list(tmp_path.iterdir()) == []


def _special_curve():
    """Signed zero, the smallest subnormal, tiny and huge magnitudes, integral values."""
    xs = np.array([-1e300, -2.0, -0.0, 5e-324, 1e-300, 1.0, 3.0, 2.0**53, 1e300])
    ys = np.array([0.0, -0.0, 5e-324, 1e-300, 1e300, 3.0, 123456789.0, 1e16, 0.1])
    return DensityCurve(xs, ys, point_mass_at_zero=1e-300)


def _cov_shaped_curves(rng):
    """A histogram, a KDE and an MP overlay on three different grids, with atoms."""
    edges = np.linspace(0.1, 3.7, 41)
    hist = DensityCurve(0.5 * (edges[1:] + edges[:-1]), rng.random(40), point_mass_at_zero=0.25)
    kde_xs = np.linspace(-0.4, 4.2, 512)
    kde = DensityCurve(kde_xs, np.exp(-(kde_xs - 1.5) ** 2), point_mass_at_zero=0.25)
    mp_xs = np.linspace(-0.5, 4.3, 1024)
    mp = DensityCurve(mp_xs, np.clip(np.sin(mp_xs), 0.0, None), point_mass_at_zero=0.25)
    return [hist, kde, mp], ["hist", "kde", "mp"]


class TestDensityCsv:
    def test_bytes_match_row_by_row_writer(self, tmp_path, rng):
        xs = np.linspace(-3.0, 3.0, 4265)
        cases = [
            ([DensityCurve(xs, np.abs(np.sin(7.3 * xs)) / 3.0)], ["rho_s"]),
            ([DensityCurve(xs, np.exp(-xs**2), point_mass_at_zero=0.5)], ["rho_s"]),
            ([_special_curve()], ["s"]),
            ([_special_curve(), DensityCurve(np.array([-1.0, 0.0, 2.0]), np.ones(3))], ["s", "t"]),
            _cov_shaped_curves(rng),
        ]
        for curves, labels in cases:
            path = tmp_path / "d.csv"
            write_density_csv(str(path), curves, labels)
            assert path.read_bytes() == reference_density_csv(curves, labels)

    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                      elements=st.floats(allow_subnormal=True)))
    @settings(max_examples=200, deadline=None)
    def test_table_rows_match_fstrings(self, tmp_path_factory, table):
        path = tmp_path_factory.mktemp("t") / "t.csv"
        write_table_csv(str(path), ["# c", "a,b"], table)
        want = ["# c", "a,b"] + [",".join(f"{v:.9g}" for v in row) for row in table]
        assert path.read_text() == "\n".join(want) + "\n"


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
