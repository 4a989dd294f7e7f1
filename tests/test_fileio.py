import os
import re
import struct
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rmtspec import (
    DensityCurve,
    read_capture,
    read_density_csv,
    write_capture,
    write_density_csv,
)
from rmtspec import fileio
from rmtspec.fileio import DTYPE_F32_COMPLEX, DTYPE_F32_REAL, DTYPE_I16_REAL, write_table_csv
from rmtspec.errors import ValidationError

from oracles import reference_density_csv, reference_read_capture


class TestCaptureFormat:
    def test_file_size_arithmetic(self, tmp_path):
        path = tmp_path / "m.rmtc"
        write_capture(str(path), np.zeros((2, 3), dtype=np.float32))
        assert path.stat().st_size == 32 + 2 * 3 * 4

    def test_refuses_a_payload_that_is_not_2d(self, tmp_path):
        with pytest.raises(ValidationError, match=r"^capture payload must be 2-d, got shape \(3,\)$"):
            write_capture(str(tmp_path / "m.rmtc"), np.zeros(3))
        assert list(tmp_path.iterdir()) == []

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
        # i16 is an input format only, so the payload is written by hand
        path = tmp_path / "q.rmtc"
        path.write_bytes(_capture_bytes(b"RMTC", 1, DTYPE_I16_REAL, 1, 2, bytes(16),
                                        np.array([16384, -8192], dtype="<i2").tobytes()))
        back = read_capture(str(path))
        np.testing.assert_allclose(back.entries, [[16384 / 32768, -8192 / 32768]])

    def test_i16_full_scale(self, tmp_path):
        path = tmp_path / "q.rmtc"
        path.write_bytes(_capture_bytes(b"RMTC", 1, DTYPE_I16_REAL, 2, 2, bytes(16),
                                        np.array([-32768, 32767, 0, -1], dtype="<i2").tobytes()))
        back = read_capture(str(path))
        np.testing.assert_array_equal(back.entries, [[-1.0, 32767 / 32768], [0.0, -1 / 32768]])

    @pytest.mark.parametrize("dtype", [DTYPE_F32_REAL, DTYPE_F32_COMPLEX, DTYPE_I16_REAL])
    def test_reads_unstandardized_float32(self, tmp_path, dtype):
        path = tmp_path / "d.rmtc"
        path.write_bytes(_capture_bytes(b"RMTC", 1, dtype, 3, 4, bytes(16),
                                        _random_payload(dtype, 3, 4, 0)))
        X = read_capture(str(path))
        assert X.entries.dtype == np.float32 and not X.standardized
        assert X.entries.flags.c_contiguous

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rmtc"
        write_capture(str(path), np.zeros((1, 1)))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(ValidationError, match=re.escape("bad magic b'XXXX'")):
            read_capture(str(path))

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v.rmtc"
        write_capture(str(path), np.zeros((1, 1)))
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(ValidationError, match="^version 9 not supported$"):
            read_capture(str(path))

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.rmtc"
        write_capture(str(path), np.zeros((2, 2)))
        raw = path.read_bytes()
        path.write_bytes(raw[:-1])
        with pytest.raises(ValidationError, match="^payload is 15 bytes, header promises 16$"):
            read_capture(str(path))

    @pytest.mark.parametrize("a", [
        np.array([[1.0, 1e308]]),
        np.array([[1.0, -4e38]]),
        np.array([[1.0 + 1e300j, 0.0]]),
        np.array([[1.0, np.nan]]),
        np.array([[1e39 + 0j, 0.0]]),
    ])
    @pytest.mark.filterwarnings("error")
    def test_refuses_payload_beyond_f32(self, tmp_path, a):
        path = tmp_path / "o.rmtc"
        with pytest.raises(ValueError, match="not finite as f32"):
            write_capture(str(path), a)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("dtype", [DTYPE_F32_REAL, DTYPE_F32_COMPLEX])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_is_a_validation_error(self, tmp_path, dtype, bad):
        # write_capture refuses these, so the payload is written by hand
        path = tmp_path / "n.rmtc"
        path.write_bytes(struct.pack("<4sHHII16s", b"RMTC", 1, dtype, 1, 2, bytes(16))
                         + np.array([1.0, bad, 0.5, 0.25], dtype="<f4").tobytes())
        with pytest.raises(ValidationError, match="^data matrix contains non-finite entries$"):
            read_capture(str(path))


def _capture_bytes(magic, version, dtype, rows, cols, reserved, payload):
    return struct.pack("<4sHHII16s", magic, version, dtype, rows, cols, reserved) + payload


# headers with each field valid or anything, payload bytes anything, the file
# sometimes cut short; or bytes anything at all
_ANY_CAPTURE = st.builds(
    lambda head, payload, cut: _capture_bytes(*head, payload)[:cut],
    st.tuples(st.just(b"RMTC") | st.binary(min_size=4, max_size=4),
              st.just(1) | st.integers(0, 2**16 - 1),
              st.integers(0, 2) | st.integers(0, 2**16 - 1),
              st.integers(0, 6) | st.integers(0, 2**32 - 1),
              st.integers(0, 6) | st.integers(0, 2**32 - 1),
              st.binary(min_size=16, max_size=16)),
    st.binary(max_size=256), st.none() | st.integers(0, 300),
) | st.binary(max_size=128)

# well-formed f32 captures of the promised length, NaN and inf values included
_F32_CAPTURE = st.tuples(st.sampled_from([DTYPE_F32_REAL, DTYPE_F32_COMPLEX]),
                         st.integers(1, 6), st.integers(1, 6)).flatmap(
    lambda h: st.lists(st.floats(width=32), min_size=h[1] * h[2] * (1 + h[0]),
                       max_size=h[1] * h[2] * (1 + h[0])).map(
        lambda v: _capture_bytes(b"RMTC", 1, *h, bytes(16), np.array(v, "<f4").tobytes())))


class TestReadCaptureFuzz:
    @given(raw=_ANY_CAPTURE | _F32_CAPTURE)
    @settings(max_examples=500, deadline=None)
    def test_refuses_only_with_validation_errors(self, tmp_path_factory, raw):
        path = tmp_path_factory.getbasetemp() / "fuzz.rmtc"
        path.write_bytes(raw)
        try:
            m = read_capture(str(path))
        except ValidationError:
            return
        assert m.entries.ndim == 2 and np.all(np.isfinite(m.entries))


def _outcome(read, path):
    """The dtype and float32 bits of the matrix ``read`` returns for
    ``path``, or its refusal."""
    try:
        a = read(str(path)).entries
    except ValidationError as exc:
        return type(exc), str(exc)
    return a.dtype, np.ascontiguousarray(a, dtype=np.float32).view(np.uint32).tolist()


# finite captures of each dtype whose rows cross the staging blocks unevenly,
# some with trailing bytes
_VALID_CAPTURE = st.tuples(st.sampled_from([DTYPE_F32_REAL, DTYPE_F32_COMPLEX, DTYPE_I16_REAL]),
                           st.integers(1, 9), st.integers(1, 9), st.integers(0, 2**32 - 1),
                           st.binary(max_size=9)).map(
    lambda h: _capture_bytes(b"RMTC", 1, *h[:3], bytes(16), _random_payload(*h[:4]) + h[4]))


def _random_payload(dtype, rows, cols, seed):
    rng = np.random.default_rng(seed)
    if dtype == DTYPE_I16_REAL:
        return rng.integers(-32768, 32768, rows * cols, dtype="<i2").tobytes()
    n = rows * cols * (2 if dtype == DTYPE_F32_COMPLEX else 1)
    return rng.standard_normal(n, dtype=np.float32).astype("<f4").tobytes()


class TestStreamedRead:
    """``read_capture`` streams the payload through a staging block; the
    whole-file reader in the oracles is the reference for bits and refusals."""

    @given(raw=_VALID_CAPTURE | _ANY_CAPTURE, block=st.sampled_from([1, 4, 8, 12, 40, 1 << 22]))
    @settings(max_examples=400, deadline=None)
    def test_matches_whole_file_reader(self, tmp_path_factory, raw, block):
        path = tmp_path_factory.getbasetemp() / "stream.rmtc"
        path.write_bytes(raw)
        with mock.patch.object(fileio, "_READ_BLOCK_BYTES", block):
            assert _outcome(read_capture, path) == _outcome(reference_read_capture, path)

    @pytest.mark.parametrize("dtype", [DTYPE_F32_REAL, DTYPE_F32_COMPLEX, DTYPE_I16_REAL])
    @pytest.mark.parametrize("rows, cols", [(0, 3), (3, 0), (0, 0)])
    def test_empty_dimensions_refused_as_before(self, tmp_path, dtype, rows, cols):
        path = tmp_path / "e.rmtc"
        path.write_bytes(_capture_bytes(b"RMTC", 1, dtype, rows, cols, bytes(16), b""))
        want = _outcome(reference_read_capture, path)
        shape = (2 * rows if dtype == DTYPE_F32_COMPLEX else rows, cols)
        assert want == (ValidationError, f"expected a 2-d matrix, got shape {shape}")
        assert _outcome(read_capture, path) == want

    def test_overflowing_header_refused_before_allocating(self, tmp_path):
        path = tmp_path / "o.rmtc"
        path.write_bytes(_capture_bytes(b"RMTC", 1, DTYPE_F32_COMPLEX, 2**32 - 1, 2**32 - 1,
                                        bytes(16), bytes(64)))
        with pytest.raises(ValidationError,
                           match="^payload is 64 bytes, header promises 147573952520956936200$"):
            read_capture(str(path))

    def test_file_shrinking_mid_read(self, tmp_path, rng):
        # the size check sees the whole file; the read then finds it cut short
        path = tmp_path / "s.rmtc"
        write_capture(str(path), rng.standard_normal((6, 5)))
        full = os.stat(path)
        path.write_bytes(path.read_bytes()[:-7])
        with mock.patch.object(fileio, "_READ_BLOCK_BYTES", 40), \
                mock.patch.object(fileio.os, "fstat", lambda fd: full):
            with pytest.raises(ValidationError,
                               match="^payload is 113 bytes, header promises 120$"):
                read_capture(str(path))

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_non_regular_file_refused(self, tmp_path):
        path = tmp_path / "pipe.rmtc"
        os.mkfifo(path)
        raw = _capture_bytes(b"RMTC", 1, DTYPE_F32_REAL, 2, 2, bytes(16), bytes(16))

        def feed():
            with open(path, "wb") as fh:
                fh.write(raw)

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        try:
            with pytest.raises(ValidationError, match="^payload is 0 bytes, header promises 16$"):
                read_capture(str(path))
        finally:
            writer.join(timeout=5)
        assert not writer.is_alive()


def _old_capture_bytes(a, dtype):
    """Header plus payload as one ``bytes``, by a formula apart from ``write_capture``."""
    a = np.asarray(a)
    if dtype == DTYPE_F32_COMPLEX:
        body = np.ascontiguousarray(a, dtype=np.complex64).view("<f4").tobytes()
    else:
        body = a.astype("<f4").tobytes()
    return struct.pack("<4sHHII16s", b"RMTC", 1, dtype, *a.shape, bytes(16)) + body


class TestWriteCaptureBytes:
    @pytest.mark.parametrize("dtype", [DTYPE_F32_REAL, DTYPE_F32_COMPLEX])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_bytes_match_concatenated_formula(self, tmp_path, rng, dtype, layout):
        a = rng.uniform(-1.0, 1.0, (5, 14))
        if dtype == DTYPE_F32_COMPLEX:
            a = a + 1j * rng.uniform(-1.0, 1.0, a.shape)
        a = {"C": a, "F": np.asfortranarray(a), "strided": a[:, ::2]}[layout]
        path = tmp_path / "w.rmtc"
        write_capture(str(path), a)
        assert path.read_bytes() == _old_capture_bytes(a, dtype)
        assert [p.name for p in tmp_path.iterdir()] == ["w.rmtc"]


def _special_curve():
    """Signed zero, the smallest subnormal, tiny and huge magnitudes, integral values."""
    xs = np.array([-1e300, -2.0, -0.0, 5e-324, 1e-300, 1.0, 3.0, 2.0**53, 1e300])
    ys = np.array([0.0, -0.0, 5e-324, 1e-300, 1e300, 3.0, 123456789.0, 1e16, 0.1])
    return DensityCurve(xs, ys, point_mass_at_zero=1e-300)


def _cov_shaped_curves(rng):
    """A histogram, a KDE and an MP overlay on one 2048-point grid, with atoms."""
    xs = np.linspace(-0.5, 4.3, 2048)
    hist = DensityCurve(xs, rng.random(2048), point_mass_at_zero=0.25)
    kde = DensityCurve(xs, np.exp(-(xs - 1.5) ** 2), point_mass_at_zero=0.25)
    mp = DensityCurve(xs, np.clip(np.sin(xs), 0.0, None), point_mass_at_zero=0.25)
    return [hist, kde, mp], ["hist", "kde", "mp"]


class TestDensityCsv:
    def test_bytes_match_row_by_row_writer(self, tmp_path, rng):
        xs = np.linspace(-3.0, 3.0, 4265)
        cases = [
            ([DensityCurve(xs, np.abs(np.sin(7.3 * xs)) / 3.0)], ["rho_s"]),
            ([DensityCurve(xs, np.exp(-xs**2), point_mass_at_zero=0.5)], ["rho_s"]),
            ([_special_curve()], ["s"]),
            ([_special_curve(), DensityCurve(_special_curve().xs, np.ones(9))], ["s", "t"]),
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


    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_every_written_file_reads_back(self, tmp_path_factory, data):
        # any labels; a grid and ordinates that 9 significant digits keep, as
        # the file holds no more; atoms that 9 digits keep
        labels = data.draw(st.lists(st.text(max_size=4), min_size=1, max_size=3))
        eighths = hnp.arrays(np.float64, st.integers(2, 6), elements=st.integers(1, 8000))
        xs = np.cumsum(data.draw(eighths)) / 8 - 100
        ys = hnp.arrays(np.float64, len(xs), elements=st.integers(0, 8000).map(lambda k: k / 8))
        atom = st.integers(0, 10**9 - 1).map(lambda k: k / 10**9)
        curves = [DensityCurve(xs, data.draw(ys), data.draw(atom)) for _ in labels]
        path = tmp_path_factory.mktemp("d") / "d.csv"
        try:
            write_density_csv(str(path), curves, labels)
        except ValidationError as exc:
            assert str(exc).startswith(f"labels {labels!r} make no header")
            assert not path.exists()
            return
        back = read_density_csv(str(path))
        assert list(back) == labels
        for label, c in zip(labels, curves):
            assert np.array_equal(back[label].xs, c.xs)
            assert np.array_equal(back[label].ys, c.ys)
            assert back[label].point_mass_at_zero == c.point_mass_at_zero

    def test_grid_finer_than_nine_digits_refused(self, tmp_path):
        path = tmp_path / "d.csv"
        curve = DensityCurve(np.array([1.0, 1.0 + 1e-12, 2.0]), np.ones(3))
        with pytest.raises(ValidationError, match=r"^grid is finer than the file's 9 "
                           r"significant digits: x = 1\.0 and 1\.000000000001 both write as 1$"):
            write_density_csv(str(path), [curve], ["f"])
        assert list(tmp_path.iterdir()) == []

    @given(xs=hnp.arrays(np.float64, st.integers(2, 8), unique=True,
                         elements=st.floats(allow_nan=False, allow_infinity=False,
                                            allow_subnormal=True)),
           near=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_any_increasing_grid_is_refused_or_reads_back(self, tmp_path_factory, xs, near):
        # any finite grid; or one of neighbours a few ulps apart, which 9
        # digits merge unless they are subnormal or straddle a power of ten
        xs = np.sort(xs)
        if near:
            with np.errstate(all="ignore"):  # past the largest double: no curve
                xs = xs[0] + np.arange(len(xs)) * np.abs(3 * np.spacing(xs[0]))
        if not (np.isfinite(xs).all() and np.all(xs[1:] > xs[:-1])):
            return  # -0.0 and 0.0, or the largest doubles: no curve
        path = tmp_path_factory.mktemp("g") / "d.csv"
        try:
            write_density_csv(str(path), [DensityCurve(xs, np.ones(len(xs)))], ["f"])
        except ValidationError as exc:
            assert str(exc).startswith("grid is finer than the file's 9 significant digits")
            assert not path.exists()
            return
        assert len(read_density_csv(str(path))["f"].xs) == len(xs)

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

    @pytest.mark.parametrize("xs_b", [np.linspace(0.5, 2, 31), np.linspace(0, 1, 12),
                                      np.linspace(0, 1, 11) + 1e-12])
    def test_refuses_curves_on_different_grids(self, tmp_path, xs_b):
        # a column is never resampled onto another curve's grid
        path = tmp_path / "d.csv"
        a = DensityCurve(np.linspace(0, 1, 11), np.ones(11))
        b = DensityCurve(xs_b, np.full(len(xs_b), 0.2))
        with pytest.raises(ValueError, match="must share one grid"):
            write_density_csv(str(path), [a, b], ["a", "b"])
        assert not path.exists()

    def test_multi_curve_one_grid(self, tmp_path):
        path = tmp_path / "d.csv"
        xs = np.arange(21) / 10.0  # every value reads back from 9 digits
        a = DensityCurve(xs, np.full(21, 0.5))
        b = DensityCurve(xs.copy(), np.full(21, 0.2), point_mass_at_zero=0.6)
        write_density_csv(str(path), [a, b], ["a", "b"])
        curves = read_density_csv(str(path))
        assert set(curves) == {"a", "b"}
        assert curves["b"].point_mass_at_zero == 0.6
        np.testing.assert_array_equal(curves["a"].xs, xs)
        np.testing.assert_array_equal(curves["b"].ys, b.ys)

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

    @pytest.mark.parametrize("text, message", [
        ("x,kde\n0,1\n1,a\n2,1,1\n", "3: could not convert string to float: 'a'"),
        ("x,kde\n0,1\n1,1,1\n2,a\n", "3: 3 fields, header has 2"),
        ("x,kde\n\n# c\n0,1\n 1 , nan\n2,\n", "6: could not convert string to float: ''"),
    ])
    def test_first_bad_line_named(self, tmp_path, text, message):
        # the whole file is parsed at once; the line at fault is found after
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            read_density_csv(str(path))
        assert str(err.value) == f"{path}:{message}"
        assert err.value.__context__ is None or err.value.__suppress_context__

    @pytest.mark.parametrize("text, message", [
        ("x,kde\n0,0\n1,-0.5\n", "3: column 'kde' holds the negative ordinate -0.5"),
        ("x,a,b\n0,1,1\n1,1,-1e-300\n2,-2,1\n",
         "3: column 'b' holds the negative ordinate -1e-300"),
    ])
    def test_negative_ordinate_refused(self, tmp_path, text, message):
        # refused, not clipped to 0: the package never writes one
        path = tmp_path / "neg.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            read_density_csv(str(path))
        assert str(err.value) == f"{path}:{message}"

    def test_negative_zero_reads_back(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,kde\n0,-0\n1,1\n")
        assert read_density_csv(str(path))["kde"].ys.tolist() == [0.0, 1.0]

    @given(rows=st.lists(st.lists(st.floats(allow_infinity=False), min_size=3, max_size=3),
                         min_size=1, max_size=20),
           fmt=st.sampled_from(["{!r}", "{:.9g}", " {:.3e} ", "{:+.17f}"]))
    @settings(max_examples=100, deadline=None)
    def test_parse_matches_line_by_line(self, rows, fmt):
        lines = [",".join(fmt.format(v) for v in row) for row in rows]
        got = fileio._parse_at_once(lines, 3)
        want = fileio._parse_by_line("d.csv", 3, list(range(len(lines))), lines)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert fileio._parse_at_once(lines, 4) is None
