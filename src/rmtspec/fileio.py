"""Capture-file container and density CSV serialization.

Capture format (".rmtc"): a fixed 32-byte little-endian header followed by a
row-major payload.

    offset  size  field
    0       4     magic "RMTC"
    4       2     version (u16) = 1
    6       2     dtype (u16): 0 = f32 real, 1 = f32 complex interleaved,
                  2 = i16 real (values scaled by 1/32768 on read)
    8       4     rows (u32)   -- complex dtype: complex rows
    12      4     cols (u32)
    16      16    reserved, zero

Complex payloads interleave Re, Im per sample and expand on read to 2*rows
real rows (real-part block first). Writes store f32, real or complex by the
array's type, and are atomic (temp file + rename).
Reads stream the payload through a 512 KiB staging block, the one budget of
every bounded temporary, into the one float32 result, which holds every stored
value exactly (an i16 value over 32768 is a float32), so a read holds little
more than the matrix it returns: 4 bytes a value, half its float64 promotion.
``standardize_rows`` and ``LaggedMatrix`` promote it, so every product and
eigensolve runs in float64.
"""

from __future__ import annotations

import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from .curves import DensityCurve
from .errors import ValidationError
from .linalg import DataMatrix

__all__ = [
    "CaptureHeader",
    "DTYPE_F32_REAL",
    "DTYPE_F32_COMPLEX",
    "DTYPE_I16_REAL",
    "write_capture",
    "read_capture",
    "write_density_csv",
    "write_table_csv",
    "read_density_csv",
]

_MAGIC = b"RMTC"
_VERSION = 1
_HEADER = struct.Struct("<4sHHII16s")

DTYPE_F32_REAL = 0
DTYPE_F32_COMPLEX = 1
DTYPE_I16_REAL = 2

_ELEMENT_BYTES = {DTYPE_F32_REAL: 4, DTYPE_F32_COMPLEX: 8, DTYPE_I16_REAL: 2}
# payload bytes staged per block by read_capture: 512 KiB, the one budget of
# every bounded temporary (linalg._STD_CHUNK_BYTES)
_READ_BLOCK_BYTES = 1 << 19
# neighbours this far apart, relative to the larger |x|, print apart in %.9g:
# each rounds by at most half a unit in its 9th digit, 5e-9 of its magnitude
_TEXT_REL_GAP = 1e-8


@dataclass(frozen=True)
class CaptureHeader:
    dtype: int
    rows: int
    cols: int

    def payload_bytes(self) -> int:
        return self.rows * self.cols * _ELEMENT_BYTES[self.dtype]

    def pack(self) -> bytes:
        return _HEADER.pack(_MAGIC, _VERSION, self.dtype, self.rows, self.cols, b"\0" * 16)

    @classmethod
    def unpack(cls, raw: bytes) -> "CaptureHeader":
        if len(raw) < _HEADER.size:
            raise ValidationError(f"file shorter than the {_HEADER.size}-byte header")
        magic, version, dtype, rows, cols, _ = _HEADER.unpack(raw[: _HEADER.size])
        if magic != _MAGIC:
            raise ValidationError(f"bad magic {magic!r}")
        if version != _VERSION:
            raise ValidationError(f"version {version} not supported")
        if dtype not in _ELEMENT_BYTES:
            raise ValidationError(f"dtype code {dtype} not supported")
        return cls(dtype=dtype, rows=rows, cols=cols)


def _atomic_write(path: str, *parts) -> None:
    """Write ``parts`` (bytes or C-contiguous arrays) in order to ``path``
    through a temp file in the same directory and an atomic rename. An
    ``OSError`` names ``path``, not the temp file."""
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".rmtspec-")
        with os.fdopen(fd, "wb") as fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise type(exc)(exc.errno, exc.strerror, path) from None
        raise


def write_capture(path: str, matrix) -> None:
    """Write a real or complex 2-d array as an f32 real or f32 complex capture."""
    a = np.asarray(matrix)
    if a.ndim != 2:
        raise ValidationError(f"capture payload must be 2-d, got shape {a.shape}")
    # an f32 cast of a value beyond its range gives inf: refused below, not warned
    with np.errstate(over="ignore"):
        if np.iscomplexobj(a):
            dtype, payload = DTYPE_F32_COMPLEX, np.ascontiguousarray(a, dtype="<c8")
        else:
            dtype, payload = DTYPE_F32_REAL, np.ascontiguousarray(a, dtype="<f4")
    # min and max over the f32 words carry any NaN and expose any inf, no mask
    words = payload.view("<f4")
    if words.size and not (np.isfinite(words.min()) and np.isfinite(words.max())):
        raise ValidationError(f"capture payload is not finite as f32: largest |value| is "
                              f"{np.abs(a).max():.4g}, f32 holds up to "
                              f"{np.finfo(np.float32).max:.4g}")
    header = CaptureHeader(dtype=dtype, rows=a.shape[0], cols=a.shape[1])
    _atomic_write(path, header.pack(), payload)


def read_capture(path: str) -> DataMatrix:
    """Read a capture into an unstandardized float32 ``DataMatrix``, the
    stored values exactly; complex payloads expand to 2*rows real rows.

    Bytes past the promised payload are ignored. ``ValidationError`` is
    raised when the file's size, checked before anything is allocated, is
    short of the promised payload (a pipe or other non-regular file has size
    0), and when the bytes actually read are (a file that shrinks meanwhile).
    """
    with open(path, "rb") as fh:
        header = CaptureHeader.unpack(fh.read(_HEADER.size))
        expected = header.payload_bytes()
        available = max(0, os.fstat(fh.fileno()).st_size - _HEADER.size)
        if available < expected:
            raise ValidationError(f"payload is {available} bytes, header promises {expected}")
        a = _read_payload(fh, header)
    return DataMatrix(a)


def _read_payload(fh, header: CaptureHeader) -> np.ndarray:
    """Fill the float32 result block by block from a small f32 (or i16)
    buffer, which is freed on return, before ``DataMatrix`` checks the
    result."""
    rows, cols = header.rows, header.cols
    is_complex = header.dtype == DTYPE_F32_COMPLEX
    out = np.empty((2 * rows if is_complex else rows, cols), dtype=np.float32)
    row_bytes = cols * _ELEMENT_BYTES[header.dtype]
    if out.size == 0:
        return out
    step = min(rows, max(1, _READ_BLOCK_BYTES // row_bytes))
    src = np.dtype("<i2" if header.dtype == DTYPE_I16_REAL else "<f4")
    buf = np.empty(step * row_bytes // src.itemsize, dtype=src)
    for lo in range(0, rows, step):
        k = min(step, rows - lo)
        block = buf[: k * row_bytes // buf.itemsize]
        got = fh.readinto(block)
        if got != block.nbytes:
            raise ValidationError(f"payload is {lo * row_bytes + got} bytes, "
                                  f"header promises {header.payload_bytes()}")
        # f32 words are copied, not cast, so a NaN (signaling too) passes
        # silently to DataMatrix, which refuses it
        if is_complex:
            pairs = block.reshape(k, cols, 2)
            out[lo:lo + k] = pairs[..., 0]
            out[rows + lo:rows + lo + k] = pairs[..., 1]
        else:
            out[lo:lo + k] = block.reshape(k, cols)
    if header.dtype == DTYPE_I16_REAL:
        out /= 32768.0  # exact: a 16-bit integer over a power of two
    return out


def write_density_csv(path: str, curves, labels) -> None:
    """Write one or more density curves on one grid as CSV.

    Leading ``# point_mass_<label>=<value>`` comment lines carry nonzero
    atoms; the header row is ``x,<label1>,...``; values use 9 significant
    digits. Curves on different grids are refused with ``ValidationError``: a
    curve is never resampled, so each column keeps its curve's mass. So are
    labels that ``read_density_csv`` would not read back as written, and a
    grid finer than 9 digits, whose text would not be strictly increasing.
    """
    curves, labels = list(curves), list(labels)
    if not curves or len(curves) != len(labels):
        raise ValidationError("need at least one curve, and one label per curve")
    if len(set(labels)) < len(labels) or any(
            label == "x" or label != label.strip() or any(c in label for c in ",=\r\n")
            for label in labels):
        raise ValidationError(f"labels {labels!r} make no header: each must be unique, not "
                              f"'x', and free of ',', '=', line breaks and edge blanks")
    xs = curves[0].xs
    if not all(np.array_equal(c.xs, xs) for c in curves):
        raise ValidationError("curves of one density file must share one grid")
    _require_distinct_text(xs)

    lines = [f"# point_mass_{label}={c.point_mass_at_zero:.9g}"
             for label, c in zip(labels, curves) if c.point_mass_at_zero > 0]
    lines.append("x," + ",".join(labels))
    write_table_csv(path, lines, np.column_stack([xs, *(c.ys for c in curves)]))


def _require_distinct_text(xs: np.ndarray) -> None:
    """Refuse, with ``ValidationError``, a strictly increasing grid whose
    ``%.9g`` text is not. Only neighbours closer than ``_TEXT_REL_GAP`` of
    their magnitude can print alike, and only those are formatted."""
    lo, hi = xs[:-1], xs[1:]
    with np.errstate(over="ignore"):  # an overflowed gap is wide enough
        near = np.flatnonzero(hi - lo <= _TEXT_REL_GAP * np.maximum(np.abs(lo), np.abs(hi)))
    for i in near:
        a, b = "%.9g" % lo[i], "%.9g" % hi[i]
        if float(a) >= float(b):
            raise ValidationError(f"grid is finer than the file's 9 significant digits: "
                                  f"x = {float(lo[i])!r} and {float(hi[i])!r} both write as {a}")


def write_table_csv(path: str, head: list[str], table: np.ndarray) -> None:
    """Write the ``head`` lines, then one comma-separated row per row of the 2-d
    ``table``, every value with 9 significant digits (``%.9g``, the same string
    as ``f"{v:.9g}"``), formatted in one pass over the whole table."""
    rows, cols = table.shape
    body = "\n".join([",".join(["%.9g"] * cols)] * rows) % tuple(table.ravel().tolist())
    _atomic_write(path, ("\n".join([*head, body]) + "\n").encode("utf-8"))


def read_density_csv(path: str) -> dict[str, DensityCurve]:
    """Parse a CSV written by ``write_density_csv`` back into curves.

    The header needs ``x`` and at least one curve column, each label once,
    every data row needs one number per header column, each ``point_mass_``
    line must name a curve column that no other one names, and no curve
    ordinate may be negative; otherwise ``ValidationError`` names the file and
    the line (and the label, or the column of a negative ordinate). A file
    that is not UTF-8 text is refused with a ``ValidationError`` naming the
    file; a column that is not a curve (grid not strictly increasing, a
    non-finite value, fewer than 2 rows, an atom outside [0, 1)), naming the
    file and the column.
    """
    atoms: dict[str, float] = {}
    atom_lines: dict[str, int] = {}
    header: list[str] | None = None
    lines: list[str] = []
    linenos: list[int] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    body = line[1:].strip()
                    if body.startswith("point_mass_") and "=" in body:
                        key, val = body[len("point_mass_"):].split("=", 1)
                        if key in atoms:
                            raise ValidationError(f"{path}:{lineno}: point mass of {key!r} "
                                                  f"given twice")
                        try:
                            atoms[key] = float(val)
                        except ValueError as exc:
                            raise ValidationError(f"{path}:{lineno}: {exc}") from None
                        atom_lines[key] = lineno
                    continue
                if header is None:
                    fields = line.split(",")
                    if len(fields) < 2:
                        raise ValidationError(f"{path}:{lineno}: header {line!r} names no "
                                              f"curve column")
                    if len(set(fields)) < len(fields):
                        raise ValidationError(f"{path}:{lineno}: header {line!r} repeats a label")
                    header = fields
                    continue
                lines.append(line)
                linenos.append(lineno)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text: {exc}") from None
    if header is None or not lines:
        raise ValidationError(f"{path} contains no curve data")
    for key, lineno in atom_lines.items():
        if key not in header[1:]:
            raise ValidationError(f"{path}:{lineno}: point mass of {key!r} names no "
                                  f"curve column")
    width = len(header)
    data = _parse_at_once(lines, width)
    if data is None:  # find the line at fault
        data = _parse_by_line(path, width, linenos, lines)
    negative = np.argwhere(data[:, 1:] < 0.0)
    if negative.size:
        i, j = negative[0]
        raise ValidationError(f"{path}:{linenos[i]}: column {header[j + 1]!r} holds the "
                              f"negative ordinate {data[i, j + 1]:g}")
    curves = {}
    for j, label in enumerate(header[1:], start=1):
        try:
            curves[label] = DensityCurve(data[:, 0], data[:, j], atoms.get(label, 0.0))
        except ValidationError as exc:
            raise ValidationError(f"{path}: column {label!r}: {exc}") from None
    return curves


def _parse_at_once(lines: list[str], width: int) -> np.ndarray | None:
    """The data lines as a len(lines) x width array, every field parsed in one
    call, or None when a line has another field count or a field is not a
    number."""
    if any(line.count(",") != width - 1 for line in lines):
        return None
    try:
        return np.array(",".join(lines).split(","), dtype=np.float64).reshape(-1, width)
    except ValueError:
        return None


def _parse_by_line(path: str, width: int, linenos: list[int], lines: list[str]) -> np.ndarray:
    """The data lines parsed one by one; ``ValidationError`` names the first
    line with a field count other than ``width`` or a field that is not a
    number."""
    rows = []
    for lineno, line in zip(linenos, lines):
        fields = line.split(",")
        if len(fields) != width:
            raise ValidationError(f"{path}:{lineno}: {len(fields)} fields, header has {width}")
        try:
            rows.append(list(map(float, fields)))
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
    return np.asarray(rows)
