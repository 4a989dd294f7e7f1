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
The analyses keep it as read: ``standardize_rows`` adds three numbers per
row, and each product promotes and standardizes one block of it at a time,
so every product and eigensolve runs in float64 with no float64 copy of the
capture.
"""

from __future__ import annotations

import os
import pathlib
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from .curves import DensityCurve, _block_items
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
    step = min(rows, _block_items(row_bytes))
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
    """Write one or more density curves on one grid as CSV, in the one layout
    ``read_density_csv`` reads.

    Leading ``# point_mass_<label>=<value>`` comment lines carry nonzero
    atoms; the header row is ``x,<label1>,...``; values use 9 significant
    digits. Curves on different grids are refused with ``ValidationError``: a
    curve is never resampled, so each column keeps its curve's mass. So are
    labels that ``_labels_read_back`` refuses, and a grid finer than 9 digits,
    whose text would not be strictly increasing.
    """
    curves, labels = list(curves), list(labels)
    if not curves or len(curves) != len(labels):
        raise ValidationError("need at least one curve, and one label per curve")
    if not _labels_read_back(labels):
        raise ValidationError(f"labels {labels!r} make no header: each must be unique, not "
                              f"'x', and free of ',', '=', line breaks, edge blanks and "
                              "surrogates")
    xs = curves[0].xs
    if not all(np.array_equal(c.xs, xs) for c in curves):
        raise ValidationError("curves of one density file must share one grid")
    _require_distinct_text(xs)

    lines = [f"# point_mass_{label}={c.point_mass_at_zero:.9g}"
             for label, c in zip(labels, curves) if c.point_mass_at_zero > 0]
    lines.append("x," + ",".join(labels))
    write_table_csv(path, lines, np.column_stack([xs, *(c.ys for c in curves)]))


def _labels_read_back(labels) -> bool:
    """Whether a header of ``x`` and ``labels`` reads back as these labels:
    each once, none ``x``, none holding ``,``, ``=``, a line break, an edge
    blank or a surrogate code point, which UTF-8 cannot encode. The writer
    writes, and the reader reads, no other labels."""
    return len(set(labels)) == len(labels) and not any(
        label == "x" or label != label.strip() or any(c in label for c in ",=\r\n")
        or any("\ud800" <= c <= "\udfff" for c in label) for label in labels)


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
    """Read back the curves of a CSV in the one layout ``write_density_csv``
    writes: ``# point_mass_<label>=<value>`` lines, each naming a curve column
    that no other one names; then the header ``x,<label1>,...``, of at least
    one label, each once and each one the writer accepts; then data rows of
    one number per header column, as ``np.loadtxt`` reads them, and no
    negative ordinate.

    Anything else, a blank or ``#`` line after the header or another line
    before it included, is refused with a ``ValidationError`` naming the file
    and the line (and the label, or the column of a negative ordinate). A file
    that is not UTF-8 text, or holds no data row, is refused naming the file;
    a column that is not a curve (grid not strictly increasing, a non-finite
    value, fewer than 2 rows, an atom outside [0, 1]), naming the file and the
    column.
    """
    try:
        lines = pathlib.Path(path).read_text(encoding="utf-8").removesuffix("\n").split("\n")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text: {exc}") from None
    # the atom lines lead, then lines[n] is the header
    n = next(i for i, line in enumerate(lines + [""]) if not line.startswith("# point_mass_"))
    if not any(lines[n + 1:]):  # np.loadtxt would skip blank rows, and warn if all are
        raise ValidationError(f"{path} contains no curve data")
    header, rows = lines[n].split(","), lines[n + 1:]
    at = f"{path}:{n + 1}: header {lines[n]!r}"
    if len(header) < 2:
        raise ValidationError(f"{at} names no curve column")
    if len(set(header)) < len(header):
        raise ValidationError(f"{at} repeats a label")
    if header[0] != "x" or not _labels_read_back(header[1:]):
        raise ValidationError(f"{at} is not x followed by labels that write_density_csv accepts")
    atoms: dict[str, float] = {}
    for lineno, line in enumerate(lines[:n], start=1):
        key, _, value = line[len("# point_mass_"):].partition("=")
        if key in atoms:
            raise ValidationError(f"{path}:{lineno}: point mass of {key!r} given twice")
        try:
            atoms[key] = float(value)
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
        if key not in header[1:]:
            raise ValidationError(f"{path}:{lineno}: point mass of {key!r} names no curve column")
    try:  # a skipped blank row shows in the shape
        data = np.loadtxt(rows, delimiter=",", ndmin=2, comments=None)
        if data.shape != (len(rows), len(header)) or np.any(data[:, 1:] < 0.0):
            raise ValueError
    except ValueError:
        bad = _bad_row(header, rows, n + 2)
        raise ValidationError("%s:%d: %s" % (path, *bad) if bad else f"{path}: bad rows") from None
    curves = {}
    for label, ys in zip(header[1:], data[:, 1:].T):
        try:
            curves[label] = DensityCurve(data[:, 0], ys, atoms.get(label, 0.0))
        except ValidationError as exc:
            raise ValidationError(f"{path}: column {label!r}: {exc}") from None
    return curves


def _bad_row(header: list[str], rows: list[str], first: int) -> tuple[int, str] | None:
    """The line (``first`` for ``rows[0]``) and the fault of the first data row
    that is not one number per ``header`` column as ``np.loadtxt`` reads it, or
    that holds a negative ordinate; None when there is none. Once ``np.loadtxt``
    has refused the rows or found a negative ordinate there is one, as a
    property test checks; ``read_density_csv`` still refuses by file name if a
    numpy release ever reads a whole table differently from its fields."""
    for lineno, fields in enumerate((row.split(",") for row in rows), start=first):
        if len(fields) != len(header):
            return lineno, f"{len(fields)} fields, header has {len(header)}"
        for label, field in zip(header, fields):
            try:  # np.loadtxt skips an empty line, so an empty field is tried as "?"
                value = np.loadtxt([field or "?"], delimiter=",", comments=None)
            except ValueError:
                return lineno, f"could not convert string to float: {field!r}"
            if value < 0.0 and label != "x":
                return lineno, f"column {label!r} holds the negative ordinate {value:g}"
