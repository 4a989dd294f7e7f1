"""Bad library input is refused with a ``ValidationError`` (also a
``ValueError``) whose message names the check, at every site of ``curves``,
``estimation.projection_density`` and ``fileio`` that checks an argument or a
file."""

import numpy as np
import pytest

from rmtspec import (
    DensityCurve,
    projection_density,
    read_density_csv,
    write_capture,
    write_density_csv,
)
from rmtspec.errors import ValidationError


def _read(text):
    def read(path):
        path.write_text(text)
        read_density_csv(str(path))
    return read


_BOX = DensityCurve(np.array([0.0, 1.0]), np.ones(2))

# each case: a call on a scratch file path, and the message with {path} in it
CASES = {
    "curve-shape": (lambda path: DensityCurve(np.zeros(1), np.zeros(1)),
                    "xs and ys must be equal-length 1-d arrays (>= 2 points)"),
    "curve-finite": (lambda path: DensityCurve(np.array([0.0, 1.0]), np.array([0.0, np.nan])),
                     "xs and ys must be finite"),
    "curve-order": (lambda path: DensityCurve(np.array([1.0, 0.0]), np.zeros(2)),
                    "xs must be strictly increasing"),
    "curve-sign": (lambda path: DensityCurve(np.array([0.0, 1.0]), np.array([0.0, -1.0])),
                   "ys must be non-negative"),
    "curve-atom": (lambda path: DensityCurve(np.array([0.0, 1.0]), np.ones(2), 1.5),
                   "point mass must lie in [0, 1]"),
    "projection-axis": (lambda path: projection_density(np.array([1 + 1j, 2.0]), axis="z"),
                        "axis must be 'x' or 'y', got 'z'"),
    "capture-f32-overflow": (lambda path: write_capture(str(path), np.array([[1e39, 0.0]])),
                             "capture payload is not finite as f32: largest |value| is 1e+39, "
                             "f32 holds up to 3.403e+38"),
    "density-no-curve": (lambda path: write_density_csv(str(path), [], []),
                         "need at least one curve, and one label per curve"),
    "density-two-grids": (lambda path: write_density_csv(
        str(path), [_BOX, DensityCurve(np.array([0.0, 2.0]), np.ones(2))], ["a", "b"]),
        "curves of one density file must share one grid"),
    "density-bad-label": (lambda path: write_density_csv(str(path), [_BOX], ["kde "]),
                          "labels ['kde '] make no header: each must be unique, not 'x', and "
                          "free of ',', '=', line breaks, edge blanks and surrogates"),
    "density-surrogate-label": (lambda path: write_density_csv(str(path), [_BOX], ["\ud800"]),
                                "labels ['\\ud800'] make no header: each must be unique, not "
                                "'x', and free of ',', '=', line breaks, edge blanks and "
                                "surrogates"),
    "csv-atom": (_read("# point_mass_kde=abc\nx,kde\n0,1\n1,1\n"),
                 "{path}:1: could not convert string to float: 'abc'"),
    "csv-atom-no-column": (_read("# point_mass_kdee=0.5\nx,kde\n0,1\n1,1\n"),
                           "{path}:1: point mass of 'kdee' names no curve column"),
    "csv-atom-twice": (_read("# point_mass_kde=0.1\n# point_mass_kde=0.5\nx,kde\n0,1\n1,1\n"),
                       "{path}:2: point mass of 'kde' given twice"),
    "csv-header-alone": (_read("x\n0\n"), "{path}:1: header 'x' names no curve column"),
    "csv-header-repeats": (_read("x,kde,kde\n0,1,1\n1,1,1\n"),
                           "{path}:1: header 'x,kde,kde' repeats a label"),
    "csv-no-data": (_read("x,kde\n"), "{path} contains no curve data"),
    "csv-negative": (_read("x,kde\n0,1\n1,-1\n"),
                     "{path}:3: column 'kde' holds the negative ordinate -1"),
    "csv-not-a-curve": (_read("x,kde\n1,1\n0,1\n"),
                        "{path}: column 'kde': xs must be strictly increasing"),
    "csv-field-count": (_read("x,kde\n0,1\n1,1,1\n"), "{path}:3: 3 fields, header has 2"),
    "csv-field-value": (_read("x,kde\n0,1\n1,a\n"),
                        "{path}:3: could not convert string to float: 'a'"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", CASES)
def test_refused_as_validation_error(name, tmp_path):
    call, message = CASES[name]
    path = tmp_path / "f"
    with pytest.raises(ValidationError) as err:
        call(path)
    assert type(err.value) is ValidationError
    assert str(err.value) == message.format(path=path)
