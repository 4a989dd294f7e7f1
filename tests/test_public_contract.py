"""Every function ``rmtspec/__init__.py`` re-exports, called with arguments
of the types it documents but any values: it returns finite output, or it
raises ``ValidationError`` or ``NumericalError`` with a message that names
the input at fault, and it issues no warning.

Sizes stay small (at most a few hundred samples, 8 x 8 matrices, 256-point
FFTs), so the suite allocates little; the values are the point."""

import ast
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import rmtspec
from rmtspec import (
    DataMatrix,
    DensityCurve,
    EsdFunction,
    LaggedMatrix,
    RealSpectrum,
)
from rmtspec.errors import DisjointSupportsWarning, NumericalError, ValidationError

# any double: NaN, both infinities, zeros, subnormals and the largest finite
_FLOAT = st.floats()
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_INT = st.integers(-3, 300)


def _reals(max_side=12, min_side=0, elements=_FLOAT):
    return hnp.arrays(np.float64, st.integers(min_side, max_side), elements=elements)


def _complexes(max_side=12, min_side=0):
    return hnp.arrays(np.complex128, st.integers(min_side, max_side),
                      elements=st.complex_numbers(allow_nan=True, allow_infinity=True))


def _matrices(max_side=8, dtype=np.float64, elements=_FLOAT):
    return hnp.arrays(dtype, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                              max_side=max_side), elements=elements)


def _square(max_side=8, elements=_FLOAT, symmetric=False):
    @st.composite
    def draw(draw):
        n = draw(st.integers(0, max_side))
        a = draw(hnp.arrays(np.float64, (n, n), elements=elements))
        if symmetric and draw(st.booleans()):
            with np.errstate(invalid="ignore"):  # inf - inf
                a = a / 2 + a.T / 2
        return a
    return draw()


@st.composite
def _curve(draw, xs=None):
    """A valid ``DensityCurve`` with arbitrary finite values."""
    if xs is None:
        xs = np.unique(draw(_reals(8, 2, _FINITE)))
        if xs.size < 2:
            xs = np.array([0.0, 1.0])
    ys = draw(hnp.arrays(np.float64, xs.size, elements=st.floats(0.0, 1e300)))
    atom = draw(st.floats(0.0, 1.0, exclude_max=True))
    return DensityCurve(xs, ys, atom)


def _data_matrix(draw, standardized=None):
    a = draw(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=8),
                        elements=_FINITE))
    if draw(st.booleans()):
        with np.errstate(over="ignore"):
            a = a.astype(np.float32)
        a[~np.isfinite(a)] = 0.0
    return DataMatrix(a, draw(st.booleans()) if standardized is None else standardized)


@st.composite
def _lagged(draw, symmetric=False):
    """A ``LaggedMatrix`` of finite data: lag 0 for a symmetric solve."""
    a = draw(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=8),
                        elements=_FINITE))
    return LaggedMatrix(a, 0 if symmetric else draw(st.integers(0, a.shape[1] - 1)))


def _mp_cdf_of(c):
    return lambda x: rmtspec.mp_cdf(x, c)


def _capture_bytes(draw, tmp):
    """A capture file: written by ``write_capture``, then maybe truncated or
    with one byte changed, or arbitrary bytes."""
    path = tmp / "c.rmtc"
    if draw(st.booleans()):
        path.write_bytes(draw(st.binary(max_size=64)))
        return path
    rmtspec.write_capture(str(path), draw(hnp.arrays(
        st.sampled_from([np.float32, np.float64, np.int16, np.complex64]),
        hnp.array_shapes(min_dims=2, max_dims=2, max_side=4),
        elements=st.integers(-100, 100))))
    raw = bytearray(path.read_bytes())
    cut = draw(st.integers(0, len(raw)))
    if draw(st.booleans()) and cut < len(raw):
        raw[cut] = draw(st.integers(0, 255))
    elif draw(st.booleans()):
        raw = raw[:cut]
    path.write_bytes(bytes(raw))
    return path


_CSV_TEXT = st.text(alphabet="x,kdemp_#=0123456789.-+e\n nainf", max_size=80)


def _density_file(draw, tmp):
    path = tmp / "d.csv"
    kind = draw(st.sampled_from(["text", "bytes", "curve"]))
    if kind == "text":
        path.write_text(draw(_CSV_TEXT))
    elif kind == "bytes":
        path.write_bytes(draw(st.binary(max_size=80)))
    else:
        curve = draw(_curve())
        try:
            rmtspec.write_density_csv(str(path), [curve], ["kde"])
        except ValidationError:  # a grid finer than the file's 9 digits has no text
            reject()
        text = path.read_text().splitlines()
        i = draw(st.integers(0, len(text)))
        text.insert(i, draw(_CSV_TEXT.map(lambda s: s.replace("\n", ""))))
        path.write_text("\n".join(text) + "\n")
    return path


# a pattern no message matches: the call has no refusal
_NEVER = "(?!)"

# name: (draw, tmp) -> the call's arguments, and the words of which a refusal
# must name one: the arguments at fault, or what they must be
CASES = {
    "DensityCurve": (lambda d, t: (d(_reals()), d(_reals()), d(_FLOAT)),
                     "xs|ys|point mass"),
    "EsdFunction": (lambda d, t: (d(_reals()),), "ESD|eigenvalue"),
    "silverman_bandwidth": (lambda d, t: (d(_reals()),), "samples"),
    "histogram_density": (lambda d, t: (d(_reals()), d(_INT)), "sample|bins"),
    "ks_distance": (lambda d, t: (EsdFunction(d(_reals(12, 1, _FINITE))), _mp_cdf_of(d(_FLOAT))),
                    "ratio"),
    "l1_distance": (lambda d, t: (d(_curve()), d(_curve())), "curve"),
    "snap_zeros": (lambda d, t: (d(_reals() | _complexes()),), "eigenvalue"),
    "split_atom": (lambda d, t: (d(_reals() | _complexes()),), "spectrum|eigenvalue"),
    "with_atom": (lambda d, t: (d(_curve()), d(_FLOAT)), "point mass"),
    "eigenvalue_density": (lambda d, t: (d(_reals(40)), d(st.none() | _FLOAT)),
                           "eigenvalue|bandwidth|sample|spectrum"),
    "projection_density": (lambda d, t: (d(_complexes()), d(st.sampled_from("xyz")), d(_INT)),
                           "axis|eigenvalue|bins|sample|spectrum"),
    "read_capture": (lambda d, t: (str(_capture_bytes(d, t)),),
                     "header|magic|version|dtype|payload|matrix"),
    "write_capture": (lambda d, t: (str(t / "w.rmtc"), d(
        _matrices(4) | _matrices(4, np.complex128, st.complex_numbers()))), "payload"),
    "read_density_csv": (lambda d, t: (str(_density_file(d, t)),), "d.csv"),
    "write_density_csv": (lambda d, t: (str(t / "w.csv"), d(st.lists(_curve(), max_size=3)),
                                        d(st.lists(st.text(max_size=3), max_size=3))),
                          "curve|label|grid"),
    "DataMatrix": (lambda d, t: (d(_matrices() | _matrices(4, np.complex128,
                                                            st.complex_numbers())),),
                   "matrix"),
    "LaggedMatrix": (lambda d, t: (d(_matrices()), d(_INT)), "tau|data|matrix"),
    "standardize_rows": (lambda d, t: (_data_matrix(d),), "row"),
    "sample_covariance": (lambda d, t: (_data_matrix(d),), _NEVER),
    "lagged_correlation": (lambda d, t: (_data_matrix(d), d(_INT)), "standardized|tau"),
    "eigvals_symmetric": (lambda d, t: (d(_square(symmetric=True) | _matrices()
                                          | _lagged(symmetric=True)),),
                          "matrix|asymmetry|Array|converge"),
    "eigvals_general": (lambda d, t: (d(_square() | _matrices() | _lagged()),),
                        "matrix|Array|converge"),
    "gen_wgn": (lambda d, t: (d(_INT), d(_INT), d(_FLOAT)), "seed|length|variance"),
    "gen_narrowband": (lambda d, t: (d(_INT), d(_INT), d(_FLOAT), d(_FLOAT)),
                       "seed|length|carrier|symbol"),
    "gen_ncofdm_frames": (lambda d, t: (d(_INT), d(st.integers(-1, 4)),
                                        d(st.sampled_from([-1, 0, 1, 2, 3, 64, 100, 256])),
                                        d(st.none() | st.lists(_INT, max_size=6))),
                          "seed|n_frames|n_fft|occupied"),
    "occupied_from_ranges": (lambda d, t: (d(st.lists(st.tuples(_INT, _INT), max_size=4)),
                                           d(st.sampled_from([-1, 0, 12, 16, 256, 1024]))),
                             "range|n_fft"),
    # streams of any shape, 1-d ones more often
    "add_awgn": (lambda d, t: (d(_reals() | _complexes() | _matrices(4)
                                 | _matrices(4, np.complex128, st.complex_numbers())),
                               d(_FLOAT), d(_INT)),
                 "stream|samples|snr_db|seed"),
    "spectrogram_matrix": (lambda d, t: (d(_complexes(64)
                                           | _matrices(4, np.complex128, st.complex_numbers())),
                                         d(_INT)),
                           "n_fft|samples"),
    "mp_params": (lambda d, t: (d(_FLOAT),), "ratio"),
    "mp_cdf": (lambda d, t: (d(_reals() | _FLOAT), d(_FLOAT)), "ratio|x"),
    "green_quartic_coeffs": (lambda d, t: (d(_complexes() | st.complex_numbers()), d(_FLOAT)),
                             "Q|z"),
    "green_function": (lambda d, t: (d(_complexes()), d(_FLOAT)),
                       "Q|z|root|branch|residual|Im G"),
    "green_scan": (lambda d, t: (d(_FLOAT), d(_FLOAT)), "Q|epsilon|z|root|branch|residual|Im G"),
    "lagged_density_symmetric": (lambda d, t: (d(_FLOAT), d(_FLOAT)),
                                 "Q|epsilon|z|root|branch|residual|Im G"),
}

# plain records that hold a result and check nothing; a constant
NOT_CALLED = {"MpParams", "RealSpectrum", "DEFAULT_OCCUPIED_RANGES"}

# the curve solvers walk a grid of up to 10^6 points; fewer examples keep the
# suite to seconds
SLOW = {"green_scan": 15, "lagged_density_symmetric": 15}


def _reexports():
    tree = ast.parse(Path(rmtspec.__file__).read_text(encoding="utf-8"))
    return {alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def test_every_reexport_has_a_case():
    assert set(CASES) | NOT_CALLED == _reexports()


def _finite(out) -> bool:
    if out is None or isinstance(out, (str, bool)):
        return True
    if isinstance(out, (int, float, complex, np.number)):
        return bool(np.isfinite(out))
    if isinstance(out, np.ndarray):
        return bool(np.isfinite(out).all())
    if isinstance(out, (tuple, list)):
        return all(map(_finite, out))
    if isinstance(out, dict):
        return all(map(_finite, out.values()))
    if isinstance(out, DensityCurve):
        return _finite((out.xs, out.ys, out.point_mass_at_zero))
    if isinstance(out, (EsdFunction, RealSpectrum)):
        return _finite(out.values)
    if isinstance(out, DataMatrix):
        return _finite(out.entries)
    if isinstance(out, LaggedMatrix):
        return _finite(out.data)
    if isinstance(out, rmtspec.MpParams):
        return _finite((out.c, out.a, out.b, out.point_mass_at_zero))
    raise AssertionError(f"no finiteness rule for {type(out).__name__}")


@pytest.mark.parametrize("name", sorted(CASES))
def test_finite_or_refused_by_name(name, tmp_path_factory):
    build, names = CASES[name]
    fn = getattr(rmtspec, name)

    @given(data=st.data())
    @settings(max_examples=SLOW.get(name, 100), deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    def check(data):
        tmp = tmp_path_factory.mktemp(name)
        args = build(data.draw, tmp)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                out = fn(*args)
            except (ValidationError, NumericalError) as exc:
                assert re.search(names, str(exc)), (names, str(exc))
            else:
                assert _finite(out), out
        # l1_distance warns of disjoint supports by design; nothing else warns
        caught = [w for w in caught if not (name == "l1_distance"
                                            and w.category is DisjointSupportsWarning)]
        assert caught == [], [f"{w.category.__name__}: {w.message}" for w in caught]

    check()
