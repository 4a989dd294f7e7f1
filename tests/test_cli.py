import contextlib
import io
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import rmtspec
from rmtspec import DensityCurve, l1_distance, read_density_csv, write_density_csv
from rmtspec import cli, estimation, fileio, linalg, signals, theory
from rmtspec.cli import run_cli
from rmtspec.linalg import eigvals_general, lagged_correlation, standardize_rows

from oracles import reference_cloud_csv


def _run(*args):
    return run_cli(list(args))


_CURVE = "x,mp\n0,0.5\n2,0.5\n"
_COMPARE = ["compare", "--empirical", "{emp}", "--theory", "{th}"]
_WGN = ["generate", "--signal", "wgn", "--rows", "4", "--cols", "64"]
_NARROWBAND = ["generate", "--signal", "narrowband", "--rows", "4", "--cols", "64"]

# argv (without -o) and input files that must be refused where the value
# enters: exit 1 or 2, one "error:" line on stderr, no traceback, no output
CONTRACT_CASES = {
    "mp-points-0": (["theory", "mp", "--c", "2", "--points", "0"], {}),
    "narrowband-rate-0": (_NARROWBAND + ["--symbol-rate", "0"], {}),
    "narrowband-rate-nan": (_NARROWBAND + ["--symbol-rate", "nan"], {}),
    "lagged-q-huge": (["theory", "lagged", "--q", "1e300"], {}),
    "lagged-q-tiny": (["theory", "lagged", "--q", "1e-300"], {}),
    "lagged-epsilon-tiny": (["theory", "lagged", "--q", "0.5", "--epsilon", "1e-300"], {}),
    "lagged-epsilon-subnormal": (["theory", "lagged", "--q", "1", "--epsilon", "5e-324"], {}),
    "lagged-q-grid-too-large": (["theory", "lagged", "--q", "1e-20"], {}),
    "lagged-q-huge-epsilon-tiny": (["theory", "lagged", "--q", "1e30", "--epsilon", "1e-300"], {}),
    # curves whose mass misses 1 by more than 0.02 on the default grid
    "lagged-mass-q1e8-eps1e-12": (["theory", "lagged", "--q", "1e8", "--epsilon", "1e-12"], {}),
    "lagged-mass-q1e8-eps1e-8": (["theory", "lagged", "--q", "1e8", "--epsilon", "1e-8"], {}),
    "compare-x-only": (_COMPARE, {"emp": "x\n0\n2\n", "th": _CURVE}),
    "compare-short-rows": (_COMPARE, {"emp": "x,kde\n0\n2\n", "th": _CURVE}),
    "compare-repeated-label": (_COMPARE, {"emp": "x,kde,kde\n0,1,0\n2,1,0\n", "th": _CURVE}),
    "compare-non-numeric": (_COMPARE, {"emp": "x,kde\n0,0.5\n2,a\n", "th": _CURVE}),
    "compare-negative-ordinate": (_COMPARE, {"emp": "x,kde\n0,0\n1,-0.5\n", "th": _CURVE}),
    "wgn-variance-inf": (_WGN + ["--variance", "inf"], {}),
    "wgn-snr-nan": (_WGN + ["--snr-db", "nan"], {}),
    "wgn-snr-minus-inf": (_WGN + ["--snr-db=-inf"], {}),
    "wgn-snr-huge": (_WGN + ["--snr-db", "1e308"], {}),
    "wgn-snr-minus-huge": (_WGN + ["--snr-db=-1e308"], {}),
    "wgn-variance-beyond-f32": (_WGN + ["--variance", "1e308"], {}),
    "wgn-snr-noise-beyond-f32": (_WGN + ["--snr-db=-3000"], {}),
    "wgn-power-beyond-f64": (_WGN + ["--variance", "1e308", "--snr-db", "10"], {}),
    "narrowband-rate-tiny": (_NARROWBAND + ["--symbol-rate", "5e-324"], {}),
    "ncofdm-n-fft-not-power-of-two": (["generate", "--signal", "ncofdm", "--rows", "4",
                                       "--cols", "4", "--n-fft", "1000", "--occupied", "1:5"],
                                      {}),
}


_RMTC_HEADER = struct.Struct("<4sHHII16s")


def _rmtc(payload, magic=b"RMTC", version=1, dtype=0, rows=4, cols=8):
    """A capture file's bytes: the 32-byte header, then ``payload``."""
    return _RMTC_HEADER.pack(magic, version, dtype, rows, cols, bytes(16)) + payload


_SAMPLES = np.random.default_rng(0).standard_normal((4, 8)).astype("<f4")
_CONSTANT_ROW = _SAMPLES.copy()
_CONSTANT_ROW[0] = 1.0
_NAN_SAMPLE = _SAMPLES.copy()
_NAN_SAMPLE[2, 3] = np.nan
_COV = ["analyze", "cov", "-i", "{cap}"]
_GOOD = {"cap": _rmtc(_SAMPLES.tobytes())}


def _narrowband_capture(seed, rows, cols):
    """The bytes ``generate --signal narrowband --seed S --rows R --cols C`` writes."""
    samples = signals.gen_narrowband(seed, rows * cols, 0.25, 1 / 16)
    return _rmtc(samples.reshape(rows, cols).astype("<f4").tobytes(), rows=rows, cols=cols)


# one refusal per kind reachable from argv: argv (without -o), capture bytes,
# the exit code and the whole last line of stderr
REFUSALS = {
    "zero-variance-row": (_COV, {"cap": _rmtc(_CONSTANT_ROW.tobytes())}, 1,
                          "row 0 has zero sample variance, cannot standardize"),
    "bad-magic": (_COV, {"cap": _rmtc(_SAMPLES.tobytes(), magic=b"XXXX")}, 1,
                  "bad magic b'XXXX'"),
    "version-2": (_COV, {"cap": _rmtc(_SAMPLES.tobytes(), version=2)}, 1,
                  "version 2 not supported"),
    "dtype-7": (_COV, {"cap": _rmtc(_SAMPLES.tobytes(), dtype=7)}, 1,
                "dtype code 7 not supported"),
    "short-header": (_COV, {"cap": b"RMTC"}, 1, "file shorter than the 32-byte header"),
    "truncated-payload": (_COV, {"cap": _rmtc(_SAMPLES.tobytes()[:100])}, 1,
                          "payload is 100 bytes, header promises 128"),
    "nan-payload": (_COV, {"cap": _rmtc(_NAN_SAMPLE.tobytes())}, 1,
                    "data matrix contains non-finite entries"),
    "zero-rows": (_COV, {"cap": _rmtc(b"", rows=0)}, 1,
                  "expected a 2-d matrix, got shape (0, 8)"),
    "one-row": (_COV, {"cap": _rmtc(_SAMPLES[:1].tobytes(), rows=1)}, 1,
                "fewer than 2 nonzero eigenvalues"),
    "lagged-tau-8-of-8": (["analyze", "lagged", "-i", "{cap}", "--tau", "8"], _GOOD, 1,
                          "tau=8 outside [0, 7]"),
    "cov-bins-0": (_COV + ["--bins", "0"], _GOOD, 1, "bins must be >= 1, got 0"),
    # user-sized grids are capped at 10^6 points before they are allocated
    "cov-bins-1000001": (_COV + ["--bins", "1000001"], _GOOD, 1,
                         "bins must be at most 1000000, got 1000001"),
    "lagged-bins-1000001": (["analyze", "lagged", "-i", "{cap}", "--tau", "1", "--bins",
                             "1000001"], _GOOD, 1, "bins must be at most 1000000, got 1000001"),
    "cov-bandwidth-0": (_COV + ["--bandwidth", "0"], _GOOD, 1,
                        "bandwidth must be finite and positive, got 0.0"),
    # the KDE grid's step is at most the bandwidth, in at most 10^6 points
    "cov-bandwidth-1e-300": (_COV + ["--bandwidth", "1e-300"], _GOOD, 1,
                             "bandwidth 1e-300 needs a KDE grid of 1.38e+300 points, "
                             "more than 1000000"),
    "cov-bandwidth-1e-6": (_COV + ["--bandwidth", "1e-6"], _GOOD, 1,
                           "bandwidth 1e-06 needs a KDE grid of 1.38e+06 points, "
                           "more than 1000000"),
    "cov-bandwidth-3e307": (_COV + ["--bandwidth", "3e307"], _GOOD, 1,
                            "bandwidth 3e+307 gives a KDE grid over [-1.5e+308, 1.5e+308], "
                            "whose span is not finite"),
    "mp-c-negative": (["theory", "mp", "--c", "-1"], {}, 1,
                      "dimension ratio must be positive and finite, got -1.0"),
    # the grid needs a cell on each side of the support and one inside
    "mp-points-2": (["theory", "mp", "--c", "2", "--points", "2"], {}, 1,
                    "--points must lie in [3, 1000000], got 2"),
    "mp-points-1000001": (["theory", "mp", "--c", "1", "--points", "1000001"], {}, 1,
                          "--points must lie in [3, 1000000], got 1000001"),
    "mp-points-1e15": (["theory", "mp", "--c", "1", "--points", str(10**15)], {}, 1,
                       "--points must lie in [3, 1000000], got 1000000000000000"),
    # an extreme c collapses the support [a, b] to a point
    "mp-c-1e-300": (["theory", "mp", "--c", "1e-300"], {}, 1,
                    "the c=1e-300 support [1, 1] holds no 1001 strictly increasing abscissas "
                    "(--points)"),
    "mp-c-1e200": (["theory", "mp", "--c", "1e200"], {}, 1,
                   "the c=1e+200 support [1e+200, 1e+200] holds no 1001 strictly increasing "
                   "abscissas (--points)"),
    # the closed-form CDF is off by up to eps / c, more than 1e-9 below 2.2e-7
    "mp-c-1.66e-11": (["theory", "mp", "--c", "1.6613508097089388e-11", "--points", "1143"], {},
                      1, "c=1.66135e-11 is below 2.2e-07, where the MP CDF is off by over 1e-9"),
    "mp-c-1e300": (["theory", "mp", "--c", "1e300"], {}, 1,
                   "the c=1e+300 support [1e+300, 1e+300] holds no 1001 strictly increasing "
                   "abscissas (--points)"),
    "lagged-q-negative": (["theory", "lagged", "--q", "-1"], {}, 1,
                          "Q must be positive and finite, got -1.0"),
    "lagged-q-grid-too-large": (["theory", "lagged", "--q", "1e-20"], {}, 1,
                                "Q = 1e-20 needs a default grid of 5289158724089 points, "
                                "more than 1000000"),
    # Q^2 overflows
    "lagged-q-huge": (["theory", "lagged", "--q", "1e300"], {}, 1,
                      "quartic coefficients are not finite at Q = 1e+300"),
    # Q^2 z^2 flushes to 0, the continuous part with it, and the edge search
    # keeps its first candidate 2.2 sqrt(2/Q) + 1.2 = 3.1e150
    "lagged-q-tiny": (["theory", "lagged", "--q", "1e-300"], {}, 1,
                      "Q = 1e-300 needs a default grid of 52891587232753757201127659928752519043"
                      "8955825480489571771466308615567754738934182031369163149793023851401248805"
                      "052553853982295387717640809770315497341537 points, more than 1000000"),
    "lagged-mass": (["theory", "lagged", "--q", "1e8", "--epsilon", "1e-12"], {}, 1,
                    "the Q=1e+08, epsilon=1e-12 curve has mass 1.0533, more than 0.02 from 1"),
    # the two roots next to w = 1 - Q, v = 0, are 2Q^2/(1-Q) = 2e-8 apart in G
    # and alike within 1e-6 in G and v from x = 49.989 down
    "lagged-q1e-4": (["theory", "lagged", "--q", "1e-4"], {}, 2,
                     "ambiguous physical branch at x=49.98904755831151 (two roots within 1e-06 "
                     "of the previous value)"),
    # the same pair at |z| = 2.2e-166, where G = (1-Q)/z is 3.4e165
    "lagged-epsilon-1e-300": (["theory", "lagged", "--q", "0.23713737056616552", "--epsilon",
                               "1e-300"], {}, 2, "ambiguous physical branch at "
                              "x=2.2192611140764508e-166 (two roots within 1e-06 of the previous "
                              "value)"),
    "narrowband-carrier-0.5": (_NARROWBAND + ["--carrier", "0.5"], {}, 1,
                               "carrier 0.5 outside (0, 0.5)"),
    # each --occupied range is checked before it is expanded, after --n-fft
    "ncofdm-empty-occupied": (["generate", "--signal", "ncofdm", "--rows", "4", "--cols", "4",
                               "--occupied", "5:4"], {}, 1, "occupied range 5:4 is reversed"),
    "ncofdm-occupied-reversed": (["generate", "--signal", "ncofdm", "--rows", "4", "--cols", "4",
                                  "--occupied", "10:12,30:20"], {}, 1,
                                 "occupied range 30:20 is reversed"),
    "ncofdm-occupied-4e8": (["generate", "--signal", "ncofdm", "--rows", "4", "--cols", "4",
                             "--occupied", "0:400000000"], {}, 1,
                            "occupied indices outside [0, 1023] in range 0:400000000"),
    "ncofdm-occupied-negative": (["generate", "--signal", "ncofdm", "--rows", "4", "--cols", "4",
                                  "--occupied=-1:3"], {}, 1,
                                 "occupied indices outside [0, 1023] in range -1:3"),
    "ncofdm-n-fft-12-occupied-50:60": (["generate", "--signal", "ncofdm", "--rows", "4",
                                        "--cols", "4", "--n-fft", "12", "--occupied", "50:60"],
                                       {}, 1, "n_fft=12 is not a power of two"),
    "ncofdm-n-fft-1000": (["generate", "--signal", "ncofdm", "--rows", "4", "--cols", "4",
                           "--n-fft", "1000"], {}, 1, "n_fft=1000 is not a power of two"),
    # the default occupied tones end at 900: a smaller frame names them and
    # what to give instead
    "ncofdm-n-fft-64-default-occupied": (["generate", "--signal", "ncofdm", "--rows", "4",
                                          "--cols", "100", "--n-fft", "64"], {}, 1,
                                         "n_fft=64 is too small for the default occupied tones "
                                         "(10-900 of a 1024-point frame): give occupied tones "
                                         "inside [0, 63]"),
    # checked before the default occupied set
    "ncofdm-n-fft-0": (["generate", "--signal", "ncofdm", "--rows", "4", "--cols", "4",
                        "--n-fft", "0"], {}, 1, "n_fft=0 is not a power of two"),
    "ncofdm-n-fft-12": (["generate", "--signal", "ncofdm", "--rows", "4", "--cols", "4",
                         "--n-fft", "12"], {}, 1, "n_fft=12 is not a power of two"),
    "generate-seed-negative": (_WGN + ["--seed", "-1"], {}, 1, "seed must be >= 0, got -1"),
    "generate-rows-0": (["generate", "--signal", "wgn", "--rows", "0", "--cols", "4"], {}, 1,
                        "rows and cols must be >= 1"),
    # a density file whose column is not a curve names the file and the column
    "compare-x-repeated": (_COMPARE, {"emp": b"x,kde\n0,1\n0,1\n", "th": _CURVE.encode()}, 1,
                           "{emp}: column 'kde': xs must be strictly increasing"),
    "compare-nan-ordinate": (_COMPARE, {"emp": b"x,kde\n0,nan\n1,1\n", "th": _CURVE.encode()}, 1,
                             "{emp}: column 'kde': xs and ys must be finite"),
    "compare-one-row": (_COMPARE, {"emp": _CURVE.encode(), "th": b"x,mp\n0,1\n"}, 1,
                        "{th}: column 'mp': xs and ys must be equal-length 1-d arrays "
                        "(>= 2 points)"),
    "compare-atom-1.5": (_COMPARE, {"emp": b"# point_mass_kde=1.5\nx,kde\n0,1\n1,1\n",
                                    "th": _CURVE.encode()}, 1,
                         "{emp}: column 'kde': point mass must lie in [0, 1)"),
    "compare-atom-abc": (_COMPARE, {"emp": _CURVE.encode(),
                                    "th": b"x,mp\n# point_mass_mp=abc\n0,1\n1,1\n"}, 1,
                         "{th}:2: could not convert string to float: 'abc'"),
}


def _contract_argv(name, tmp_path):
    argv, files = CONTRACT_CASES[name]
    paths = {}
    for key, text in files.items():
        paths[key] = tmp_path / f"{key}.csv"
        paths[key].write_text(text)
    out = tmp_path / "out"
    return [a.format(**paths) for a in argv] + ["-o", str(out)], out


def _assert_refused(rc, err, out):
    assert rc in (1, 2)
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


class TestDispatch:
    def test_unknown_subcommand(self, capsys):
        assert _run("frobnicate") == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_required(self):
        assert _run("generate", "--signal", "wgn") == 1

    def test_missing_input_file(self, tmp_path):
        out = tmp_path / "d.csv"
        assert _run("analyze", "cov", "-i", str(tmp_path / "nope.rmtc"),
                    "-o", str(out)) == 1

    def test_band_option_is_gone(self, tmp_path, capsys):
        assert _run(*_NARROWBAND, "--band", "0.2", "-o", str(tmp_path / "x.rmtc")) == 1
        assert "unrecognized arguments: --band 0.2" in capsys.readouterr().err
        assert not (tmp_path / "x.rmtc").exists()

    def test_freq_domain_rejected_for_wgn(self, tmp_path):
        assert _run("generate", "--signal", "wgn", "--rows", "4", "--cols", "4",
                    "--freq-domain", "-o", str(tmp_path / "x.rmtc")) == 1

    def test_theory_mp_infinite_ratio(self, tmp_path):
        out = tmp_path / "mp.csv"
        assert _run("theory", "mp", "--c", "inf", "-o", str(out)) == 1
        assert not out.exists()

    def test_bad_occupied_range(self, tmp_path, capsys):
        assert _run("generate", "--signal", "ncofdm", "--rows", "64", "--cols", "4",
                    "--occupied", "a:b", "-o", str(tmp_path / "x.rmtc")) == 1
        err = capsys.readouterr().err
        assert "--occupied" in err and "'a:b'" in err

    def test_theory_touches_no_openblas_handle(self, tmp_path, monkeypatch):
        def touched():
            raise AssertionError("run_cli looked up the OpenBLAS handle")

        monkeypatch.setattr(linalg, "_openblas", touched)
        assert _run("theory", "mp", "--c", "0.5", "-o", str(tmp_path / "mp.csv")) == 0

    def test_compare_names_the_negative_ordinate(self, tmp_path, capsys):
        # refusal itself is a CONTRACT_CASES entry; this checks what it names
        argv, _ = _contract_argv("compare-negative-ordinate", tmp_path)
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == (
            f"error: {tmp_path / 'emp.csv'}:3: column 'kde' holds the negative ordinate -0.5")

    def test_theory_lagged_names_the_missed_mass(self, tmp_path, capsys):
        # refusal itself is a CONTRACT_CASES entry; this checks what it names
        argv, _ = _contract_argv("lagged-mass-q1e8-eps1e-12", tmp_path)
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert "Q=1e+08" in err and "epsilon=1e-12 " in err and "mass 1.0533" in err, err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("epsilon", ["1", "10"])
    def test_theory_lagged_q0_1_wide_epsilon_has_unit_mass(self, tmp_path, epsilon):
        # epsilon on the scale of the support smears the atom over all of it
        out = tmp_path / "rho.csv"
        assert _run("theory", "lagged", "--q", "0.1", "--epsilon", epsilon, "-o", str(out)) == 0
        assert abs(read_density_csv(out)["rho_s"].total_mass() - 1.0) < 1e-3

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("q, epsilon", [
        # two roots 2.2e-3 apart in w at x = 2347.77, alike in G alone
        ("0.001", "10"),
        # next to the origin the continuous part is solved for directly, with
        # no atom image subtracted from Im G / pi
        ("0.1", "1e-9"),
        ("0.25", "1e-9"),
    ])
    def test_theory_lagged_written_with_unit_mass(self, tmp_path, q, epsilon):
        out = tmp_path / "rho.csv"
        assert _run("theory", "lagged", "--q", q, "--epsilon", epsilon, "-o", str(out)) == 0
        assert abs(read_density_csv(out)["rho_s"].total_mass() - 1.0) < 1e-5

    # refused while the continuous part was Im G / pi less the atom's image
    # (both ~1/eps at the origin), or while the two roots next to w = 1 - Q
    # were resolved only to about 1e-8 in w; the mass Q < 0.01 misses is the
    # law's tail past the default grid's end (density ~3e-7 at Q = 1e-3)
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("q, epsilon", [
        ("0.001", "1e-9"), ("0.001", "1e-4"), ("0.001", "3e-4"), ("0.001", "1e-3"),
        ("0.0015", "1e-9"), ("0.0015", "1e-5"), ("0.0015", "1e-4"), ("0.0018", "1e-9"),
        ("0.002", "1e-9"), ("0.002", "1e-4"), ("0.003", "1e-9"), ("0.003", "1e-5"),
        ("0.003", "1e-4"), ("0.0056", "1e-5"), ("0.5", "1e-9"), ("0.25", "1e-8"),
    ])
    def test_theory_lagged_formerly_refused_is_written(self, tmp_path, q, epsilon):
        out = tmp_path / "rho.csv"
        assert _run("theory", "lagged", "--q", q, "--epsilon", epsilon, "-o", str(out)) == 0
        curve = read_density_csv(out)["rho_s"]
        assert abs(curve.total_mass() - 1.0) <= 0.02
        assert curve.point_mass_at_zero == pytest.approx(1.0 - float(q), rel=1e-9)

    # the continuous part's origin value rho_0(0+) = Q^2 / (pi (1 - Q)), to 9
    # digits of the file
    @pytest.mark.parametrize("q, epsilon", [("0.25", "1e-8"), ("0.5", "1e-9"), ("0.001", "1e-4")])
    def test_theory_lagged_origin_value(self, tmp_path, q, epsilon):
        out = tmp_path / "rho.csv"
        assert _run("theory", "lagged", "--q", q, "--epsilon", epsilon, "-o", str(out)) == 0
        Q = float(q)
        want = Q * Q / (math.pi * (1.0 - Q))
        assert float(read_density_csv(out)["rho_s"](0.0)) == pytest.approx(want, rel=5e-9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bandwidth", ["inf", "nan", "0", "-1"])
    def test_analyze_cov_infinite_bandwidth(self, tmp_path, capsys, bandwidth):
        # the bandwidth is checked where the density is estimated, after the read
        cap = tmp_path / "cap.rmtc"
        out = tmp_path / "d.csv"
        assert _run("generate", "--signal", "wgn", "--seed", "2",
                    "--rows", "8", "--cols", "32", "-o", str(cap)) == 0
        assert _run("analyze", "cov", "-i", str(cap), "--bandwidth", bandwidth,
                    "-o", str(out)) == 1
        assert "bandwidth" in capsys.readouterr().err
        assert not out.exists()

    def test_analyze_lagged_failure_writes_nothing(self, tmp_path):
        cap = tmp_path / "cap.rmtc"
        assert _run("generate", "--signal", "wgn", "--seed", "2",
                    "--rows", "8", "--cols", "32", "-o", str(cap)) == 0
        assert _run("analyze", "lagged", "-i", str(cap), "--tau", "1", "--bins", "0",
                    "-o", str(tmp_path / "cloud.csv")) == 1
        for name in ("cloud.csv", "cloud.x.csv", "cloud.y.csv"):
            assert not (tmp_path / name).exists()


    def test_analyze_lagged_has_no_no_standardize(self, tmp_path, capsys):
        # lagged_correlation needs standardized rows, so the flag could only fail
        assert _run("analyze", "lagged", "-i", str(tmp_path / "c.rmtc"), "--tau", "1",
                    "--no-standardize", "-o", str(tmp_path / "cloud.csv")) == 1
        assert "unrecognized arguments: --no-standardize" in capsys.readouterr().err


class TestCachedParser:
    """One argparse tree serves every in-process call: defaults and flags of
    one call never reach the next."""

    def test_flags_and_defaults_do_not_leak(self, tmp_path):
        cap = tmp_path / "c.rmtc"
        assert _run("generate", "--signal", "wgn", "--seed", "5",
                    "--rows", "64", "--cols", "16", "-o", str(cap)) == 0
        raw, std, std_again = (tmp_path / n for n in ("raw.csv", "std.csv", "std2.csv"))
        assert _run("analyze", "cov", "-i", str(cap), "-o", str(std)) == 0
        assert _run("analyze", "cov", "--no-standardize", "-i", str(cap), "-o", str(raw)) == 0
        assert _run("analyze", "cov", "-i", str(cap), "-o", str(std_again)) == 0
        assert std_again.read_bytes() == std.read_bytes() != raw.read_bytes()

        fine, default, explicit = (tmp_path / n for n in ("e4.csv", "d.csv", "e3.csv"))
        assert _run("theory", "lagged", "--q", "4", "--epsilon", "1e-4", "-o", str(fine)) == 0
        assert _run("theory", "lagged", "--q", "4", "-o", str(default)) == 0
        assert _run("theory", "lagged", "--q", "4", "--epsilon", "1e-3", "-o", str(explicit)) == 0
        assert default.read_bytes() == explicit.read_bytes() != fine.read_bytes()
        assert cli._build_parser() is cli._build_parser()

    def test_usage_error_after_success(self, tmp_path, capsys):
        out = tmp_path / "mp.csv"
        assert _run("theory", "mp", "--c", "2", "-o", str(out)) == 0
        assert _run("theory", "mp", "--c", "2", "--bogus", "-o", str(out)) == 1
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err
        assert _run("theory", "mp", "-o", str(out)) == 1
        assert _run("theory", "mp", "--c", "2", "-o", str(out)) == 0


def test_layers_are_looked_up_through_their_modules(tmp_path, monkeypatch):
    # per-layer benchmark spans replace these module attributes; a caller that
    # bound one at import would leave its span idle
    counts = {}
    for mod, name in ((theory, "quartic_roots_batch"), (theory, "green_scan"),
                      (theory, "green_function"), (fileio, "write_density_csv")):
        fn = getattr(mod, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(mod, name, counted)
    assert _run("theory", "lagged", "--q", "2", "-o", str(tmp_path / "rho.csv")) == 0
    assert set(counts) == {"quartic_roots_batch", "green_scan", "green_function",
                           "write_density_csv"}


class TestModuleEntry:
    """``python -m rmtspec`` runs the CLI in a fresh interpreter."""

    @staticmethod
    def _module(*args, cwd):
        src = str(Path(rmtspec.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "rmtspec", *args], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=120)

    def test_theory_mp_writes_file(self, tmp_path):
        out = tmp_path / "mp.csv"
        proc = self._module("theory", "mp", "--c", "0.5", "-o", str(out), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert read_density_csv(str(out))["mp"].total_mass() == pytest.approx(1.0, abs=0.02)

    def test_bare_invocation_prints_usage(self, tmp_path):
        proc = self._module(cwd=tmp_path)
        assert proc.returncode == 1
        assert "usage" in proc.stderr

    def test_input_contract(self, tmp_path):
        argv, out = _contract_argv("lagged-q-huge", tmp_path)
        proc = self._module(*argv, cwd=tmp_path)
        _assert_refused(proc.returncode, proc.stderr, out)

    def test_import_does_not_load_scipy(self, tmp_path):
        src = str(Path(rmtspec.__file__).resolve().parents[1])
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import rmtspec.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code, src], cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestInputContract:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", sorted(CONTRACT_CASES))
    def test_refused_in_process(self, name, tmp_path, capsys):
        argv, out = _contract_argv(name, tmp_path)
        rc = run_cli(argv)
        _assert_refused(rc, capsys.readouterr().err, out)



class TestRefusals:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", sorted(REFUSALS))
    def test_exit_code_and_message(self, name, tmp_path, capsys):
        argv, files, code, message = REFUSALS[name]
        paths = {}
        for key, raw in files.items():
            paths[key] = tmp_path / f"{key}.rmtc"
            paths[key].write_bytes(raw)
        out = tmp_path / "out"
        assert run_cli([a.format(**paths) for a in argv] + ["-o", str(out)]) == code
        err = capsys.readouterr().err
        _assert_refused(code, err, out)
        assert err.splitlines()[-1] == f"error: {message.format(**paths)}"

    # two nonzero eigenvalues equal up to rounding: Silverman's bandwidth is
    # ~1e-16 and a KDE grid over them would repeat abscissas. The digits of
    # the bandwidth and the spread depend on the LAPACK build, and one that
    # returns equal eigenvalues is refused for having no bandwidth
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("seed, cols, at", [(21, 11, "0.909090909"), (277, 35, "0.971428571")])
    def test_equal_eigenvalues(self, tmp_path, capsys, seed, cols, at):
        cap, out = tmp_path / "cap.rmtc", tmp_path / "out"
        cap.write_bytes(_narrowband_capture(seed, 2, cols))
        assert run_cli(["analyze", "cov", "-i", str(cap), "-o", str(out)]) == 1
        err = capsys.readouterr().err
        _assert_refused(1, err, out)
        assert re.fullmatch(rf"error: (bandwidth \S+ and eigenvalue spread \S+ are too small "
                            rf"for a KDE grid at {at}|need at least 2 distinct samples for a "
                            rf"bandwidth)\n", err), err

    @pytest.mark.filterwarnings("error")
    def test_bandwidth_resolved_by_the_kde_grid(self, tmp_path):
        # 1e-5 is far below Silverman's bandwidth; the grid's step follows it
        cap, out = tmp_path / "cap.rmtc", tmp_path / "d.csv"
        cap.write_bytes(_GOOD["cap"])
        assert run_cli(["analyze", "cov", "-i", str(cap), "--bandwidth", "1e-5",
                        "-o", str(out)]) == 0
        assert read_density_csv(str(out))["kde"].total_mass() == pytest.approx(1.0, abs=1e-6)

    # at c = 1e-6 the support [0.998001, 1.002001] holds 10^6 cells 4e-9 wide
    # at x = 1, closer than 9 digits print; 20000 points at c = 0.25, 1e-4 apart
    def test_mp_grid_finer_than_the_file_refused(self, tmp_path, capsys):
        out, report = tmp_path / "mp.csv", tmp_path / "r.txt"
        assert run_cli(["theory", "mp", "--c", "1e-6", "--points", "1000000",
                        "-o", str(out)]) == 1
        err = capsys.readouterr().err
        _assert_refused(1, err, out)
        assert err.startswith("error: grid is finer than the file's 9 significant digits: "
                              "x = 1.0000000059980119 and 1.0000000099980197 both write as "
                              "1.00000001\n"), err
        assert run_cli(["theory", "mp", "--c", "0.25", "--points", "20000", "-o", str(out)]) == 0
        assert run_cli(["compare", "--empirical", str(out), "--theory", str(out),
                        "-o", str(report)]) == 0

    # an output path in a missing directory, or one that is a directory
    @pytest.mark.parametrize("target", ["missing/x.csv", "adir"])
    def test_output_error_names_the_output_path(self, tmp_path, capsys, target):
        (tmp_path / "adir").mkdir()
        out = tmp_path / target
        assert run_cli(["theory", "mp", "--c", "2", "-o", str(out)]) == 1
        err = capsys.readouterr().err
        named = re.escape(repr(str(out)))
        assert re.fullmatch(rf"error: \[Errno \d+\] [^\n]+: {named}\n", err), err
        assert [p.name for p in tmp_path.iterdir()] == ["adir"]
        assert list((tmp_path / "adir").iterdir()) == []  # no temp file left behind

    # the stream and its noisy copy are beyond any host's physical memory, so
    # generate refuses before either is allocated
    @pytest.mark.parametrize("argv, size", [
        (["generate", "--signal", "wgn", "--rows", str(10**8), "--cols", str(10**8)], "71.1 PiB"),
    ])
    def test_out_of_memory(self, tmp_path, capsys, argv, size):
        out = tmp_path / "out"
        assert run_cli(argv + ["-o", str(out)]) == 1
        err = capsys.readouterr().err
        _assert_refused(1, err, out)
        assert err.startswith(f"error: Unable to allocate {size}"), err


def _csv_values(path):
    """Every data row of a CSV the CLI wrote, as floats; the header row and
    ``#`` lines are skipped, and each row must have the header's width."""
    lines = [ln for ln in Path(path).read_text().splitlines() if not ln.startswith("#")]
    width = len(lines[0].split(","))
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    assert rows and all(len(r) == width for r in rows), path
    return np.array(rows)


_ANALYSES = (["analyze", "cov"], ["analyze", "cov", "--no-standardize"],
             ["analyze", "lagged", "--tau", "1"])


@st.composite
def _captures(draw):
    """Small capture files: any dtype code, up to 6 x 8, random payload bytes
    of the promised length or a little shorter or longer."""
    dtype = draw(st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 2**16 - 1)))
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 8))
    size = rows * cols * {0: 4, 1: 8, 2: 2}.get(dtype, 4)
    size = max(0, size + draw(st.sampled_from([0, 0, 0, 0, -1, 3])))
    payload = draw(st.binary(min_size=size, max_size=size))
    return _rmtc(payload, dtype=dtype, rows=rows, cols=cols)


class TestCaptureContract:
    """Whatever a capture holds, each analysis ends in exit 0, 1 or 2 with no
    warning and nothing escaping ``run_cli``: a refusal is one ``error:``
    line, and a success writes only finite numbers."""

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(raw=_captures())
    def test_any_capture(self, raw):
        with tempfile.TemporaryDirectory() as d:
            cap = Path(d) / "c.rmtc"
            cap.write_bytes(raw)
            for analysis in _ANALYSES:
                out = Path(d) / "out.csv"
                err = io.StringIO()
                with warnings.catch_warnings(), contextlib.redirect_stderr(err):
                    warnings.simplefilter("error")
                    rc = run_cli([*analysis, "-i", str(cap), "-o", str(out)])
                if rc:
                    assert rc in (1, 2)
                    _assert_refused(rc, err.getvalue(), out)
                    continue
                assert err.getvalue() == ""
                written = sorted(Path(d).glob("out*.csv"))
                assert out in written
                for path in written:
                    assert np.isfinite(_csv_values(path)).all(), path
                    path.unlink()


def _float_text(lo, hi):
    """The text of a double: half the time 10^u with u uniform in [lo, hi],
    else any double, NaN, the infinities and the zeros included."""
    return st.one_of(st.floats(lo, hi).map(lambda e: repr(10.0**e)), st.floats().map(repr))


def _run_quietly(argv):
    """``run_cli(argv)`` with every warning an error; the exit code and stderr."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        rc = run_cli(argv)
    return rc, err.getvalue()


@st.composite
def _lagged_argv(draw):
    """``theory lagged`` argv: ``--q`` and, half the time, ``--epsilon``, each the
    text of a float, half the time log-uniform over the range where curves are
    written."""
    argv = ["theory", "lagged", f"--q={draw(_float_text(-7.0, 9.0))}"]
    if draw(st.booleans()):
        argv.append(f"--epsilon={draw(_float_text(-12.0, 2.0))}")
    return argv


class TestTheoryLaggedContract:
    """Whatever ``--q`` and ``--epsilon`` are, ``theory lagged`` ends in exit 0, 1
    or 2 with no warning and nothing escaping ``run_cli``: a refusal is one
    ``error:`` line, and a success writes a finite, non-negative curve whose
    mass with the atom is within 0.02 of 1."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(argv=_lagged_argv())
    def test_any_q_and_epsilon(self, argv):
        with tempfile.TemporaryDirectory() as d:
            out = Path(d) / "rho.csv"
            rc, err = _run_quietly([*argv, "-o", str(out)])
            if rc:
                assert rc in (1, 2)
                _assert_refused(rc, err, out)
                return
            assert err == ""
            curve = read_density_csv(str(out))["rho_s"]  # refuses NaN and negatives
            assert abs(curve.total_mass() - 1.0) <= 0.02, argv


_MAX_SAMPLES = 4096  # rows x cols, and --n-fft, of a drawn generate argv


@st.composite
def _generate_argv(draw):
    """``generate`` argv of at most 4096 samples: any signal, rows and cols
    (rows = --n-fft half the time, as --freq-domain needs; one of them below
    1 one time in eight), and each option half the time, with --n-fft at most
    4096 and occupied ranges inside [-2^62, 2^62], which are refused before
    they are expanded unless they lie inside the frame."""
    n_fft = draw(st.sampled_from([2**k for k in range(1, 13)]) | st.integers(-2, _MAX_SAMPLES))
    rows = n_fft if draw(st.booleans()) else draw(st.integers(1, 64))
    cols = draw(st.integers(1, _MAX_SAMPLES // max(rows, 1)))
    if draw(st.integers(0, 7)) == 0:
        rows, cols = draw(st.sampled_from([(0, cols), (rows, 0), (-1, cols), (rows, -1)]))
    signal = draw(st.sampled_from(["wgn", "narrowband", "ncofdm"]))
    argv = ["generate", f"--signal={signal}", f"--rows={rows}", f"--cols={cols}"]
    bound = st.integers(-3, _MAX_SAMPLES + 3) | st.integers(-2**62, 2**62)
    options = {
        "--seed": st.integers(-1, 2**64).map(str),
        "--variance": _float_text(-6.0, 6.0),
        "--carrier": st.floats(0.0, 0.5).map(repr) | st.floats().map(repr),
        "--symbol-rate": st.integers(1, 64).map(lambda k: repr(1.0 / k)) | st.floats().map(repr),
        "--n-fft": st.just(str(n_fft)),
        "--occupied": st.lists(st.tuples(bound, bound), max_size=3).map(
            lambda ranges: ",".join(f"{lo}:{hi}" for lo, hi in ranges)),
        "--snr-db": st.floats(-40.0, 60.0).map(repr) | st.floats().map(repr),
    }
    for flag, values in options.items():
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(values)}")
    if draw(st.booleans()):
        argv.append("--freq-domain")
    return argv


class TestGenerateContract:
    """Whatever ``generate`` is given, it ends in exit 0, 1 or 2 with no warning
    and nothing escaping ``run_cli``; a success writes a capture that reads
    back finite, with one value per sample (two per complex one)."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(argv=_generate_argv())
    def test_any_argv(self, argv):
        with tempfile.TemporaryDirectory() as d:
            out = Path(d) / "cap.rmtc"
            rc, err = _run_quietly([*argv, "-o", str(out)])
            if rc:
                assert rc in (1, 2)
                _assert_refused(rc, err, out)
                return
            assert err == ""
            X = fileio.read_capture(str(out))
            rows, cols = (int(a.split("=")[1]) for a in argv[2:4])
            complex_rows = 2 if "--signal=ncofdm" in argv else 1
            assert X.entries.shape == (complex_rows * rows, cols), argv
            assert np.isfinite(X.entries).all(), argv


@st.composite
def _mp_argv(draw):
    """``theory mp`` argv: ``--c`` the text of a float, and half the time
    ``--points`` up to 3000 or past the 10^6 cap up to 2 x 10^6."""
    argv = ["theory", "mp", f"--c={draw(_float_text(-12.0, 12.0))}"]
    if draw(st.booleans()):
        points = draw(st.integers(-3, 3000) | st.integers(10**6 + 1, 2 * 10**6))
        argv.append(f"--points={points}")
    return argv


def _text_mass_slack(curve):
    """How far the ``%.9g`` text of a curve's abscissas can move its trapezoid
    mass: each written x is within 5e-9 |x| of the double, and the mass moves
    by (y[k-1] - y[k+1]) / 2 per unit move of x[k]."""
    y = np.concatenate([[0.0], curve.ys, [0.0]])
    return float(np.sum(np.abs(y[:-2] - y[2:]) / 2 * 5e-9 * np.abs(curve.xs)))


class TestTheoryMpContract:
    """Whatever ``--c`` and ``--points`` are, ``theory mp`` ends in exit 0 or 1
    with no warning and nothing escaping ``run_cli``; a success writes the cell
    averages of the closed-form CDF, whose mass is 1 to 1e-6 as computed, and
    as read back from the file up to the slack of its 9-digit abscissas."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(argv=_mp_argv())
    # the closed-form CDF missed 1 by 8e-6 next to b here, and the curve's mass 1
    # by 1.7e-6: refused now, as off by more than 1e-9
    @example(argv=["theory", "mp", "--c=1.6613508097089388e-11", "--points=1143"])
    def test_any_c_and_points(self, argv):
        written = []
        write = fileio.write_density_csv
        with tempfile.TemporaryDirectory() as d, mock.patch.object(
                fileio, "write_density_csv",
                lambda path, curves, labels: written.append(curves[0])
                or write(path, curves, labels)):
            out = Path(d) / "mp.csv"
            rc, err = _run_quietly([*argv, "-o", str(out)])
            if rc:
                assert rc == 1
                _assert_refused(rc, err, out)
                return
            assert err == ""
            assert abs(written[0].total_mass() - 1.0) <= 1e-6, argv
            curve = read_density_csv(str(out))["mp"]
            assert abs(curve.total_mass() - 1.0) <= 1e-6 + _text_mass_slack(curve), argv


# labels the CLI writes, and one it does not
_LABELS = ("kde", "hist", "mp", "rho_s", "proj_x", "other")


@st.composite
def _density_file_bytes(draw):
    """A density file: one curve on 2 to 6 knots at quarter steps in [-5, 5],
    under a drawn label, with a drawn atom and ordinates, scaled to unit mass
    half the time; one time in five, any bytes."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.binary(max_size=64))
    xs = np.unique(draw(st.lists(st.integers(-20, 20), min_size=2, max_size=6))) / 4.0
    if xs.size < 2:
        xs = np.array([0.0, 1.0])
    ys = np.array(draw(st.lists(st.floats(0.0, 10.0), min_size=xs.size, max_size=xs.size)))
    atom = draw(st.sampled_from([0.0, 0.25]) | st.floats(0.0, 1.0, exclude_max=True))
    mass = np.trapezoid(ys, xs)
    if draw(st.booleans()) and mass > 1e-3:
        ys = ys * ((1.0 - atom) / mass)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "curve.csv"
        write_density_csv(str(path), [DensityCurve(xs, ys, atom)],
                          [draw(st.sampled_from(_LABELS))])
        return path.read_bytes()


class TestCompareContract:
    """Whatever two files ``compare`` is given, it ends in exit 0 or 1 with no
    warning and nothing escaping ``run_cli``; a success compares two curves of
    mass within 0.02 of 1, so its report reads back a finite KS of at most 1.02
    and a finite L1 of at most 2.04, and stderr holds only ``warning:`` lines."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(emp=_density_file_bytes(), th=_density_file_bytes(),
           emp_col=st.none() | st.sampled_from(_LABELS),
           th_col=st.none() | st.sampled_from(_LABELS))
    def test_any_files(self, emp, th, emp_col, th_col):
        with tempfile.TemporaryDirectory() as d:
            paths = {name: Path(d) / f"{name}.csv" for name in ("emp", "th")}
            paths["emp"].write_bytes(emp)
            paths["th"].write_bytes(th)
            out = Path(d) / "report.txt"
            argv = ["compare", "--empirical", str(paths["emp"]), "--theory", str(paths["th"])]
            argv += [] if emp_col is None else [f"--empirical-col={emp_col}"]
            argv += [] if th_col is None else [f"--theory-col={th_col}"]
            rc, err = _run_quietly([*argv, "-o", str(out)])
            if rc:
                assert rc == 1
                _assert_refused(rc, err, out)
                return
            assert all(line.startswith("warning: ") for line in err.splitlines()), err
            values = dict(line.split(" = ") for line in out.read_text().splitlines()[2:])
            l1, ks = float(values["L1"]), float(values["KS"])
            assert 0.0 <= ks <= 1.02 + 1e-9 and 0.0 <= l1 <= 2.04 + 1e-9, (l1, ks)


@st.composite
def _analyze_case(draw):
    """A float32 capture of p x n standard Gaussian rows (p, n <= 64) from a
    drawn seed, half the time with up to three rows rescaled by 10^+-12, made
    constant or duplicated, and an ``analyze`` argv: ``cov`` with, half the
    time, ``--no-standardize`` and, one time in four, ``--bandwidth`` text, or
    ``lagged`` with a drawn ``--tau``; either, one time in three, with
    ``--bins`` in [1, 300] or out of range, below 1 or past the 10^6 cap up to
    2 x 10^6. Returns the capture's bytes, the argv and whether its rows are
    untouched Gaussian ones."""
    p, n = draw(st.integers(1, 64)), draw(st.integers(1, 64))
    x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((p, n))
    changes = draw(st.lists(st.tuples(st.sampled_from(["scale", "constant", "duplicate"]),
                                      st.integers(0, p - 1), st.integers(0, p - 1),
                                      st.floats(-12.0, 12.0)), max_size=3))
    for kind, i, j, e in changes:
        x[i] = {"scale": x[i] * 10.0**e, "constant": e, "duplicate": x[j]}[kind]
    bins = st.integers(1, 300) | st.integers(-2, 0) | st.integers(10**6 + 1, 2 * 10**6)
    bins = st.just([]) | st.just([]) | bins.map(lambda k: [f"--bins={k}"])
    if draw(st.booleans()):
        argv = ["analyze", "cov", *draw(st.sampled_from([[], ["--no-standardize"]])), *draw(bins)]
        if draw(st.integers(0, 3)) == 0:
            argv.append(f"--bandwidth={draw(_float_text(-6.0, 2.0))}")
    else:
        argv = ["analyze", "lagged", f"--tau={draw(st.integers(-1, n + 1))}", *draw(bins)]
    raw = _rmtc(x.astype("<f4").tobytes(), rows=p, cols=n)
    return raw, argv, not changes


class TestAnalyzeContract:
    """Whatever small capture and options ``analyze`` is given, it ends in exit
    0, 1 or 2 with no warning and nothing escaping ``run_cli``: a refusal is
    one ``error:`` line, and a success writes only finite numbers. On untouched
    Gaussian rows a success counts exactly the structural zeros, p - rank:
    ``cov`` writes the atom (p - min(p, n - 1)) / p of centered rows, (p -
    min(p, n)) / p of raw ones, and ``lagged`` a cloud in which the zero rule
    counts p - min(p, n - tau - [tau = 0]) zeros."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=_analyze_case())
    def test_any_capture_and_options(self, case):
        raw, argv, gaussian = case
        with tempfile.TemporaryDirectory() as d:
            cap, out = Path(d) / "c.rmtc", Path(d) / "out.csv"
            cap.write_bytes(raw)
            rc, err = _run_quietly([*argv, "-i", str(cap), "-o", str(out)])
            if rc:
                assert rc in (1, 2)
                _assert_refused(rc, err, out)
                return
            assert err == ""
            for path in Path(d).glob("out*.csv"):
                assert np.isfinite(_csv_values(path)).all(), path
            if not gaussian:
                return
            p, n = struct.unpack_from("<II", raw, 8)
            if argv[1] == "cov":
                rank = min(p, n) if "--no-standardize" in argv else min(p, n - 1)
                atom = read_density_csv(str(out))["hist"].point_mass_at_zero
                assert atom == float(f"{(p - rank) / p:.9g}"), (p, n, argv)
            else:
                tau = int(argv[2].split("=")[1])
                cloud = _csv_values(out)
                zeros = p - len(estimation.split_atom(cloud[:, 0] + 1j * cloud[:, 1])[0])
                assert zeros == p - min(p, n - tau - (tau == 0)), (p, n, argv)


class TestDensityFileMass:
    """Every ``analyze cov`` column is a cell average on one grid that clears
    every support, so it keeps its curve's mass: to rounding in memory, and
    within the 9-digit CSV rounding when read back."""

    @pytest.mark.parametrize("rows, cols, generate, analyze", [
        (64, 256, [], []), (64, 64, [], []), (256, 256, [], []), (128, 32, [], []),
        (256, 8, [], []),
        # eigenvalues near 1e6: the grid's margin grows past 0.5 to clear a cell
        (64, 64, ["--variance", "1e6"], ["--no-standardize"]),
    ])
    def test_columns_keep_their_mass(self, tmp_path, monkeypatch, rows, cols, generate, analyze):
        cap, dens = tmp_path / "cap.rmtc", tmp_path / "dens.csv"
        assert _run("generate", "--signal", "wgn", "--seed", "1", "--rows", str(rows),
                    "--cols", str(cols), *generate, "-o", str(cap)) == 0
        kdes, written = [], []
        density, write = estimation.eigenvalue_density, fileio.write_density_csv
        monkeypatch.setattr(estimation, "eigenvalue_density",
                            lambda *a: kdes.append(density(*a)) or kdes[-1])
        monkeypatch.setattr(fileio, "write_density_csv",
                            lambda path, curves, labels: written.append(curves)
                            or write(path, curves, labels))
        assert _run("analyze", "cov", "-i", str(cap), *analyze, "-o", str(dens)) == 0

        hist, kde, mp = written[0]
        assert kde.total_mass() == pytest.approx(kdes[0].total_mass(), rel=0, abs=1e-12)
        assert hist.total_mass() == pytest.approx(1.0, rel=0, abs=1e-12)
        assert mp.total_mass() == pytest.approx(1.0, rel=0, abs=1e-12)
        back = read_density_csv(str(dens))
        for label in ("hist", "mp"):
            assert back[label].total_mass() == pytest.approx(1.0, rel=0, abs=1e-6), label


class TestPipelines:
    def test_wgn_cov_against_mp(self, tmp_path):
        cap = tmp_path / "cap.rmtc"
        dens = tmp_path / "density.csv"
        mp = tmp_path / "mp.csv"
        report = tmp_path / "report.txt"
        assert _run("generate", "--signal", "wgn", "--seed", "7",
                    "--rows", "256", "--cols", "1024", "-o", str(cap)) == 0
        assert _run("theory", "mp", "--c", "0.25", "-o", str(mp)) == 0
        theory = read_density_csv(str(mp))["mp"]

        # Silverman over-smooths the square-root support edges a little at
        # p = 256; the default stays close and a plain narrower bandwidth
        # meets the 0.1 self-check bound
        assert _run("analyze", "cov", "-i", str(cap), "-o", str(dens)) == 0
        assert l1_distance(read_density_csv(str(dens))["kde"], theory) <= 0.12
        assert _run("analyze", "cov", "-i", str(cap), "--bandwidth", "0.08",
                    "-o", str(dens)) == 0
        assert l1_distance(read_density_csv(str(dens))["kde"], theory) <= 0.1

        assert _run("compare", "--empirical", str(dens), "--theory", str(mp),
                    "-o", str(report)) == 0
        text = report.read_text()
        assert "L1 = " in text and "KS = " in text

    @pytest.mark.filterwarnings("error")
    def test_compare_disjoint_boxes(self, tmp_path, capsys):
        # the curve CDFs are exact: KS between disjoint unit boxes is 1, not
        # more; the disjoint supports are one "warning:" line, on every call
        emp, th, report = (tmp_path / n for n in ("a.csv", "b.csv", "r.txt"))
        box = np.ones(2)
        write_density_csv(str(emp), [DensityCurve(np.array([0.0, 1.0]), box)], ["kde"])
        write_density_csv(str(th), [DensityCurve(np.array([2.0, 3.0]), box)], ["mp"])
        for _ in range(2):
            assert _run("compare", "--empirical", str(emp), "--theory", str(th),
                        "-o", str(report)) == 0
            out, err = capsys.readouterr()
            assert err == "warning: density supports are disjoint\n"
            assert out == report.read_text() == (f"empirical: {emp} [kde]\ntheory: {th} [mp]\n"
                                                  f"L1 = 2\nKS = 1\n")

    @pytest.mark.parametrize("emp_col, th_col", [("hist", "mp"), ("mp", "kde")])
    def test_compare_named_columns(self, tmp_path, capsys, emp_col, th_col):
        # one analyze cov file holds hist, kde and mp; the flags pick two
        cap, dens, report = (tmp_path / n for n in ("cap.rmtc", "dens.csv", "r.txt"))
        assert _run(*_WGN, "--seed", "3", "-o", str(cap)) == 0
        assert _run("analyze", "cov", "-i", str(cap), "-o", str(dens)) == 0
        assert _run("compare", "--empirical", str(dens), "--theory", str(dens),
                    "--empirical-col", emp_col, "--theory-col", th_col,
                    "-o", str(report)) == 0
        curves = read_density_csv(str(dens))
        a, b = curves[emp_col], curves[th_col]
        assert report.read_text() == (
            f"empirical: {dens} [{emp_col}]\ntheory: {dens} [{th_col}]\n"
            f"L1 = {l1_distance(a, b):.9g}\nKS = {estimation.curve_ks_distance(a, b):.9g}\n")
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("flag", ["--empirical-col", "--theory-col"])
    def test_compare_refuses_an_unknown_column(self, tmp_path, capsys, flag):
        cap, dens, report = (tmp_path / n for n in ("cap.rmtc", "dens.csv", "r.txt"))
        assert _run(*_WGN, "--seed", "3", "-o", str(cap)) == 0
        assert _run("analyze", "cov", "-i", str(cap), "-o", str(dens)) == 0
        capsys.readouterr()
        assert _run("compare", "--empirical", str(dens), "--theory", str(dens),
                    flag, "foo", "-o", str(report)) == 1
        out, err = capsys.readouterr()
        assert err == "error: column 'foo' not in file (has ['hist', 'kde', 'mp'])\n"
        assert out == "" and not report.exists()

    def test_compare_sees_the_atom_jump(self, tmp_path):
        # a: atom 0.5 plus density 0.5 on [0, 1]; b: density 0.5 on [-1, 1].
        # The CDFs agree at every knot; just left of 0, a's is 0 and b's 0.5
        emp, th, report = (tmp_path / n for n in ("a.csv", "b.csv", "r.txt"))
        half = np.full(2, 0.5)
        write_density_csv(str(emp), [DensityCurve(np.array([0.0, 1.0]), half, 0.5)], ["kde"])
        write_density_csv(str(th), [DensityCurve(np.array([-1.0, 1.0]), half)], ["mp"])
        assert _run("compare", "--empirical", str(emp), "--theory", str(th),
                    "-o", str(report)) == 0
        assert report.read_text().splitlines()[-1] == "KS = 0.5"

    def test_compare_sees_the_crossing(self, tmp_path):
        # density 2x against 1 on [0, 1]: the CDFs x^2 and x agree at both
        # knots and differ most, by 0.25, where the densities cross at 0.5
        emp, th, report = (tmp_path / n for n in ("a.csv", "b.csv", "r.txt"))
        xs = np.array([0.0, 1.0])
        write_density_csv(str(emp), [DensityCurve(xs, np.array([0.0, 2.0]))], ["kde"])
        write_density_csv(str(th), [DensityCurve(xs, np.ones(2))], ["mp"])
        assert _run("compare", "--empirical", str(emp), "--theory", str(th),
                    "-o", str(report)) == 0
        assert report.read_text().splitlines()[-1] == "KS = 0.25"

    def test_theory_mp_c4_support_and_atom(self, tmp_path):
        # 1001 cells of width 8/999 clear the support [1, 9] by half a cell
        out = tmp_path / "mp4.csv"
        assert _run("theory", "mp", "--c", "4", "-o", str(out)) == 0
        text = out.read_text()
        assert "# point_mass_mp=0.75" in text
        curve = read_density_csv(str(out))["mp"]
        h = 8.0 / 999
        assert curve.xs[0] == pytest.approx(1.0 - h / 2, rel=1e-9)
        assert curve.xs[-1] == pytest.approx(9.0 + h / 2, rel=1e-9)
        assert curve.ys[0] == curve.ys[-1] == 0.0 and curve.ys[1:-1].min() > 0.0

    # c = 1 puts an x^(-1/2) pole at the lower edge 0, which cell averages of
    # the closed-form CDF integrate exactly on any grid
    @pytest.mark.parametrize("points", [3, 20, 1001])
    def test_theory_mp_c1_mass(self, tmp_path, points):
        out = tmp_path / "mp1.csv"
        assert _run("theory", "mp", "--c", "1", "--points", str(points), "-o", str(out)) == 0
        curve = read_density_csv(str(out))["mp"]
        h = 4.0 / (points - 2)
        assert curve.xs[0] == pytest.approx(-h / 2) and curve.xs[-1] == pytest.approx(4 + h / 2)
        assert curve.total_mass() == pytest.approx(1.0, rel=0, abs=1e-6)

    def test_theory_lagged_writes_curve(self, tmp_path):
        out = tmp_path / "rho.csv"
        assert _run("theory", "lagged", "--q", "10", "-o", str(out)) == 0
        curve = read_density_csv(str(out))["rho_s"]
        assert curve.total_mass() == pytest.approx(1.0, abs=0.02)

    def test_analyze_lagged_outputs(self, tmp_path):
        cap = tmp_path / "cap.rmtc"
        cloud = tmp_path / "cloud.csv"
        assert _run("generate", "--signal", "wgn", "--seed", "3",
                    "--rows", "64", "--cols", "640", "-o", str(cap)) == 0
        assert _run("analyze", "lagged", "-i", str(cap), "--tau", "1",
                    "-o", str(cloud)) == 0
        lines = cloud.read_text().strip().splitlines()
        assert lines[0] == "re,im"
        assert len(lines) == 65
        X = standardize_rows(rmtspec.read_capture(str(cap)))
        values = eigvals_general(lagged_correlation(X, 1))
        assert cloud.read_bytes() == reference_cloud_csv(values)
        for axis in ("x", "y"):
            proj = read_density_csv(str(tmp_path / f"cloud.{axis}.csv"))[f"proj_{axis}"]
            assert proj.total_mass() == pytest.approx(1.0, abs=0.02)

    def test_narrowband_and_ncofdm_generate(self, tmp_path):
        nb = tmp_path / "nb.rmtc"
        nc = tmp_path / "nc.rmtc"
        assert _run("generate", "--signal", "narrowband", "--seed", "1",
                    "--rows", "32", "--cols", "256", "--snr-db", "10",
                    "-o", str(nb)) == 0
        assert _run("generate", "--signal", "ncofdm", "--seed", "1",
                    "--rows", "1024", "--cols", "16", "--snr-db", "10",
                    "--freq-domain", "-o", str(nc)) == 0
        assert nb.stat().st_size == 32 + 32 * 256 * 4
        assert nc.stat().st_size == 32 + 1024 * 16 * 8


class TestGenerateFraming:
    """generate fills the capture row-major from the stream's first rows*cols samples."""

    @pytest.mark.parametrize("signal, stream", [
        ("wgn", lambda: rmtspec.gen_wgn(4, 2 * 3)),
        ("narrowband", lambda: rmtspec.gen_narrowband(4, 2 * 3)),
    ])
    def test_row_major_fill(self, tmp_path, signal, stream):
        cap = tmp_path / "c.rmtc"
        assert _run("generate", "--signal", signal, "--seed", "4",
                    "--rows", "2", "--cols", "3", "-o", str(cap)) == 0
        want = stream().astype(np.float32).reshape(2, 3)
        np.testing.assert_array_equal(fileio.read_capture(str(cap)).entries, want)

    @pytest.mark.parametrize("signal, stream", [
        ("wgn", lambda: rmtspec.gen_wgn(4, 2 * 3)),
        ("narrowband", lambda: rmtspec.gen_narrowband(4, 2 * 3)),
    ])
    def test_noise_takes_the_next_seed(self, tmp_path, signal, stream):
        cap = tmp_path / "c.rmtc"
        assert _run("generate", "--signal", signal, "--seed", "4", "--snr-db", "10",
                    "--rows", "2", "--cols", "3", "-o", str(cap)) == 0
        want = rmtspec.add_awgn(stream(), 10.0, seed=5).astype(np.float32).reshape(2, 3)
        np.testing.assert_array_equal(fileio.read_capture(str(cap)).entries, want)

    def test_freq_domain_is_the_spectrogram_of_the_noisy_frames(self, tmp_path):
        cap = tmp_path / "c.rmtc"
        assert _run("generate", "--signal", "ncofdm", "--seed", "4", "--n-fft", "16",
                    "--occupied", "1:5", "--rows", "16", "--cols", "3", "--snr-db", "10",
                    "--freq-domain", "-o", str(cap)) == 0
        frames = rmtspec.add_awgn(rmtspec.gen_ncofdm_frames(4, 3, 16, np.arange(1, 6)),
                                  10.0, seed=5)
        z = rmtspec.spectrogram_matrix(frames, 16).astype(np.complex64)
        got = fileio.read_capture(str(cap)).entries
        np.testing.assert_array_equal(got, np.vstack([z.real, z.imag]))

    def test_complex_stacking(self, tmp_path):
        # 4 x 6 = 24 samples from two 16-point frames; the capture reads back
        # as the real rows over the imaginary rows
        cap = tmp_path / "c.rmtc"
        assert _run("generate", "--signal", "ncofdm", "--seed", "4", "--n-fft", "16",
                    "--occupied", "1:5", "--rows", "4", "--cols", "6", "-o", str(cap)) == 0
        z = rmtspec.gen_ncofdm_frames(4, 2, 16, np.arange(1, 6))[:24]
        z = z.astype(np.complex64).reshape(4, 6)
        got = fileio.read_capture(str(cap)).entries
        np.testing.assert_array_equal(got, np.vstack([z.real, z.imag]))


class TestExitCodes:
    def test_numerical_failure_maps_to_2(self, tmp_path, monkeypatch):
        import rmtspec.cli as cli
        from rmtspec.errors import BranchAmbiguity

        def boom(Q, epsilon):
            raise BranchAmbiguity(0.5)

        monkeypatch.setattr(cli.theory, "lagged_density_symmetric", boom)
        assert _run("theory", "lagged", "--q", "1",
                    "-o", str(tmp_path / "r.csv")) == 2

    def test_no_standardize_changes_rank(self, tmp_path):
        # c = 4 capture: standardization's demeaning removes one rank
        cap = tmp_path / "c.rmtc"
        assert _run("generate", "--signal", "wgn", "--seed", "5",
                    "--rows", "256", "--cols", "64", "-o", str(cap)) == 0
        outs = {}
        for flag, tag in ((), "std"), (("--no-standardize",), "raw"):
            dens = tmp_path / f"{tag}.csv"
            assert _run("analyze", "cov", "-i", str(cap), *flag,
                        "-o", str(dens)) == 0
            outs[tag] = read_density_csv(str(dens))["kde"].point_mass_at_zero
        assert outs["raw"] == pytest.approx(192 / 256)
        assert outs["std"] == pytest.approx(193 / 256)

    def test_signaling_nan_is_refused_without_a_warning(self, tmp_path, capsys):
        # the f32 -> f64 staging cast of a signaling NaN raises numpy's
        # "invalid value" flag; the matrix check refuses the value just after
        cap = tmp_path / "snan.rmtc"
        cap.write_bytes(_rmtc(struct.pack("<4I", 0x7FA00000, 0, 0, 0), rows=2, cols=2))
        out = tmp_path / "d.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run_cli(["analyze", "cov", "-i", str(cap), "-o", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        _assert_refused(rc, err, out)
        assert err == "error: data matrix contains non-finite entries\n"

    def test_overflowing_capture_header_refused(self, tmp_path, capsys):
        cap = tmp_path / "huge.rmtc"
        cap.write_bytes(fileio.CaptureHeader(fileio.DTYPE_F32_COMPLEX, 2**32 - 1,
                                             2**32 - 1).pack() + bytes(64))
        out = tmp_path / "d.csv"
        assert _run("analyze", "cov", "-i", str(cap), "-o", str(out)) == 1
        err = capsys.readouterr().err
        _assert_refused(1, err, out)
        assert "header promises 147573952520956936200" in err


class TestReproducibility:
    def test_identical_seeds_byte_identical(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            cap = tmp_path / f"{tag}.rmtc"
            dens = tmp_path / f"{tag}.csv"
            assert _run("generate", "--signal", "wgn", "--seed", "99",
                        "--rows", "64", "--cols", "256", "-o", str(cap)) == 0
            assert _run("analyze", "cov", "-i", str(cap), "-o", str(dens)) == 0
            outs.append((cap.read_bytes(), dens.read_bytes()))
        assert outs[0] == outs[1]
