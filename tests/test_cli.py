import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rmtspec
from rmtspec import DensityCurve, l1_distance, read_density_csv, write_density_csv
from rmtspec import cli, fileio, theory
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
    "lagged-mass-q0.1-eps1": (["theory", "lagged", "--q", "0.1", "--epsilon", "1"], {}),
    "lagged-mass-q0.1-eps10": (["theory", "lagged", "--q", "0.1", "--epsilon", "10"], {}),
    "lagged-mass-q1e8-eps1e-12": (["theory", "lagged", "--q", "1e8", "--epsilon", "1e-12"], {}),
    "lagged-mass-q1e8-eps1e-8": (["theory", "lagged", "--q", "1e8", "--epsilon", "1e-8"], {}),
    "compare-x-only": (_COMPARE, {"emp": "x\n0\n2\n", "th": _CURVE}),
    "compare-short-rows": (_COMPARE, {"emp": "x,kde\n0\n2\n", "th": _CURVE}),
    "compare-repeated-label": (_COMPARE, {"emp": "x,kde,kde\n0,1,0\n2,1,0\n", "th": _CURVE}),
    "compare-non-numeric": (_COMPARE, {"emp": "x,kde\n0,0.5\n2,a\n", "th": _CURVE}),
    "wgn-variance-inf": (_WGN + ["--variance", "inf"], {}),
    "wgn-snr-nan": (_WGN + ["--snr-db", "nan"], {}),
    "wgn-snr-minus-inf": (_WGN + ["--snr-db=-inf"], {}),
    "wgn-snr-huge": (_WGN + ["--snr-db", "1e308"], {}),
    "wgn-snr-minus-huge": (_WGN + ["--snr-db=-1e308"], {}),
    "wgn-variance-beyond-f32": (_WGN + ["--variance", "1e308"], {}),
    "wgn-snr-noise-beyond-f32": (_WGN + ["--snr-db=-3000"], {}),
    "narrowband-band-nan": (_NARROWBAND + ["--band", "nan"], {}),
    "narrowband-band-negative": (_NARROWBAND + ["--band=-3"], {}),
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

    def test_rmt_threads_without_threadpoolctl_warns(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RMT_THREADS", "1")
        monkeypatch.setitem(sys.modules, "threadpoolctl", None)
        assert _run("theory", "mp", "--c", "0.5", "-o", str(tmp_path / "mp.csv")) == 0
        err = capsys.readouterr().err
        assert "RMT_THREADS" in err and "threadpoolctl" in err

    def test_theory_lagged_names_the_missed_mass(self, tmp_path, capsys):
        # refusal itself is a CONTRACT_CASES entry; this checks what it names
        argv, _ = _contract_argv("lagged-mass-q0.1-eps1", tmp_path)
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert "Q=0.1" in err and "epsilon=1 " in err and "mass 0.9777" in err, err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_analyze_cov_infinite_bandwidth(self, tmp_path, capsys):
        cap = tmp_path / "cap.rmtc"
        out = tmp_path / "d.csv"
        assert _run("generate", "--signal", "wgn", "--seed", "2",
                    "--rows", "8", "--cols", "32", "-o", str(cap)) == 0
        assert _run("analyze", "cov", "-i", str(cap), "--bandwidth", "inf",
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

    @pytest.mark.filterwarnings("ignore::rmtspec.errors.DisjointSupportsWarning")
    def test_compare_disjoint_boxes(self, tmp_path):
        # the curve CDFs are exact: KS between disjoint unit boxes is 1, not more
        emp, th, report = (tmp_path / n for n in ("a.csv", "b.csv", "r.txt"))
        box = np.ones(2)
        write_density_csv(str(emp), [DensityCurve(np.array([0.0, 1.0]), box)], ["kde"])
        write_density_csv(str(th), [DensityCurve(np.array([2.0, 3.0]), box)], ["mp"])
        assert _run("compare", "--empirical", str(emp), "--theory", str(th),
                    "-o", str(report)) == 0
        assert report.read_text().splitlines()[-1] == "KS = 1"

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
        out = tmp_path / "mp4.csv"
        assert _run("theory", "mp", "--c", "4", "-o", str(out)) == 0
        text = out.read_text()
        assert "# point_mass_mp=0.75" in text
        curve = read_density_csv(str(out))["mp"]
        assert curve.xs[0] == pytest.approx(1.0)
        assert curve.xs[-1] == pytest.approx(9.0)

    def test_theory_mp_c1_mass(self, tmp_path):
        # c = 1 puts an x^(-1/2) pole at the lower edge 0
        out = tmp_path / "mp1.csv"
        assert _run("theory", "mp", "--c", "1", "-o", str(out)) == 0
        curve = read_density_csv(str(out))["mp"]
        assert curve.xs[0] == 0.0 and curve.xs[-1] == 4.0
        assert curve.total_mass() == pytest.approx(1.0, abs=0.02)

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
        values = eigvals_general(lagged_correlation(X, 1)).values
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


class TestExitCodes:
    def test_numerical_failure_maps_to_2(self, tmp_path, monkeypatch):
        import rmtspec.cli as cli
        from rmtspec.errors import BranchAmbiguity

        def boom(cfg):
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
