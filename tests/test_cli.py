import os
import subprocess
import sys
from pathlib import Path

import pytest

import rmtspec
from rmtspec import l1_distance, read_density_csv
from rmtspec.cli import run_cli


def _run(*args):
    return run_cli(list(args))


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

    def test_import_does_not_load_scipy(self, tmp_path):
        src = str(Path(rmtspec.__file__).resolve().parents[1])
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import rmtspec.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code, src], cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


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
