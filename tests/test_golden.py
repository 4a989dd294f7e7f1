"""Every artifact of small fixed-seed CLI pipelines, and the library verdict's
KS, against the sha256 digests and reprs in ``golden.json``.

The pipelines cover each code path that writes bytes: a rank-deficient
capture (small-side solves on one thread) and a full-rank one (dense staged
solves), each analyzed standardized and raw (``--no-standardize``),
``theory lagged`` at its default epsilon and over the benchmark's sweep of Q
and epsilon, ``theory mp`` below, at and above c = 1, and ``compare``.
``generate`` also writes one capture of each other source and framing: WGN
of variance 4, noisy narrowband BPSK, time-domain NC-OFDM and noiseless
per-frame-DFT NC-OFDM. The bits depend on the BLAS kernels, so the manifest records the
build it was made on and the test skips on any other. A change that moves
bytes on purpose rewrites the manifest with ``python tests/test_golden.py``
from the repository root and names each changed digest and why it changed.
"""

import ctypes
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from rmtspec import estimation, fileio, linalg, theory
from rmtspec.cli import run_cli

MANIFEST = Path(__file__).with_name("golden.json")

# generate arguments and p / n of each capture: 256 x 16 (c = 16, rank 15)
# and 128 x 256 (c = 0.5, full rank), both the per-frame DFT of NC-OFDM at
# 10 dB SNR
CAPTURES = {
    "rankdef": (["--n-fft", "128", "--occupied", "8:40,72:104", "--rows", "128",
                 "--cols", "16"], 16.0),
    "fullrank": (["--n-fft", "64", "--occupied", "4:20,36:52", "--rows", "64",
                  "--cols", "256"], 0.5),
}

# generate arguments (without -o) of the captures no pipeline analyzes: the
# time-domain one takes the default 1024-point frame and occupied set and
# truncates its second frame, the per-frame DFT one gives overlapping,
# unsorted occupied ranges
GENERATED = {
    "wgn-var4": ["--signal", "wgn", "--seed", "3", "--rows", "8", "--cols", "32",
                 "--variance", "4"],
    "narrowband": ["--signal", "narrowband", "--seed", "3", "--rows", "8", "--cols", "32",
                   "--carrier", "0.2", "--symbol-rate", "0.125", "--snr-db", "10"],
    "ncofdm-time": ["--signal", "ncofdm", "--seed", "3", "--rows", "8", "--cols", "200",
                    "--snr-db", "10"],
    "ncofdm-freq": ["--signal", "ncofdm", "--seed", "3", "--n-fft", "64",
                    "--occupied", "36:52,4:20,10:12", "--rows", "64", "--cols", "8",
                    "--freq-domain"],
}

# the benchmark's theory sweep: every (Q, epsilon) pair it writes
SWEEP_Q = ("0.25", "0.5", "1", "2", "4", "10")
SWEEP_EPS = ("1e-3", "3e-4", "1e-4")


def _steps() -> list[list[str]]:
    """CLI argv of every step, in order, with paths relative to the working
    directory (``compare`` writes its input paths into its report)."""
    steps = []
    for name, (shape, c) in CAPTURES.items():
        cap, dens, mp = f"{name}.rmtc", f"{name}.dens.csv", f"{name}.mp.csv"
        steps += [
            ["generate", "--signal", "ncofdm", "--seed", "1", *shape, "--snr-db", "10",
             "--freq-domain", "-o", cap],
            ["analyze", "cov", "-i", cap, "-o", dens],
            ["analyze", "cov", "-i", cap, "--no-standardize", "-o", f"{name}.raw.dens.csv"],
            ["analyze", "lagged", "-i", cap, "--tau", "1", "-o", f"{name}.cloud.csv"],
            ["theory", "mp", "--c", repr(c), "-o", mp],
            ["compare", "--empirical", dens, "--theory", mp, "-o", f"{name}.report.txt"],
        ]
    steps += [["theory", "lagged", "--q", q, "-o", f"lagged-q{q}.csv"] for q in ("0.5", "2")]
    steps += [["theory", "lagged", "--q", q, "--epsilon", eps, "-o", f"lagged-q{q}-e{eps}.csv"]
              for q in SWEEP_Q for eps in SWEEP_EPS]
    steps += [["theory", "mp", "--c", c, "-o", f"mp-c{c}.csv"]
              for c in ("0.25", "0.5", "1", "2", "4")]
    steps += [["generate", *args, "-o", f"{name}.rmtc"] for name, args in GENERATED.items()]
    return steps


def _verdict_ks(capture: str, c: float) -> float:
    """KS of the covariance ESD of the standardized capture against the
    Marcenko-Pastur CDF, through the library."""
    X = linalg.standardize_rows(fileio.read_capture(capture))
    esd = estimation.EsdFunction(estimation.snap_zeros(
        linalg.eigvals_symmetric(linalg.sample_covariance(X)).values))
    return estimation.ks_distance(esd, lambda x: theory.mp_cdf(x, c))


def _openblas_core() -> str | None:
    """The kernel set numpy's vendored OpenBLAS chose at load time. A
    DYNAMIC_ARCH build picks it by CPU, and the build configuration that
    ``np.show_config`` reports does not name it."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            get = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_char_p
        return get().decode()
    return None


def fingerprint() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "openblas": blas.get("openblas configuration"),
            "openblas_core": _openblas_core(), "machine": platform.machine()}


def digests(work: Path) -> dict:
    """Run every step in ``work``; the sha256 of every file it leaves there
    and the repr of each capture's verdict KS."""
    for argv in _steps():
        assert run_cli(argv) == 0, argv
    out = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(work.iterdir())}
    for name, (_, c) in CAPTURES.items():
        out[f"{name}.verdict_ks"] = repr(_verdict_ks(f"{name}.rmtc", c))
    return out


def test_artifacts_match_the_manifest(tmp_path, monkeypatch):
    manifest = json.loads(MANIFEST.read_text())
    if manifest["fingerprint"] != fingerprint():
        pytest.skip(f"manifest made on {manifest['fingerprint']}, this is {fingerprint()}")
    monkeypatch.chdir(tmp_path)
    assert digests(tmp_path) == manifest["digests"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        table = {"fingerprint": fingerprint(), "digests": digests(Path(work))}
    MANIFEST.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST}", file=sys.stderr)
