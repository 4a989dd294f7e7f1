"""The names the traced benchmark (``perfbench/``) patches and reads stay in
the package: a deletion that would break the traced run fails here."""

import importlib
from pathlib import Path

import numpy as np
import pytest

import rmtspec
from rmtspec import estimation, fileio, linalg, theory
from rmtspec.cli import run_cli


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    return importlib.import_module("spans")


def test_tracer_installs_and_restores_every_patch(spans):
    original = theory.quartic_roots_batch
    # entering looks up every patched name; a missing one raises AttributeError
    with spans.Tracer().installed("probe"):
        assert theory.quartic_roots_batch is not original
    assert theory.quartic_roots_batch is original
    assert rmtspec.kernel_backend == "pure"


def test_verdict_names(spans, tmp_path):
    """``perfbench/pipeline.py``'s ``VerdictOp`` chain, call for call, on a
    small rank-deficient capture: the KS of the covariance ESD against the
    Marcenko-Pastur CDF, with the zero count.

    ``VerdictOp`` reads ``eigvals_symmetric(...).values``; that read is why
    ``RealSpectrum`` still exists, as a one-field wrapper of the sorted
    eigenvalues, while ``eigvals_general`` returns a plain array."""
    path = str(tmp_path / "x.rmtc")
    assert run_cli(["generate", "--signal", "wgn", "--seed", "1", "--rows", "128",
                    "--cols", "64", "-o", path]) == 0
    c, expected_zeros = 128 / 64, 128 - 63  # standardized rows have rank n - 1
    X = linalg.standardize_rows(fileio.read_capture(path))
    vals = linalg.eigvals_symmetric(linalg.sample_covariance(X)).values
    esd = estimation.EsdFunction(estimation.snap_zeros(vals))
    ks = estimation.ks_distance(esd, lambda x: theory.mp_cdf(x, c))
    assert 0.0 <= ks <= 0.06
    assert np.count_nonzero(np.abs(vals) < 1e-8 * np.abs(vals).max()) == expected_zeros

    pipeline = importlib.import_module("pipeline")
    op = pipeline.VerdictOp(path, c, expected_zeros)
    outcome = op.run()
    assert op.misses(outcome) == []
    assert op.digests(outcome) == {"ks": repr(ks), "zeros": expected_zeros}


def test_kde_evals_counts_samples_times_grid(spans):
    # the tracer counts kde_eval's first two positional arguments; the
    # package must look kde_eval up by its module-level name
    vals = np.concatenate([np.zeros(3), np.linspace(1.0, 2.0, 7)])
    tracer = spans.Tracer()
    with tracer.installed("probe"):
        curve = estimation.eigenvalue_density(vals)
    assert tracer.job_metrics("probe")["estimation.kde_evals"] == 7 * len(curve.xs) == 7 * 1024


def test_traced_theory_lagged_counts(spans, tmp_path):
    # one green_function call (the edge candidates) and one quartic row per
    # point of the non-negative half grid that green_scan tracks
    tracer = spans.Tracer()
    with tracer.installed("probe"):
        assert run_cli(["theory", "lagged", "--q", "2", "-o", str(tmp_path / "rho.csv")]) == 0
    metrics = tracer.job_metrics("probe")
    assert metrics["theory.green_function.calls"] == 1
    assert metrics["theory.grid_points"] == len(theory._default_grid(2.0, 1e-3))
