"""The names the traced benchmark (``perfbench/``) patches and reads stay in
the package: a deletion that would break the traced run fails here."""

import importlib
from pathlib import Path

import numpy as np
import pytest

import rmtspec
from rmtspec import estimation, theory
from rmtspec.linalg import RealSpectrum


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


def test_verdict_names():
    # perfbench/pipeline.py computes its KS verdict through these names
    vals = np.array([0.0, 0.0, 1.0, 2.0, 3.0])
    esd = estimation.EsdFunction(estimation.snap_zeros(vals))
    ks = estimation.ks_distance(esd, lambda x: theory.mp_cdf(x, 0.5))
    assert 0.0 <= ks <= 1.0


def test_kde_evals_counts_samples_times_grid(spans):
    # the tracer counts kde_eval's first two positional arguments; the
    # package must look kde_eval up by its module-level name
    vals = np.concatenate([np.zeros(3), np.linspace(1.0, 2.0, 7)])
    tracer = spans.Tracer()
    with tracer.installed("probe"):
        curve = estimation.eigenvalue_density(RealSpectrum(vals, float(vals.sum())))
    assert tracer.job_metrics("probe")["estimation.kde_evals"] == 7 * len(curve.xs) == 7 * 1024
