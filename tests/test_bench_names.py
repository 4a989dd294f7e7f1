"""The names the traced benchmark (``perfbench/``) patches and reads stay in
the package: a deletion that would break the traced run fails here."""

import importlib
from pathlib import Path

import rmtspec
from rmtspec import theory


def test_tracer_installs_and_restores_every_patch(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    spans = importlib.import_module("spans")
    original = theory.quartic_roots_batch
    # entering looks up every patched name; a missing one raises AttributeError
    with spans.Tracer().installed("probe"):
        assert theory.quartic_roots_batch is not original
    assert theory.quartic_roots_batch is original
    assert rmtspec.kernel_backend == "pure"
