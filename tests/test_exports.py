"""Every public name of the package resolves: each entry of a module's
``__all__``, and each name ``rmtspec/__init__.py`` re-exports, which must also
be in its module's ``__all__``. A deleted function leaves no stale export."""

import ast
import dataclasses
import importlib
import pkgutil
from pathlib import Path

import pytest

import rmtspec

MODULES = sorted(m.name for m in pkgutil.iter_modules(rmtspec.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"rmtspec.{name}")
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []


def test_package_reexports_resolve():
    tree = ast.parse(Path(rmtspec.__file__).read_text(encoding="utf-8"))
    reexports = [(node.module, alias.name) for node in tree.body
                 if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert reexports
    for module, name in reexports:
        mod = importlib.import_module(f"rmtspec.{module}")
        assert getattr(rmtspec, name) is getattr(mod, name)
        assert name in mod.__all__, (module, name)


# the spec classes and the stream wrapper of the generators were removed:
# each generator takes its arguments and returns a plain array
@pytest.mark.parametrize("name", ["WgnSpec", "NarrowbandSpec", "NcofdmSpec", "SampleStream"])
def test_removed_signal_types_stay_gone(name):
    assert not hasattr(rmtspec, name)
    assert not hasattr(importlib.import_module("rmtspec.signals"), name)


# eigvals_general returns a plain sorted array and sample_covariance the lag-0
# LaggedMatrix: the spectrum and covariance wrappers were removed
@pytest.mark.parametrize("name", ["ComplexSpectrum", "CovarianceMatrix"])
def test_removed_linalg_types_stay_gone(name):
    assert not hasattr(rmtspec, name)
    assert not hasattr(importlib.import_module("rmtspec.linalg"), name)


def test_real_spectrum_holds_only_its_values():
    assert [f.name for f in dataclasses.fields(rmtspec.RealSpectrum)] == ["values"]
