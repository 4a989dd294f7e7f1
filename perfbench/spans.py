"""Span recorder for the traced run, and the per-layer metrics derived from it.

Spans are recorded from outside the package: each public function a layer
exposes is replaced, for the duration of a traced job, by a wrapper under the
name its caller looks it up by (``cli`` imports the ``linalg`` names directly,
``theory`` imports ``quartic_roots_batch`` and ``estimation`` imports
``kde_eval``). Nothing in the package itself is edited.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from rmtspec import cli, estimation, fileio, linalg, signals, theory


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    job: str = ""
    error: str | None = None
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _order(a) -> int:
    return int(np.shape(getattr(a, "entries", a))[0])


def _csv_rows(path) -> int:
    """Data rows of a density CSV: lines minus the header and # comments."""
    with open(path, "rb") as fh:
        data = fh.read()
    return data.count(b"\n") - data.count(b"\n#") - data.startswith(b"#") - 1


# (module, attribute, span name, counts(args, result) -> {metric: count}).
# A name shared by several functions (signals.generate,
# estimation.histogram_density) is one layer metric; nested spans of the same
# name are counted once.
_PATCHES = [
    (fileio, "read_capture", "fileio.read_capture",
     lambda a, r: {"fileio.read_capture.bytes": os.path.getsize(a[0])}),
    (fileio, "write_density_csv", "fileio.write_density_csv",
     lambda a, r: {"fileio.write_density_csv.rows": _csv_rows(a[0])}),
    (fileio, "read_density_csv", "fileio.read_density_csv", None),
    (fileio, "write_capture", "fileio.write_capture", None),
    (linalg, "standardize_rows", "linalg.standardize_rows",
     lambda a, r: {"linalg.matrix_bytes": r.entries.nbytes}),
    (linalg, "sample_covariance", "linalg.sample_covariance",
     lambda a, r: {"linalg.matrix_bytes": r.entries.nbytes}),
    (linalg, "lagged_correlation", "linalg.lagged_correlation",
     lambda a, r: {"linalg.matrix_bytes": r.entries.nbytes}),
    (linalg, "eigvals_symmetric", "linalg.eigvals_symmetric",
     lambda a, r: {"linalg.eig_order": _order(a[0]),
                  "linalg.eig_flops": 4.0 / 3.0 * _order(a[0]) ** 3}),
    (linalg, "eigvals_general", "linalg.eigvals_general",
     lambda a, r: {"linalg.eig_order": _order(a[0]),
                  "linalg.eig_flops": 10.0 * _order(a[0]) ** 3}),
    (estimation, "eigenvalue_density", "estimation.eigenvalue_density", None),
    (estimation, "histogram_density", "estimation.histogram_density", None),
    (estimation, "projection_density", "estimation.histogram_density", None),
    (estimation, "ks_distance", "estimation.ks_distance", None),
    (estimation, "l1_distance", "estimation.l1_distance", None),
    (estimation, "kde_eval", "kernels.kde_eval",
     lambda a, r: {"estimation.kde_evals": np.size(a[0]) * np.size(a[1])}),
    (theory, "mp_cdf", "theory.mp_cdf",
     lambda a, r: {"theory.mp_cdf.points": int(np.size(a[0]))}),
    (theory, "lagged_density_symmetric", "theory.lagged_density_symmetric", None),
    (theory, "green_scan", "theory.green_scan", None),
    (theory, "green_function", "theory.green_function", None),
    (theory, "quartic_roots_batch", "kernels.quartic_roots_batch",
     lambda a, r: {"kernels.quartic_roots_batch.rows": int(np.shape(a[0])[0])}),
    (signals, "gen_wgn", "signals.generate", None),
    (signals, "gen_narrowband", "signals.generate", None),
    (signals, "gen_ncofdm_frames", "signals.generate", None),
    (signals, "add_awgn", "signals.generate", None),
    (signals, "spectrogram_matrix", "signals.generate", None),
]
# cli binds the linalg functions at import, so they are looked up there too
_PATCHES += [(cli, attr, name, count) for mod, attr, name, count in _PATCHES
             if mod is linalg and hasattr(cli, attr)]


class Tracer:
    """In-memory span list with a stack of open spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._t0 = time.perf_counter()
        self.job = ""

    @contextmanager
    def span(self, name: str):
        s = Span(name, time.perf_counter(), parent=self._stack[-1] if self._stack else None,
                 job=self.job)
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        try:
            yield s
        except BaseException as exc:
            s.error = type(exc).__name__
            raise
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if counts is not None:
                s.counts = counts(args, result)
            return result
        return traced

    @contextmanager
    def installed(self, job: str):
        """Route every patched function through a span for one job."""
        self.job = job
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in _PATCHES]
        try:
            for (mod, attr, name, counts), (_, _, fn) in zip(_PATCHES, saved):
                setattr(mod, attr, self._wrap(fn, name, counts))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)
            self.job = ""

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "start": s.start - self._t0, "end": s.end - self._t0,
                 "parent": s.parent, "job": s.job, "error": s.error, "counts": s.counts}
                for s in self.spans]

    def job_metrics(self, job: str) -> dict[str, float]:
        """Per-layer totals of one job: inclusive seconds of the outermost
        span of each name, summed counts, and the cli self time."""
        out: dict[str, float] = {}
        child_s: dict[int, float] = {}
        for i, s in enumerate(self.spans):
            if s.job != job:
                continue
            if s.parent is not None:
                child_s[s.parent] = child_s.get(s.parent, 0.0) + s.seconds
            if not self._nested_in_same_name(s):
                out[s.name + ".s"] = out.get(s.name + ".s", 0.0) + s.seconds
            for metric, value in s.counts.items():
                out[metric] = out.get(metric, 0) + value
            if s.name == "theory.green_function":
                out["theory.green_function.calls"] = out.get("theory.green_function.calls", 0) + 1
            if s.name == "kernels.quartic_roots_batch" and s.parent is not None and \
                    self.spans[s.parent].name == "theory.green_scan":
                out["theory.grid_points"] = out.get("theory.grid_points", 0) + \
                    s.counts["kernels.quartic_roots_batch.rows"]
            if s.error and s.name.startswith("theory.") and (
                    s.parent is None or not self.spans[s.parent].name.startswith("theory.")):
                out["theory.errors"] = out.get("theory.errors", 0) + 1
        out["cli.self.s"] = sum(s.seconds - child_s.get(i, 0.0)
                                for i, s in enumerate(self.spans)
                                if s.job == job and s.name.startswith("cli."))
        return out

    def _nested_in_same_name(self, s: Span) -> bool:
        p = s.parent
        while p is not None:
            if self.spans[p].name == s.name:
                return True
            p = self.spans[p].parent
        return False


def median_metrics(per_job: list[dict[str, float]], names) -> dict[str, float]:
    """Median over jobs of each named metric; a layer a job never entered is 0."""
    return {n: float(statistics.median(m.get(n, 0.0) for m in per_job)) for n in names}
