"""Smoke test of the pipeline benchmark itself.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload at one timed job (``--seconds 0``), untraced once and
traced twice, and checks that every metric named in ``BENCHMARK.json`` is
printed, that the computed counts repeat exactly across the two traced runs,
and that a corrupted artifact raises the share of failed operations.
Takes a few minutes.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# derived from array shapes and call counts, so identical on every run
COMPUTED = [
    "fileio.read_capture.bytes", "fileio.write_density_csv.rows",
    "linalg.eig_order", "linalg.eig_flops", "linalg.matrix_bytes",
    "estimation.kde_evals", "theory.mp_cdf.points", "theory.grid_points",
    "theory.green_function.calls", "theory.errors", "kernels.quartic_roots_batch.rows",
]


def bench(workload: str, trace: int, seed: int = 5) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    return {w: (bench(w, 1), bench(w, 1)) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_present(workload):
    result = bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"]) and got["value"] > 0


def test_per_layer_metrics_present(traced):
    names = [m["name"] for m in SPEC["per_layer"]]
    for first, second in traced.values():
        assert first["correct"] and second["correct"]
        assert list(first["metrics"]) == names
    # a name no workload ever fills is a misspelt or dead metric
    idle = [n for n in names if all(r[0]["metrics"][n]["value"] == 0 for r in traced.values())]
    assert not idle


def test_computed_counts_repeat_exactly(traced):
    for workload, (first, second) in traced.items():
        for name in COMPUTED:
            assert first["metrics"][name] == second["metrics"][name], (workload, name)


def test_corrupted_artifact_raises_fail_ratio(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import pipeline
    from rmtspec import fileio

    clean = pipeline.run_workload("theory-sweep", 5, 0, False)
    write, seen = fileio._atomic_write, []

    def corrupting(path, payload):
        if path.endswith("mp_c2.csv"):
            seen.append(path)
            if len(seen) > 1:  # the first job's artifacts are the reference
                payload = payload[:-2] + bytes([payload[-2] ^ 1]) + payload[-1:]
        write(path, payload)

    monkeypatch.setattr(fileio, "_atomic_write", corrupting)
    dirty = pipeline.run_workload("theory-sweep", 5, 0, False)
    assert len(seen) == 2
    assert dirty.failed / dirty.attempted > clean.failed / clean.attempted
    assert clean.correct and not dirty.correct
