#!/usr/bin/env python3
"""Pipeline benchmark of rmtspec: one command, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout, with nothing to build. Workloads and metrics are
named in ``BENCHMARK.json`` at the root; see ``pipeline.py`` for the jobs
and their checks and ``spans.py`` for the traced layers.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (spans also go to ``.bench_out/``). Lines before the last describe the
run: a context block (versions, BLAS, threads, seed), each metric, and the
failed operations. The last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``failed`` counts every failed
operation; ``correct`` is false when an operation fails that is not one of
the workload's recorded defects.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def cap_blas_threads() -> None:
    """Keep OpenBLAS at no more threads than this process may run on."""
    nproc = len(os.sched_getaffinity(0))
    try:
        asked = int(os.environ.get("OPENBLAS_NUM_THREADS", nproc))
    except ValueError:
        asked = nproc
    os.environ["OPENBLAS_NUM_THREADS"] = str(max(1, min(asked, nproc)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="length of the timed phase at the nominal job time; "
                         "0 runs the fewest jobs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "rmtspec" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no rmtspec sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    cap_blas_threads()  # before numpy is imported
    sys.path.insert(0, str(ROOT / "src"))
    import pipeline

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    result = pipeline.run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                   [m["name"] for m in wanted])
    missing = [m["name"] for m in wanted if m["name"] not in result.metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2

    print("context " + json.dumps(result.context, sort_keys=True))
    print(f"workload {args.workload}: {result.jobs} timed jobs, "
          f"{result.attempted} operations, {result.failed} failed "
          f"(fail_ratio {result.failed / result.attempted:.4f})")
    for job, label, reason in result.failures:
        known = " [recorded defect]" if label in result.known_defects else ""
        print(f"failed {job}: {label}: {reason}{known}")
    for m in wanted:
        print(f"{m['name']} = {result.metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {m["name"]: {"value": result.metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
