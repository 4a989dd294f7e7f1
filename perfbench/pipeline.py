"""Workloads, jobs and output checks of the rmtspec pipeline benchmark.

One process runs one client that runs jobs back to back (a closed loop). A
job is the analysis a user runs on one capture, or on one theory sweep,
driven through ``rmtspec.cli.run_cli`` in-process. On the capture workloads
the job also computes the paper's verdict through the library: the KS
distance of the covariance ESD to the Marcenko-Pastur CDF.

Every CLI step, and the verdict, is one operation. An operation fails when
the step exits non-zero, raises, or misses one of its output checks; a miss
is counted and never retried. Checks run after the job's clock stops.
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import rmtspec
from rmtspec import cli, estimation, fileio, linalg, theory
from spans import Tracer, median_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

KS_LIMIT = 0.06          # verdict: ESD vs MP CDF (acceptance criterion 1)
MASS_TOL = 0.02          # |total mass - 1| of every theory curve
ZERO_REL = 1e-8          # eigenvalues below this share of the largest are zeros
SETUP_REPEATS = 3        # fresh interpreters per run; setup_s is their median
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "RMT_THREADS")


# --------------------------------------------------------------------------
# operations
# --------------------------------------------------------------------------

@dataclass
class Outcome:
    rc: int
    message: str = ""
    values: dict = field(default_factory=dict)


def _sha(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def _read_curve(path: Path) -> tuple[np.ndarray, np.ndarray, float]:
    """(xs, ys, point mass) of a one-curve density CSV, parsed independently
    of the package's own reader."""
    atom, rows = 0.0, []
    for line in path.read_text().splitlines():
        if line.startswith("# point_mass_"):
            atom = float(line.split("=", 1)[1])
        elif line and not line.startswith(("#", "x,")):
            rows.append([float(tok) for tok in line.split(",")])
    data = np.asarray(rows, dtype=np.float64)
    return data[:, 0], data[:, 1], atom


def curve_misses(path: Path) -> list[str]:
    xs, ys, atom = _read_curve(path)
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys)) and np.isfinite(atom)):
        return [f"{path.name}: non-finite values"]
    mass = float(np.trapezoid(ys, xs)) + atom
    if abs(mass - 1.0) > MASS_TOL:
        return [f"{path.name}: total mass {mass:.4f} not within {MASS_TOL} of 1"]
    return []


def count_zeros(values: np.ndarray) -> int:
    mags = np.abs(values)
    return int((mags < ZERO_REL * mags.max()).sum())


_PATH_FLAGS = ("-i", "-o", "--empirical", "--theory")


class CliOp:
    """One ``rmtspec`` invocation with the artifacts it must leave behind.

    The label is the command line without its file arguments."""

    def __init__(self, argv, artifacts=(), content_check=None):
        self.argv = [str(a) for a in argv]
        words = [a for i, a in enumerate(self.argv)
                 if a not in _PATH_FLAGS and (i == 0 or self.argv[i - 1] not in _PATH_FLAGS)]
        self.label = " ".join(words)
        self.span = "cli." + "_".join(words[:2] if words[0] in ("analyze", "theory")
                                      else words[:1])
        self.artifacts = [Path(p) for p in artifacts]
        self.content_check = content_check

    def run(self) -> Outcome:
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            rc = cli.run_cli(self.argv)
        return Outcome(rc, err.getvalue().strip())

    def digests(self, outcome: Outcome) -> dict:
        return {p.name: _sha(p) for p in self.artifacts}

    def misses(self, outcome: Outcome) -> list[str]:
        gone = [p.name for p in self.artifacts if not p.exists()]
        if gone:
            return [f"missing artifacts {gone}"]
        try:
            return self.content_check() if self.content_check else []
        except (ValueError, IndexError) as exc:
            return [f"unreadable artifact: {exc}"]


class VerdictOp:
    """The paper's verdict through the library: KS of the covariance ESD of
    the standardized capture against the Marcenko-Pastur CDF."""

    label = "verdict"
    span = "job.verdict"

    def __init__(self, capture_path: Path, c: float, expected_zeros: int):
        self.capture_path = str(capture_path)
        self.c = c
        self.expected_zeros = expected_zeros

    def run(self) -> Outcome:
        X = linalg.standardize_rows(fileio.read_capture(self.capture_path))
        vals = linalg.eigvals_symmetric(linalg.sample_covariance(X)).values
        esd = estimation.EsdFunction(estimation.snap_zeros(vals))
        ks = estimation.ks_distance(esd, lambda x: theory.mp_cdf(x, self.c))
        return Outcome(0, values={"ks": ks, "zeros": count_zeros(vals)})

    def digests(self, outcome: Outcome) -> dict:
        return {"ks": repr(outcome.values["ks"]), "zeros": outcome.values["zeros"]}

    def misses(self, outcome: Outcome) -> list[str]:
        ks, zeros = outcome.values["ks"], outcome.values["zeros"]
        out = []
        if zeros != self.expected_zeros:
            out.append(f"covariance has {zeros} zero eigenvalues, expected {self.expected_zeros}")
        if not ks <= KS_LIMIT:
            out.append(f"KS {ks:.4f} above {KS_LIMIT}")
        return out


def run_op(op) -> Outcome:
    # a traceback in the program is a failed operation, not a benchmark crash
    try:
        return op.run()
    except Exception as exc:  # noqa: BLE001
        return Outcome(-1, f"{type(exc).__name__}: {exc}")


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Capture:
    """NC-OFDM capture stored as the per-frame DFT: 1024 complex rows (2048
    real rows after reading) by ``frames`` columns, at 10 dB SNR."""

    frames: int
    seed_key: int  # keeps the two capture workloads' streams independent

    rows = 1024

    @property
    def p(self) -> int:
        return 2 * self.rows

    @property
    def c(self) -> float:
        return self.p / self.frames

    def seed(self, workload_seed: int) -> int:
        return int(np.random.SeedSequence([workload_seed, self.seed_key]).generate_state(1)[0])

    def generate_argv(self, seed: int, path: Path) -> list[str]:
        return ["generate", "--signal", "ncofdm", "--seed", str(seed), "--rows", str(self.rows),
                "--cols", str(self.frames), "--snr-db", "10", "--freq-domain", "-o", str(path)]


def capture_ops(cap: Capture, capture_path: Path, work: Path) -> list:
    # standardized rows have rank min(p, n-1); the lag-1 matrix min(p, n-1) too
    zeros = cap.p - min(cap.p, cap.frames - 1)
    dens, cloud, mp, report = (work / name for name in
                               ("dens.csv", "cloud.csv", "mp.csv", "report.txt"))

    def cloud_zeros():
        z = np.loadtxt(cloud, delimiter=",", skiprows=1, ndmin=2)
        n = count_zeros(z[:, 0] + 1j * z[:, 1])
        return [] if n == zeros else [f"lagged spectrum has {n} zeros, expected {zeros}"]

    return [
        CliOp(["analyze", "cov", "-i", capture_path, "-o", dens], [dens]),
        CliOp(["analyze", "lagged", "-i", capture_path, "--tau", "1", "-o", cloud],
              [cloud, work / "cloud.x.csv", work / "cloud.y.csv"], cloud_zeros),
        CliOp(["theory", "mp", "--c", repr(cap.c), "-o", mp], [mp], lambda: curve_misses(mp)),
        CliOp(["compare", "--empirical", dens, "--theory", mp, "-o", report], [report]),
        VerdictOp(capture_path, cap.c, zeros),
    ]


SWEEP_Q = ("0.25", "0.5", "1", "2", "4", "10")
SWEEP_EPS = ("1e-3", "3e-4", "1e-4")
SWEEP_C = ("0.25", "0.5", "1", "2", "4")


def sweep_ops(work: Path) -> list:
    ops = []
    for q in SWEEP_Q:
        for eps in SWEEP_EPS:
            out = work / f"rho_q{q}_e{eps}.csv"
            ops.append(CliOp(["theory", "lagged", "--q", q, "--epsilon", eps, "-o", out], [out],
                             lambda out=out: curve_misses(out)))
    for c in SWEEP_C:
        out = work / f"mp_c{c}.csv"
        ops.append(CliOp(["theory", "mp", "--c", c, "-o", out], [out],
                         lambda out=out: curve_misses(out)))
    return ops


@dataclass(frozen=True)
class Workload:
    capture: Capture | None
    # median job_s on a 2-vCPU x86-64 host with the pure-Python kernels; a run
    # does round(seconds / job_s) jobs, a count that depends only on the
    # arguments, so two runs of the same code attempt and fail the same
    # operations however fast the machine is at the time
    nominal_job_s: float
    # operations that fail at the commit that introduced the benchmark; they
    # stay in the job and count as failed, and a failure elsewhere is not correct
    known_defects: frozenset = frozenset()


# Which layers each workload exposes, so a change to one layer has a workload
# that exercises it and one that does not:
#   rankdef-capture   2048x64, rank 63: the dense p x p eigensolves
#                     (linalg.eigvals_*) are ~95% of job_s, job_cpu_s and
#                     peak_rss_mb; a small-side solve shows here.
#   fullrank-capture  2048x4096, full rank: the small-side trick cannot apply,
#                     so job_s must not move with it; theory.mp_cdf and
#                     estimation.ks_distance (quad), fileio.read_capture,
#                     linalg.standardize_rows and estimation.eigenvalue_density
#                     are the heavy layers; setup_s carries signals.generate.
#   theory-sweep      no capture: theory.green_scan, kernels.quartic_roots_batch,
#                     theory.green_function calls and fileio.write_density_csv;
#                     a change to the eigensolvers must not move it.
WORKLOADS = {
    "rankdef-capture": Workload(Capture(frames=64, seed_key=1), 4.4),
    "fullrank-capture": Workload(Capture(frames=4096, seed_key=2), 6.7),
    "theory-sweep": Workload(None, 1.2, frozenset({
        "theory lagged --q 0.25 --epsilon 1e-4",   # NoConvergence, residual 1.0e-8
        "theory lagged --q 0.5 --epsilon 1e-4",    # NoConvergence, residual 4.7e-9
        "theory mp --c 1",                         # mass 0.9706: singular point at 0
    })),
}


# --------------------------------------------------------------------------
# running
# --------------------------------------------------------------------------

@dataclass
class Result:
    metrics: dict[str, float]
    attempted: int
    failures: list[tuple[str, str, str]]      # (job, operation, reason)
    jobs: int
    known_defects: frozenset
    context: dict

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def correct(self) -> bool:
        return all(label in self.known_defects for _, label, _ in self.failures)


class _Checker:
    """Checks operations after each job. Artifacts must be byte-identical to
    the first job's; content checks run once per distinct set of digests."""

    def __init__(self):
        self.reference: dict[str, dict] = {}
        self.content: dict[tuple, list[str]] = {}
        self.attempted = 0
        self.failures: list[tuple[str, str, str]] = []

    def check(self, job: str, op, outcome: Outcome) -> None:
        self.attempted += 1
        if outcome.rc != 0:
            last = (outcome.message.splitlines() or [""])[-1]
            reason = f"exit code {outcome.rc}: {last}"
            self.failures.append((job, op.label, reason))
            return
        digests = op.digests(outcome)
        key = (op.label, tuple(sorted(digests.items())))
        if key not in self.content:
            self.content[key] = op.misses(outcome)
        misses = list(self.content[key])
        ref = self.reference.setdefault(op.label, digests)
        if digests != ref:
            misses.append("artifacts differ from the first job's")
        if misses:
            self.failures.append((job, op.label, "; ".join(misses)))


def _setup(workload: Workload, seed: int, work: Path, checker: _Checker):
    """Fresh interpreters that import the CLI and generate the capture.
    Returns (wall seconds per repeat, import seconds per repeat, capture path)."""
    walls, imports = [], []
    cap = workload.capture
    for k in range(SETUP_REPEATS):
        path = work / f"setup{k}" / "capture.rmtc"
        path.parent.mkdir()
        argv = cap.generate_argv(cap.seed(seed), path) if cap else []
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "setup_child.py"),
                               str(ROOT / "src"), *argv],
                              capture_output=True, text=True, cwd=ROOT, timeout=170)
        walls.append(time.perf_counter() - t0)
        try:
            report = json.loads(proc.stdout.strip().splitlines()[-1])
            rc = report["rc"] or proc.returncode
            imports.append(report["import_s"])
        except (IndexError, KeyError, json.JSONDecodeError):
            rc = proc.returncode or -1
        # bookkeeping only: the command ran in the child
        op = CliOp(argv or ["import"], [path] if cap else [])
        checker.check("setup", op, Outcome(rc, proc.stderr.strip()))
    return walls, imports, (work / "setup0" / "capture.rmtc" if cap else None)


def context_block(workload: Workload, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    ctx = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "kernel_backend": rmtspec.kernel_backend,
        "threadpoolctl": importlib.util.find_spec("threadpoolctl") is not None,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "seed": seed,
    }
    if workload.capture:
        ctx["capture_seed"] = workload.capture.seed(seed)
    return ctx


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 layer_names=()) -> Result:
    """Set up, run a discarded warm-up job, then run the jobs that fill
    ``seconds`` at the workload's nominal job time (at least one; two in a
    traced run, which alternates traced and untraced jobs so the tracing
    overhead is measured in the same process). A traced run reports every
    name in ``layer_names``, as 0 where no job entered it."""
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{name}-{seed}-", dir=ROOT / ".bench_work") as tmp:
        return _run(WORKLOADS[name], name, seed, seconds, trace, layer_names, Path(tmp))


def _run(workload: Workload, name: str, seed: int, seconds: float, trace: bool,
         layer_names, work: Path) -> Result:
    checker = _Checker()
    tracer = Tracer()
    setup_walls, import_walls, capture_path = _setup(workload, seed, work, checker)
    if trace and workload.capture:
        # traced in-process generate, checked against the fresh interpreters' capture
        path = work / "traced" / "capture.rmtc"
        path.parent.mkdir()
        op = CliOp(workload.capture.generate_argv(workload.capture.seed(seed), path), [path])
        with tracer.installed("setup"):
            checker.check("setup", op, run_op(op))

    ops = capture_ops(workload.capture, capture_path, work) if workload.capture \
        else sweep_ops(work)

    def job(job_id: str, traced: bool):
        for op in ops:
            for p in getattr(op, "artifacts", ()):
                p.unlink(missing_ok=True)
        t0, c0 = time.perf_counter(), time.process_time()
        with tracer.installed(job_id) if traced else nullcontext():
            outcomes = []
            for op in ops:
                with tracer.span(op.span) if traced else nullcontext():
                    outcomes.append(run_op(op))
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        for op, outcome in zip(ops, outcomes):
            checker.check(job_id, op, outcome)
        return wall, cpu

    job("warmup", False)
    walls, cpus, traced_walls, traced_ids = [], [], [], []
    n = max(2 if trace else 1, round(seconds / workload.nominal_job_s))
    t0 = time.perf_counter()
    for k in range(n):
        traced = trace and k % 2 == 0
        job_id = f"job{k}"
        wall, cpu = job(job_id, traced)
        if traced:
            traced_walls.append(wall)
            traced_ids.append(job_id)
        else:
            walls.append(wall)
            cpus.append(cpu)
    phase = time.perf_counter() - t0

    if trace:
        per_job = [tracer.job_metrics(j) for j in traced_ids]
        metrics = median_metrics(per_job, layer_names)
        setup_m = tracer.job_metrics("setup")
        for key in ("signals.generate.s", "fileio.write_capture.s"):
            metrics[key] = setup_m.get(key, 0.0)
        metrics["cli.import.s"] = statistics.median(import_walls)
        metrics["trace.job_s"] = statistics.median(traced_walls)
        metrics["trace.overhead_s"] = metrics["trace.job_s"] - statistics.median(walls)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"spans-{name}-seed{seed}.json").write_text(json.dumps(tracer.to_json()))
    else:
        metrics = {
            "job_s": statistics.median(walls),
            "jobs_per_s": n / phase,
            "job_cpu_s": statistics.median(cpus),
            "setup_s": statistics.median(setup_walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return Result(metrics, checker.attempted, checker.failures, n, workload.known_defects,
                  context_block(workload, seed))

