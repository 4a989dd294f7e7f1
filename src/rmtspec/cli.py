"""Command-line front end.

Subcommands:

    generate        synthesize a capture file (wgn | narrowband | ncofdm)
    analyze cov     covariance eigenvalues: histogram + KDE + MP overlay
    analyze lagged  complex eigenvalue cloud + axis-projection histograms
    theory mp       Marcenko-Pastur density curve
    theory lagged   lagged-spectrum density via the quartic resolvent
    compare         KS and L1 distances between two saved curves

Exit codes: 0 success, 1 validation/usage/IO/out-of-memory error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import warnings

import numpy as np

from . import estimation, fileio, signals, theory
from .curves import _MAX_POINTS, DensityCurve, cell_averages
from .errors import DisjointSupportsWarning, NumericalError, ValidationError
from .linalg import (
    eigvals_general,
    eigvals_symmetric,
    lagged_correlation,
    sample_covariance,
    standardize_rows,
)

__all__ = ["run_cli", "main"]

_DEFAULT_BINS = 40
_PROJ_BINS = 12


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


# built on first use and kept: parse_args fills a fresh namespace on every call
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="rmtspec", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    g = sub.add_parser("generate", help="synthesize a capture file")
    g.add_argument("--signal", required=True, choices=["wgn", "narrowband", "ncofdm"])
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--rows", type=int, required=True, help="capture rows (complex rows for ncofdm)")
    g.add_argument("--cols", type=int, required=True)
    g.add_argument("--variance", type=float, default=1.0)
    g.add_argument("--carrier", type=float, default=0.25, help="cycles/sample")
    g.add_argument("--symbol-rate", type=float, default=1.0 / 16.0)
    g.add_argument("--n-fft", type=int, default=1024)
    g.add_argument("--occupied", default="", help='inclusive ranges, e.g. "10:50,80:100"')
    g.add_argument("--snr-db", type=float, default=math.inf)
    g.add_argument("--freq-domain", action="store_true",
                   help="ncofdm only: store the per-frame DFT, rows = subcarriers")
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=_cmd_generate)

    an = sub.add_parser("analyze", help="analyze a capture file")
    ansub = an.add_subparsers(dest="analysis", required=True, parser_class=_Parser)
    ac = ansub.add_parser("cov", help="covariance spectrum vs Marcenko-Pastur")
    ac.add_argument("-i", "--input", required=True)
    ac.add_argument("--no-standardize", action="store_true")
    ac.add_argument("--bins", type=int, default=_DEFAULT_BINS)
    ac.add_argument("--bandwidth", type=float, default=None)
    ac.add_argument("-o", "--output", required=True)
    ac.set_defaults(func=_cmd_analyze_cov)
    al = ansub.add_parser("lagged", help="complex spectrum of the lagged correlation")
    al.add_argument("-i", "--input", required=True)
    al.add_argument("--tau", type=int, required=True)
    al.add_argument("--bins", type=int, default=_PROJ_BINS)
    al.add_argument("-o", "--output", required=True)
    al.set_defaults(func=_cmd_analyze_lagged)

    th = sub.add_parser("theory", help="theoretical benchmark curves")
    thsub = th.add_subparsers(dest="law", required=True, parser_class=_Parser)
    tm = thsub.add_parser("mp", help="Marcenko-Pastur density")
    tm.add_argument("--c", type=float, required=True, help="dimension ratio p/n")
    tm.add_argument("--points", type=int, default=1001)
    tm.add_argument("-o", "--output", required=True)
    tm.set_defaults(func=_cmd_theory_mp)
    tl = thsub.add_parser("lagged", help="lagged-spectrum density (quartic resolvent)")
    tl.add_argument("--q", type=float, required=True, help="information-to-noise ratio T/N")
    tl.add_argument("--epsilon", type=float, default=1e-3)
    tl.add_argument("-o", "--output", required=True)
    tl.set_defaults(func=_cmd_theory_lagged)

    cp = sub.add_parser("compare", help="KS and L1 distances between saved curves")
    cp.add_argument("--empirical", required=True)
    cp.add_argument("--theory", required=True)
    cp.add_argument("--empirical-col", default=None)
    cp.add_argument("--theory-col", default=None)
    cp.add_argument("-o", "--output", required=True)
    cp.set_defaults(func=_cmd_compare)
    return p


def _parse_occupied(text: str, n_fft: int) -> np.ndarray | None:
    if not text:
        return None
    ranges = []
    for part in text.split(","):
        lo, _, hi = part.partition(":")
        try:
            ranges.append((int(lo), int(hi or lo)))
        except ValueError:
            raise ValidationError(f"--occupied: bad range {part!r}, expected LO:HI or N") from None
    return signals.occupied_from_ranges(ranges, n_fft)


def _binary_size(nbytes: int) -> str:
    """``nbytes`` to one decimal in the largest binary unit it reaches: "71.1 PiB"."""
    k = max(nbytes.bit_length() - 1, 0) // 10
    units = ["bytes", "KiB", "MiB", "GiB", "TiB", "PiB", "EiB", "ZiB", "YiB"]
    return f"{nbytes / 1024**k:.1f} " + (units[k] if k < len(units) else f"x 2^{10 * k} bytes")


def _cmd_generate(ns: argparse.Namespace) -> int:
    rows, cols = ns.rows, ns.cols
    if rows < 1 or cols < 1:
        raise ValidationError("rows and cols must be >= 1")
    if ns.freq_domain and ns.signal != "ncofdm":
        raise ValidationError("--freq-domain applies to the ncofdm signal only")
    if ns.freq_domain and rows != ns.n_fft:
        raise ValidationError(f"--freq-domain needs --rows == n_fft ({ns.n_fft})")

    # the stream (complex for ncofdm, real otherwise) and its noisy copy are
    # alive at once: refuse what physical memory cannot hold before either exists
    stream = rows * cols * 8
    if ns.signal == "ncofdm":
        occupied = _parse_occupied(ns.occupied, ns.n_fft)
        # the generator refuses an n_fft that is not a power of two, 0 included
        n_frames = cols if ns.freq_domain else -(-rows * cols // (ns.n_fft or 1))
        stream = n_frames * ns.n_fft * 16
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if 2 * stream > memory:
        raise MemoryError(f"Unable to allocate {_binary_size(stream)} twice, for the stream "
                          f"and its noisy copy: more than the {_binary_size(memory)} of "
                          f"physical memory")

    if ns.signal == "wgn":
        samples = signals.gen_wgn(ns.seed, rows * cols, ns.variance)
    elif ns.signal == "narrowband":
        samples = signals.gen_narrowband(ns.seed, rows * cols, ns.carrier, ns.symbol_rate)
    else:
        samples = signals.gen_ncofdm_frames(ns.seed, n_frames, ns.n_fft, occupied)

    samples = signals.add_awgn(samples, ns.snr_db, seed=ns.seed + 1)

    if ns.freq_domain:
        payload = signals.spectrogram_matrix(samples, ns.n_fft)
        del samples  # the spectrum holds all the payload needs
    else:
        payload = samples[: rows * cols].reshape(rows, cols)
    fileio.write_capture(ns.output, payload)
    return 0


def _cmd_analyze_cov(ns: argparse.Namespace) -> int:
    X = fileio.read_capture(ns.input)
    if not ns.no_standardize:
        X = standardize_rows(X)
    vals = eigvals_symmetric(sample_covariance(X)).values
    ratio = X.p / X.n
    prm = theory.mp_params(ratio)

    kde = estimation.eigenvalue_density(vals, ns.bandwidth)
    nonzero, atom_share = estimation.split_atom(vals)
    hist = estimation.with_atom(estimation.histogram_density(nonzero, bins=ns.bins), atom_share)

    # one grid clearing every support (the KDE's tails, the MP law's, the atom
    # at 0) by a cell, so each column's trapezoid mass is its curve's mass
    lo, hi = min(0.0, kde.xs[0]), max(prm.b, kde.xs[-1])
    pad = max(0.5, (hi - lo) / 2000)
    grid = np.linspace(lo - pad, hi + pad, 2048)
    columns = [cell_averages(grid, c.cdf, atom_share) for c in (hist, kde)]
    columns.append(cell_averages(grid, lambda x: theory.mp_cdf(x, ratio), prm.point_mass_at_zero))
    fileio.write_density_csv(ns.output, columns, ["hist", "kde", "mp"])
    return 0


def _cmd_analyze_lagged(ns: argparse.Namespace) -> int:
    X = standardize_rows(fileio.read_capture(ns.input))
    v = eigvals_general(lagged_correlation(X, ns.tau))

    # every curve is built before any file is written, so a failure leaves none
    curves = {axis: estimation.projection_density(v, axis=axis, bins=ns.bins)
              for axis in ("x", "y")}

    fileio.write_table_csv(ns.output, ["re,im"], np.column_stack([v.real, v.imag]))

    base, ext = os.path.splitext(ns.output)
    for axis, curve in curves.items():
        fileio.write_density_csv(f"{base}.{axis}{ext or '.csv'}", [curve], [f"proj_{axis}"])
    return 0


def _cmd_theory_mp(ns: argparse.Namespace) -> int:
    if not 3 <= ns.points <= _MAX_POINTS:  # checked before anything is allocated
        raise ValidationError(f"--points must lie in [3, {_MAX_POINTS}], "
                              f"got {ns.points}")
    prm = theory.mp_params(ns.c)
    # --points cells clearing [a, b] by half a cell: the end ordinates are 0,
    # so the trapezoid mass is the CDF's whatever c or --points
    h = (prm.b - prm.a) / (ns.points - 2)
    grid = prm.a - 0.5 * h + h * np.arange(ns.points)
    # an extreme c collapses [a, b] to a point or a few doubles
    if not np.all(np.diff(grid) > 0):
        raise ValidationError(f"the c={ns.c:g} support [{prm.a:.9g}, {prm.b:.9g}] holds no "
                              f"{ns.points} strictly increasing abscissas (--points)")
    # mp_cdf's two terms near pi cancel to O(c): it is off by up to eps / c
    if ns.c < 2.2e-7:
        raise ValidationError(f"c={ns.c:g} is below 2.2e-07, where the MP CDF is off by over 1e-9")
    curve = cell_averages(grid, lambda x: theory.mp_cdf(x, ns.c), prm.point_mass_at_zero)
    fileio.write_density_csv(ns.output, [curve], ["mp"])
    return 0


def _cmd_theory_lagged(ns: argparse.Namespace) -> int:
    curve = theory.lagged_density_symmetric(ns.q, ns.epsilon)
    # some (Q, epsilon) give a curve whose mass misses 1 on the default grid,
    # e.g. 1.053 at Q = 1e8, epsilon = 1e-12
    theory.require_unit_mass(curve, f"the Q={ns.q:g}, epsilon={ns.epsilon:g} curve")
    fileio.write_density_csv(ns.output, [curve], ["rho_s"])
    return 0


def _pick_column(curves: dict[str, DensityCurve], requested: str | None,
                 preferred: tuple[str, ...]) -> str:
    if requested is None:
        return next(name for name in (*preferred, *curves) if name in curves)
    if requested not in curves:
        raise ValidationError(f"column {requested!r} not in file (has {sorted(curves)})")
    return requested


def _cmd_compare(ns: argparse.Namespace) -> int:
    emp = fileio.read_density_csv(ns.empirical)
    th = fileio.read_density_csv(ns.theory)
    emp_col = _pick_column(emp, ns.empirical_col, ("kde", "hist"))
    th_col = _pick_column(th, ns.theory_col, ("mp", "rho_s"))
    a, b = emp[emp_col], th[th_col]
    # a KS or L1 is a distance between distributions only at unit mass
    theory.require_unit_mass(a, f"{ns.empirical}: column {emp_col!r}")
    theory.require_unit_mass(b, f"{ns.theory}: column {th_col!r}")
    # disjoint supports warn: one "warning:" line, not a Python warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DisjointSupportsWarning)
        l1 = estimation.l1_distance(a, b)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    report = (
        f"empirical: {ns.empirical} [{emp_col}]\n"
        f"theory: {ns.theory} [{th_col}]\n"
        f"L1 = {l1:.9g}\n"
        f"KS = {estimation.curve_ks_distance(a, b):.9g}\n"
    )
    fileio._atomic_write(ns.output, report.encode())
    print(report, end="")
    return 0


def run_cli(argv) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return ns.func(ns)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))
