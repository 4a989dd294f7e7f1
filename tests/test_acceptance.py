"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time

import numpy as np
import pytest

import rmtspec as r
from rmtspec.estimation import kde_eval

from oracles import mp_density, project_density

# fixed seeds per criterion keep every run identical
SEED_C1 = 101
SEED_C2_NB = 202
SEED_C2_WGN = 204
SEED_C3_NC = 301
SEED_C3_WGN = 302
SEED_C4_Q10 = 400
SEED_C4_Q05 = 450
SEED_C8 = 99

PROJ_BINS = 12


def _pass(criterion, detail):
    print(f"[PASS] criterion {criterion}: {detail}")


def _wgn_matrix(seed, p, n, standardize):
    X = r.DataMatrix(r.gen_wgn(seed=seed, length=p * n).reshape(p, n))
    return r.standardize_rows(X) if standardize else X


def _ks_vs_mp(values, c):
    esd = r.EsdFunction(r.snap_zeros(values))
    return r.ks_distance(esd, lambda x: r.mp_cdf(x, c))


def _case1(p, n, deadline_s, criterion_label):
    t0 = time.perf_counter()
    X = _wgn_matrix(SEED_C1, p, n, standardize=False)
    vals = r.eigvals_symmetric(r.sample_covariance(X)).values
    lam_max = vals.max()

    n_zero = int((vals < 1e-8 * lam_max).sum())
    assert n_zero == p - n, f"expected exactly {p - n} zero eigenvalues, got {n_zero}"

    c = p / n
    grid = np.linspace(1.0, 9.0, 2001)
    kde = r.eigenvalue_density(vals, grid=grid)
    prm = r.mp_params(c)
    mp_curve = r.DensityCurve(grid, mp_density(grid, c),
                              point_mass_at_zero=prm.point_mass_at_zero)
    l1 = r.l1_distance(kde, mp_curve)
    assert l1 <= 0.15, f"KDE vs MP on [1,9]: L1 = {l1:.4f}"

    ks = _ks_vs_mp(vals, c)
    assert ks <= 0.06, f"ESD vs MP CDF: KS = {ks:.4f}"

    elapsed = time.perf_counter() - t0
    assert elapsed <= deadline_s, f"runtime {elapsed:.1f}s over {deadline_s}s"
    _pass(criterion_label,
          f"p={p}, n={n}: zeros={n_zero} (exact), L1={l1:.4f} (<=0.15), "
          f"KS={ks:.4f} (<=0.06), {elapsed:.1f}s")


def test_criterion_1_case1_wgn_follows_mp():
    _case1(1024, 256, 60.0, "1")


@pytest.mark.slow
def test_criterion_1_case1_full_scale():
    _case1(4096, 1024, 900.0, "1 (full scale)")


@pytest.fixture(scope="module")
def case2_result():
    p, n = 512, 2048
    samples = r.gen_narrowband(seed=SEED_C2_NB, length=p * n)
    noisy = r.add_awgn(samples, 10.0, seed=SEED_C2_NB + 1)
    X = r.standardize_rows(r.DataMatrix(noisy.reshape(p, n)))
    ks_nb = _ks_vs_mp(r.eigvals_symmetric(r.sample_covariance(X)).values, p / n)

    Xw = _wgn_matrix(SEED_C2_WGN, p, n, standardize=True)
    ks_wgn = _ks_vs_mp(r.eigvals_symmetric(r.sample_covariance(Xw)).values, p / n)
    return ks_nb, ks_wgn


def test_criterion_2_case2_narrowband_deviates(case2_result):
    ks_nb, ks_wgn = case2_result
    assert ks_nb >= 3.0 * ks_wgn, f"ratio {ks_nb / ks_wgn:.2f} < 3"
    _pass("2", f"narrowband KS={ks_nb:.4f} vs WGN KS={ks_wgn:.4f}; "
               f"ratio={ks_nb / ks_wgn:.1f} (>=3)")


@pytest.mark.slow
def test_criterion_2_ratio_calibration_ten_seeds():
    # the >=3 threshold ratio was frozen after this sweep: every seed clears it
    p, n = 512, 2048
    ratios = []
    for k in range(10):
        samples = r.gen_narrowband(seed=1000 + k, length=p * n)
        noisy = r.add_awgn(samples, 10.0, seed=2000 + k)
        X = r.standardize_rows(r.DataMatrix(noisy.reshape(p, n)))
        ks_nb = _ks_vs_mp(r.eigvals_symmetric(r.sample_covariance(X)).values, p / n)
        Xw = _wgn_matrix(3000 + k, p, n, standardize=True)
        ks_w = _ks_vs_mp(r.eigvals_symmetric(r.sample_covariance(Xw)).values, p / n)
        ratios.append(ks_nb / ks_w)
    assert min(ratios) > 3.0
    _pass("2 (calibration)", f"10-seed ratio range [{min(ratios):.1f}, {max(ratios):.1f}]")


def test_criterion_3_case3_ncofdm_restores_mp(case2_result):
    t0 = time.perf_counter()
    n_fft, frames = 1024, 4096
    samples = r.gen_ncofdm_frames(seed=SEED_C3_NC, n_frames=frames, n_fft=n_fft)
    noisy = r.add_awgn(samples, 10.0, seed=SEED_C3_NC + 1)
    spectro = r.spectrogram_matrix(noisy, n_fft)          # bins x frames
    X = r.DataMatrix(np.vstack([spectro.real, spectro.imag]))
    X = r.standardize_rows(X)
    c = X.p / X.n
    ks_nc = _ks_vs_mp(r.eigvals_symmetric(r.sample_covariance(X)).values, c)

    Xw = _wgn_matrix(SEED_C3_WGN, X.p, X.n, standardize=True)
    ks_wgn = _ks_vs_mp(r.eigvals_symmetric(r.sample_covariance(Xw)).values, c)

    ks_case2 = case2_result[0]
    assert ks_nc <= 1.5 * ks_wgn, f"KS {ks_nc:.4f} > 1.5 x WGN {ks_wgn:.4f}"
    assert ks_nc < ks_case2, f"KS {ks_nc:.4f} not below case-2 {ks_case2:.4f}"
    elapsed = time.perf_counter() - t0
    assert elapsed <= 120.0, f"runtime {elapsed:.1f}s over 120s"
    _pass("3", f"NC-OFDM KS={ks_nc:.4f} vs WGN KS={ks_wgn:.4f} "
               f"(factor {ks_nc / ks_wgn:.2f} <= 1.5), case-2 KS={ks_case2:.4f}, "
               f"{elapsed:.1f}s")


def _pooled_cloud(Q, N, T, reps, seed0):
    clouds = []
    for k in range(reps):
        X = _wgn_matrix(seed0 + k, N, T, standardize=True)
        C = r.lagged_correlation(X, 1)
        clouds.append(r.eigvals_general(C))
    return np.concatenate(clouds)


def _projection_l1(cloud, theory_curve, axis):
    """Frame-consistent comparison, computed both ways.

    (a) histogram of sqrt(2)*projection vs the symmetric-problem density;
    (b) histogram of the raw projection vs project_density of it.
    The two are the same statement under x -> sqrt(2) x, so their L1s agree.
    """
    emp = r.projection_density(cloud, axis=axis, bins=PROJ_BINS)
    l1_a = r.l1_distance(emp, theory_curve)

    mags = np.abs(cloud)
    nonzero = cloud[mags > 1e-8 * mags.max()]
    raw = nonzero.real if axis == "x" else nonzero.imag
    hist = r.histogram_density(raw, bins=PROJ_BINS)
    share = len(nonzero) / len(cloud)
    emp_raw = r.DensityCurve(hist.xs, hist.ys * share,
                             point_mass_at_zero=1.0 - share)
    l1_b = r.l1_distance(emp_raw, project_density(theory_curve))
    return l1_a, l1_b


def test_criterion_4_lagged_theory_vs_simulation():
    t0 = time.perf_counter()
    results = {}
    for Q, N, T, seed0 in [(10.0, 100, 1000, SEED_C4_Q10),
                           (0.5, 200, 100, SEED_C4_Q05)]:
        theory_curve = r.lagged_density_symmetric(Q, 1e-3)
        cloud = _pooled_cloud(Q, N, T, reps=20, seed0=seed0)
        for axis in ("x", "y"):
            l1_a, l1_b = _projection_l1(cloud, theory_curve, axis)
            assert l1_a <= 0.15, f"Q={Q} axis={axis}: L1={l1_a:.4f}"
            assert l1_b <= 0.15, f"Q={Q} axis={axis} (projected frame): L1={l1_b:.4f}"
            assert abs(l1_a - l1_b) <= 0.02, "the two comparison frames disagree"
            results[(Q, axis)] = l1_a
    elapsed = time.perf_counter() - t0
    assert elapsed <= 180.0, f"runtime {elapsed:.1f}s over 180s"
    detail = ", ".join(f"Q={q} {ax}:{v:.3f}" for (q, ax), v in results.items())
    _pass("4", f"{detail} (all <=0.15), {elapsed:.1f}s")


def test_criterion_5_solver_properties():
    from oracles import green_quartic_coeffs_g

    z_far = 1000.0 - 0.001j
    details = []
    for Q in (0.5, 1.0, 10.0):
        xs, Gc = r.green_scan(Q, 1e-3)
        z = xs - 1j * 1e-3
        atom = max(0.0, 1.0 - Q)
        # G-space residual against the quartic in G itself, at G = Gc + atom/z,
        # and the residual of v = z Gc = zG - atom in the well-scaled quartic
        # the package solves
        coeffs_g = green_quartic_coeffs_g(z, Q)
        G = Gc + atom / z
        res = np.abs(np.array([np.polyval(c, g) for c, g in zip(coeffs_g, G)]))
        rel = res / np.linalg.norm(coeffs_g, axis=1)
        assert rel.max() <= 1e-9, f"Q={Q}: residual {rel.max():.2e}"
        coeffs_v = r.green_quartic_coeffs(z, Q)
        res_v = np.abs(np.array([np.polyval(c, v) for c, v in zip(coeffs_v, z * Gc)]))
        rel_v = res_v / np.linalg.norm(coeffs_v, axis=1)
        assert rel_v.max() <= 1e-12, f"Q={Q}: v-residual {rel_v.max():.2e}"

        g = r.green_function(z_far, Q)
        decay = abs(z_far * g - 1.0)
        assert decay < 1e-2, f"Q={Q}: |zG-1| = {decay:.3e}"

        curve = r.lagged_density_symmetric(Q, 1e-3)
        mass = curve.total_mass()
        assert abs(mass - 1.0) <= 0.02, f"Q={Q}: mass {mass:.4f}"

        even = np.abs(curve.ys - curve.ys[::-1]).max()
        assert even <= 2e-3, f"Q={Q}: evenness {even:.2e}"
        details.append(f"Q={Q}: res={rel.max():.1e}, v-res={rel_v.max():.1e}, "
                       f"|zG-1|={decay:.1e}, "
                       f"mass={mass:.3f}, even={even:.1e}")
    _pass("5", "; ".join(details))


def test_criterion_6_oracle_equivalence():
    from oracles import (charpoly_eigs, greedy_pairing_residual,
                         lagged_corr_loops, sample_cov_loops)

    rng = np.random.default_rng(606)
    worst_sym = worst_gen = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        M = rng.standard_normal((n, n))
        S = M + M.T
        worst_sym = max(worst_sym, greedy_pairing_residual(
            r.eigvals_symmetric(S).values, charpoly_eigs(S)))
        worst_gen = max(worst_gen, greedy_pairing_residual(
            r.eigvals_general(M), charpoly_eigs(M)))
    assert worst_sym < 1e-8 and worst_gen < 1e-8

    X = rng.standard_normal((4, 8))
    cov_err = np.abs(r.sample_covariance(r.DataMatrix(X)).entries
                     - sample_cov_loops(X)).max()
    Xs = r.standardize_rows(r.DataMatrix(rng.standard_normal((4, 8))))
    lag_err = np.abs(r.lagged_correlation(Xs, 2).entries
                     - lagged_corr_loops(Xs.entries, 2)).max()
    assert cov_err <= 1e-12 and lag_err <= 1e-12
    _pass("6", f"200 matrices size<=3: sym {worst_sym:.1e}, general {worst_gen:.1e} "
               f"(<=1e-8); 4x8 sum oracles: cov {cov_err:.1e}, lag {lag_err:.1e} (<=1e-12)")


def test_criterion_7_normalization_suite():
    details = []
    for c in (0.25, 0.5, 1.0, 2.0, 4.0):
        prm = r.mp_params(c)
        cont = r.mp_cdf(prm.b + 1.0, c) - prm.point_mass_at_zero
        want = 1.0 - prm.point_mass_at_zero
        assert abs(cont - want) <= 1e-4, f"c={c}: integral {cont:.6f}"
        details.append(f"c={c}:{cont:.5f}")

    rng = np.random.default_rng(707)
    for scale in (1.0, 10.0):
        s = rng.standard_normal(300) * scale
        h = r.silverman_bandwidth(s)
        grid = np.linspace(s.min() - 5 * h, s.max() + 5 * h, 4001)
        mass = np.trapezoid(kde_eval(s, grid, h), grid)
        assert abs(mass - 1.0) <= 0.02
    _pass("7", f"MP integrals {' '.join(details)} (+-1e-4); KDE masses within 0.02")


def test_criterion_8_byte_identical_reruns(tmp_path):
    from rmtspec.cli import run_cli

    def pipeline(tag):
        cap = tmp_path / f"{tag}.rmtc"
        dens = tmp_path / f"{tag}_d.csv"
        cloud = tmp_path / f"{tag}_cl.csv"
        rho = tmp_path / f"{tag}_rho.csv"
        assert run_cli(["generate", "--signal", "ncofdm", "--seed", str(SEED_C8),
                        "--rows", "1024", "--cols", "64", "--snr-db", "10",
                        "--freq-domain", "-o", str(cap)]) == 0
        assert run_cli(["analyze", "cov", "-i", str(cap), "-o", str(dens)]) == 0
        assert run_cli(["analyze", "lagged", "-i", str(cap), "--tau", "1",
                        "-o", str(cloud)]) == 0
        assert run_cli(["theory", "lagged", "--q", "0.5", "-o", str(rho)]) == 0
        names = [cap, dens, cloud, tmp_path / f"{tag}_cl.x.csv",
                 tmp_path / f"{tag}_cl.y.csv", rho]
        return [p.read_bytes() for p in names]

    assert pipeline("a") == pipeline("b")
    _pass("8", "generate/analyze/theory reruns byte-identical (6 artifacts)")
