"""Acceptance suite: one test per release criterion.

Each test prints a single "ACCEPTANCE <n>: PASS" line (run pytest with -s
or rely on captured output on failure).  Tolerances and runtime budgets are
pinned here; nothing is deferred to later calibration.
"""

import math
import time

import numpy as np
import pytest

from intermod.channel import make_correlated_pair
from intermod.detector import error_probability, log_gamma_tails, optimal_threshold
from intermod.simulator import ScenarioConfig, run_ber
from intermod.sumrate import sweep_sum_rate
from intermod.weights import (
    TargetGains,
    build_weight_set,
    closed_form_norms,
    paper_closed_form_norms,
    solve_min_norm,
)
from test_detector import quadrature_lower_gamma

BASELINE_30DB = math.log2(1001.0)


def _report(idx, detail=""):
    print(f"ACCEPTANCE {idx}: PASS {detail}".rstrip())


def _random_tuples(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield (
            int(rng.choice([4, 8, 16])),
            float(rng.uniform(0.0, 0.9)),
            float(rng.uniform(0.0, 0.95)),
            float(rng.uniform(0.0, 2 * np.pi)),
            int(rng.integers(0, 2**31)),
        )


def test_criterion_1_constraint_satisfaction():
    start = time.monotonic()
    for k, alpha, rho_mag, phase, seed in _random_tuples(1000, seed=101):
        pair = make_correlated_pair(k, rho_mag, phase, seed=seed)
        ws = build_weight_set(pair, alpha)
        assert abs(abs(pair.h_su @ ws.omega1) - math.sqrt(alpha)) < 1e-9
        assert abs(abs(pair.h_pu @ ws.omega1) - math.sqrt(1 - alpha)) < 1e-9
        assert abs(abs(pair.h_pu @ ws.omega0) - math.sqrt(1 - alpha)) < 1e-9
        assert abs(pair.h_su @ ws.omega0) < 1e-10
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report(1, f"(1000 tuples, {elapsed:.2f}s)")


def test_criterion_2_min_norm_oracle():
    start = time.monotonic()
    max_gap = 0.0
    for k, alpha, rho_mag, phase, seed in _random_tuples(200, seed=202):
        pair = make_correlated_pair(k, rho_mag, phase, seed=seed)
        ws = build_weight_set(pair, alpha)
        n0, n1, _ = closed_form_norms(alpha, rho_mag)
        assert abs(ws.norm0_sq - n0) < 1e-9
        assert abs(ws.norm1_sq - n1) < 1e-9
        _, n1_paper, _ = paper_closed_form_norms(alpha, rho_mag)
        max_gap = max(max_gap, abs(n1_paper - n1))

    # phase grid-search oracle: the aligned phase minimizes |omega1|^2
    alpha, rho_mag = 0.3, 0.6
    pair = make_correlated_pair(8, rho_mag, 1.2, seed=17)
    phases = np.linspace(0.0, 2 * np.pi, 360, endpoint=False)
    norms = [
        float(
            np.vdot(w := solve_min_norm(
                pair, TargetGains(math.sqrt(alpha) * np.exp(1j * p), math.sqrt(1 - alpha))
            ), w).real
        )
        for p in phases
    ]
    best = phases[int(np.argmin(norms))]
    want = (-np.angle(pair.rho)) % (2 * np.pi)
    assert abs((best - want + np.pi) % (2 * np.pi) - np.pi) <= 2 * np.pi / 360
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(2, f"(paper-printed |omega1|^2 deviates by up to {max_gap:.3f}; {elapsed:.2f}s)")


def test_criterion_3_xi_channel_independence():
    alpha, rho_mag = 0.35, 0.7
    xis = [
        build_weight_set(
            make_correlated_pair(3 + seed, rho_mag, 0.61 * seed, seed=seed * 37), alpha
        ).xi
        for seed in range(10)
    ]
    assert max(xis) - min(xis) < 1e-9
    _report(3, f"(spread {max(xis) - min(xis):.2e})")


def test_criterion_4_threshold_optimality():
    start = time.monotonic()
    for n in (1, 10, 100, 1000):
        for snr_db in (-10.0, 0.0, 10.0):
            sr = 10 ** (snr_db / 10)
            delta_star = optimal_threshold(n, sr, 1.0)
            pe_star = error_probability(n, sr, 1.0, delta_star)
            grid = np.linspace(0.2 * delta_star, 5 * delta_star, 1000)
            best_on_grid = min(error_probability(n, sr, 1.0, d) for d in grid)
            assert pe_star <= best_on_grid + 1e-15
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(4, f"({elapsed:.2f}s)")


def test_criterion_5_special_functions():
    worst = 0.0
    for s in (1.0, 2.0, 10.0, 50.0, 200.0):
        for x in (0.1 * s, s, 10.0 * s):
            want = quadrature_lower_gamma(s, x)
            got = math.exp(log_gamma_tails(s, x)[0])
            rel = abs(got - want) / want
            worst = max(worst, rel)
            assert rel < 1e-10
    _report(5, f"(worst relative error {worst:.2e})")


def test_criterion_6_monte_carlo_vs_theory():
    start = time.monotonic()
    bits = 2 * 10**5
    in_band = 0
    points = [(n, snr) for n in (10, 100) for snr in (-10.0, -7.5, -5.0, -2.5, 0.0)]
    for idx, (n, snr_db) in enumerate(points):
        cfg = ScenarioConfig(
            n_samples=n, snr_db=snr_db, n_bits=bits, master_seed=6000 + idx
        )
        res = run_ber(cfg)
        band = 3 * math.sqrt(res.analytic_pe * (1 - res.analytic_pe) / bits)
        if abs(res.ber - res.analytic_pe) <= band:
            in_band += 1
    elapsed = time.monotonic() - start
    assert in_band / len(points) >= 0.95
    assert elapsed < 300.0
    _report(6, f"({in_band}/{len(points)} points in 3-sigma band, {elapsed:.1f}s)")


def test_criterion_7_energy_statistics():
    pair = make_correlated_pair(8, 0.0, 0.0, seed=7)
    ws = build_weight_set(pair, 0.3)
    n, m, trials = 10, 64, 10**5
    gain = pair.g * complex(pair.h_su @ ws.tx_weight(1))
    sigma_r_sq = abs(gain) ** 2 / m
    sigma_n_sq = sigma_r_sq / 10 ** (-5.0 / 10.0)
    rng = np.random.default_rng(77)
    sym = (rng.standard_normal((trials, m)) + 1j * rng.standard_normal((trials, m))) / math.sqrt(2)
    samples = np.fft.ifft(sym, axis=1)[:, :n]
    noise = math.sqrt(sigma_n_sq / 2) * (
        rng.standard_normal((trials, n)) + 1j * rng.standard_normal((trials, n))
    )
    energies = np.sum(np.abs(gain * samples + noise) ** 2, axis=1)
    scale = sigma_r_sq + sigma_n_sq
    mean_err = abs(energies.mean() - n * scale) / (n * scale)
    var_err = abs(energies.var() - n * scale**2) / (n * scale**2)
    assert mean_err < 0.01
    assert var_err < 0.05
    _report(7, f"(mean err {mean_err:.4f}, var err {var_err:.4f})")


def test_criterion_8_pu_invariance():
    worst = 0.0
    for k, alpha, rho_mag, phase, seed in _random_tuples(100, seed=808):
        pair = make_correlated_pair(k, rho_mag, phase, seed=seed)
        ws = build_weight_set(pair, alpha)
        p0 = abs(pair.h_pu @ ws.tx_weight(0)) ** 2
        p1 = abs(pair.h_pu @ ws.tx_weight(1)) ** 2
        rel = abs(p0 - p1) / p0
        worst = max(worst, rel)
        assert rel < 1e-9
    _report(8, f"(worst relative difference {worst:.2e})")


def test_criterion_9_baseline_anchor():
    points = sweep_sum_rate(30.0, 0.5, 1.0, alpha_grid=[0.0])
    rate = points[0].pu_rate
    assert rate == pytest.approx(BASELINE_30DB, abs=1e-12)
    assert f"{rate:.2f}" == "9.97"
    _report(9, f"(alpha=0 rate {rate:.4f} b/s/Hz)")


def test_criterion_10_qualitative_sum_rate_curves():
    start = time.monotonic()
    peak_gain = {}
    for rho in (0.1, 0.5, 0.9):
        pts = sweep_sum_rate(30.0, rho, 1.0)
        totals = [pt.total for pt in pts]
        peak = int(np.argmax(totals))
        # rise above the small-alpha end to an interior peak, then decline
        assert 0 < peak < len(totals) - 1
        assert totals[peak] > totals[0]
        assert totals[-1] < totals[peak]
        peak_gain[rho] = totals[peak] - BASELINE_30DB
    assert peak_gain[0.1] > 0.0  # low correlation beats the baseline
    assert peak_gain[0.9] < peak_gain[0.1]
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(
        10,
        "(peak gains over baseline: "
        + ", ".join(f"rho={r}: {g:+.3f}" for r, g in peak_gain.items())
        + f"; {elapsed:.1f}s)",
    )
