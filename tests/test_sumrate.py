import math

import numpy as np
import pytest

from intermod.channel import make_correlated_pair
from intermod.detector import error_probability, optimal_threshold
from intermod.simulator import ScenarioConfig, run_ber
from intermod.sumrate import (
    SumRatePoint,
    default_alpha_grid,
    find_n_alpha,
    su_snr,
    sweep_sum_rate,
)
from intermod.weights import build_weight_set

GAMMA_30DB = 1000.0


class TestSuSnr:
    @pytest.mark.parametrize("alpha", [0.0, 0.05, 0.3, 0.9])
    @pytest.mark.parametrize("g", [0.5, 1.0, 2.0])
    def test_matches_solved_response_at_rho_zero(self, alpha, g):
        # the closed form against the simulator's |g h_su^T omega1 / sqrt(xi)|^2
        pair = make_correlated_pair(8, 0.0, 0.0, g=g, seed=41)
        ws = build_weight_set(pair, alpha)
        solved = abs(pair.g * complex(pair.h_su @ ws.tx_weight(1))) ** 2
        assert su_snr(alpha, 0.0, g, 1.0) == pytest.approx(solved, rel=1e-9, abs=1e-15)


class TestFindNAlpha:
    def test_alpha_zero_unreachable(self):
        assert find_n_alpha(0.0, 0.1, 1.0, GAMMA_30DB) is None

    def test_near_vacuous_target(self):
        assert find_n_alpha(0.2, 0.1, 1.0, GAMMA_30DB, pe_target=0.49) == 1

    def test_cap_returns_none(self):
        # SU SNR too low for the target within a tiny cap
        assert find_n_alpha(1e-4, 0.9, 1.0, GAMMA_30DB, n_max=100) is None

    def test_result_is_minimal(self):
        alpha, rho, g = 0.05, 0.1, 1.0
        n_alpha = find_n_alpha(alpha, rho, g, GAMMA_30DB)
        snr = su_snr(alpha, rho, g, GAMMA_30DB)

        def pe(n):
            return error_probability(n, snr, 1.0, optimal_threshold(n, snr, 1.0))

        assert pe(n_alpha) < 1e-5
        if n_alpha > 1:
            assert pe(n_alpha - 1) >= 1e-5

    def test_monotone_in_alpha(self):
        alphas = (0.01, 0.05, 0.1, 0.3, 0.6)
        ns = [find_n_alpha(a, 0.1, 1.0, GAMMA_30DB) for a in alphas]
        assert all(n is not None for n in ns)
        for earlier, later in zip(ns, ns[1:]):
            assert later <= earlier

    def test_m_cancels(self):
        # the sum-rate model takes no subcarrier count: the waveform simulator's
        # P_e depends on N and the SNR alone, whatever m is
        snr = 10 ** (-5.0 / 10.0)
        want = error_probability(50, snr, 1.0, optimal_threshold(50, snr, 1.0))
        for m in (16, 1024):
            cfg = ScenarioConfig(n_samples=50, snr_db=-5.0, n_bits=1, m_subcarriers=m)
            assert run_ber(cfg).analytic_pe == pytest.approx(want, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            find_n_alpha(0.1, 0.1, 1.0, GAMMA_30DB, pe_target=0.6)
        with pytest.raises(ValueError):
            find_n_alpha(0.1, 0.1, 1.0, GAMMA_30DB, n_max=0)


class TestSweepSumRate:
    def test_alpha_zero_baseline_anchor(self):
        for rho in (0.1, 0.5, 0.9):
            pts = sweep_sum_rate(30.0, rho, 1.0, alpha_grid=[0.0])
            assert pts[0].pu_rate == pytest.approx(math.log2(1 + GAMMA_30DB), abs=1e-12)
            assert pts[0].su_rate == 0.0
            assert pts[0].n_alpha is None

    def test_baseline_displays_as_9_97(self):
        pts = sweep_sum_rate(30.0, 0.1, 1.0, alpha_grid=[0.0])
        assert round(pts[0].pu_rate, 2) == 9.97

    def test_point_fields_consistent(self):
        pts = sweep_sum_rate(30.0, 0.1, 1.0, alpha_grid=[0.05, 0.2])
        for pt in pts:
            assert isinstance(pt, SumRatePoint)
            assert pt.total == pytest.approx(pt.pu_rate + pt.su_rate, abs=1e-12)
            if pt.n_alpha is not None:
                assert pt.su_rate == pytest.approx(1.0 / pt.n_alpha, abs=1e-15)

    def test_unreachable_target_is_pure_loss(self):
        # xi > 1 with no SU rate: total must fall below the baseline
        pts = sweep_sum_rate(30.0, 0.9, 1.0, alpha_grid=[1e-4], n_max=100)
        assert pts[0].n_alpha is None
        assert pts[0].total < math.log2(1 + GAMMA_30DB)

    def test_low_correlation_peak_beats_baseline(self):
        pts = sweep_sum_rate(30.0, 0.1, 1.0)
        assert max(pt.total for pt in pts) > math.log2(1 + GAMMA_30DB)

    def test_curve_shape_rise_then_fall(self):
        for rho in (0.1, 0.5, 0.9):
            pts = sweep_sum_rate(30.0, rho, 1.0)
            totals = [pt.total for pt in pts]
            peak = int(np.argmax(totals))
            assert 0 < peak < len(totals) - 1
            assert totals[peak] > totals[0]
            assert totals[-1] < totals[peak]

    def test_default_alpha_grid(self):
        grid = default_alpha_grid()
        assert len(grid) == 200
        assert grid[0] == pytest.approx(1e-4)
        assert grid[-1] == pytest.approx(0.99)
        assert np.all(np.diff(grid) > 0)
