import functools
import math

import mpmath
import numpy as np
import pytest

from intermod import sumrate
from intermod.channel import make_correlated_pair
from intermod.detector import db_to_linear, error_probability, optimal_threshold
from intermod.simulator import ScenarioConfig, run_ber_grid
from intermod.sumrate import (
    SumRatePoint,
    default_alpha_grid,
    find_n_alpha,
    su_snr,
    sweep_sum_rate,
)
from intermod.weights import build_weight_set
from test_detector import mpmath_error_probability

GAMMA_30DB = 1000.0


def bisect_n_alpha(snr, pe_target, n_max):
    """Reference search: plain bisection over [1, n_max] on the same bracket."""
    if snr <= 0.0:
        return None
    log_target = math.log(pe_target)

    @functools.cache
    def meets(n):
        delta = optimal_threshold(n, snr)
        return sumrate.log_error_probability(n, snr, delta) < log_target

    if not meets(n_max):
        return None
    if meets(1):
        return 1
    lo, hi = 1, n_max
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if meets(mid):
            hi = mid
        else:
            lo = mid
    return hi


@pytest.fixture
def pe_calls(monkeypatch):
    """Count the P_e evaluations the sum-rate module makes."""
    calls = [0]
    real = sumrate.log_error_probability

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(sumrate, "log_error_probability", counted)
    return calls


class TestSuSnr:
    @pytest.mark.parametrize("alpha", [0.0, 0.05, 0.3, 0.9])
    @pytest.mark.parametrize("g", [0.5, 1.0, 2.0])
    def test_matches_solved_response_at_rho_zero(self, alpha, g):
        # the closed form against the simulator's |g h_su^T omega1 / sqrt(xi)|^2
        pair = make_correlated_pair(8, 0.0, 0.0, seed=41)
        ws = build_weight_set(pair, alpha)
        solved = abs(g * complex(pair.h_su @ ws.tx_weight(1))) ** 2
        assert su_snr(alpha, 0.0, g, 1.0) == pytest.approx(solved, rel=1e-9, abs=1e-15)

    @pytest.mark.parametrize("name, g, gamma", [
        ("g", -1.0, 1000.0), ("g", math.nan, 1000.0), ("g", math.inf, 1000.0),
        ("gamma", 1.0, -1.0), ("gamma", 1.0, math.nan), ("gamma", 1.0, math.inf),
    ])
    def test_outside_domain_rejected(self, name, g, gamma):
        with pytest.raises(ValueError, match=f"{name} must be nonnegative and finite"):
            su_snr(0.3, 0.5, g, gamma)


class TestFindNAlpha:
    def test_alpha_zero_unreachable(self):
        assert find_n_alpha(su_snr(0.0, 0.1, 1.0, GAMMA_30DB)) is None

    def test_near_vacuous_target(self):
        assert find_n_alpha(su_snr(0.2, 0.1, 1.0, GAMMA_30DB), pe_target=0.49) == 1

    def test_cap_returns_none(self):
        # SU SNR too low for the target within a tiny cap
        assert find_n_alpha(su_snr(1e-4, 0.9, 1.0, GAMMA_30DB), n_max=100) is None

    def test_result_is_minimal(self):
        alpha, rho, g = 0.05, 0.1, 1.0
        snr = su_snr(alpha, rho, g, GAMMA_30DB)
        n_alpha = find_n_alpha(snr)

        def pe(n):
            return error_probability(n, snr, optimal_threshold(n, snr))

        assert pe(n_alpha) < 1e-5
        if n_alpha > 1:
            assert pe(n_alpha - 1) >= 1e-5

    def test_monotone_in_alpha(self):
        alphas = (0.01, 0.05, 0.1, 0.3, 0.6)
        ns = [find_n_alpha(su_snr(a, 0.1, 1.0, GAMMA_30DB)) for a in alphas]
        assert all(n is not None for n in ns)
        for earlier, later in zip(ns, ns[1:]):
            assert later <= earlier

    def test_m_cancels(self):
        # the sum-rate model takes no subcarrier count: the waveform simulator's
        # P_e depends on N and the SNR alone, whatever m is
        snr = 10 ** (-5.0 / 10.0)
        want = error_probability(50, snr, optimal_threshold(50, snr))
        for m in (16, 1024):
            cfg = ScenarioConfig(n_samples=50, snr_db=-5.0, n_bits=1, m_subcarriers=m)
            assert run_ber_grid([cfg])[0].analytic_pe == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("pe_target", [1e-17, 1e-25, 1e-40])
    @pytest.mark.parametrize("alpha", [0.05, 0.2, 0.5])
    @pytest.mark.parametrize("gamma", [1.0, 3.0, 10.0])
    def test_deep_targets_bracketed_by_mpmath(self, gamma, alpha, pe_target):
        # below ~1e-16 the false-alarm tail Q must not be formed as 1 - P
        snr = su_snr(alpha, 0.3, 1.0, gamma)
        n_alpha = find_n_alpha(snr, pe_target)
        assert n_alpha > 1
        assert mpmath_error_probability(n_alpha, snr) < pe_target
        assert mpmath_error_probability(n_alpha - 1, snr) >= pe_target

    def test_subnormal_target(self):
        snr = su_snr(0.5, 0.3, 1.0, 10.0)
        n_alpha = find_n_alpha(snr, pe_target=1e-320)
        assert mpmath_error_probability(n_alpha, snr) < mpmath.mpf(1e-320)
        assert mpmath_error_probability(n_alpha - 1, snr) >= mpmath.mpf(1e-320)

    def test_domain(self):
        with pytest.raises(ValueError):
            find_n_alpha(su_snr(0.1, 0.1, 1.0, GAMMA_30DB), pe_target=0.6)
        with pytest.raises(ValueError):
            find_n_alpha(su_snr(0.1, 0.1, 1.0, GAMMA_30DB), n_max=0)

    @pytest.mark.parametrize("snr", [-1.0, -1e-300, math.nan, math.inf])
    def test_snr_outside_domain_rejected(self, snr):
        with pytest.raises(ValueError, match="snr must be nonnegative"):
            find_n_alpha(snr)

    def test_n_max_above_domain_rejected(self):
        with pytest.raises(ValueError, match="n_max must be >= 1 and <= 1000000"):
            find_n_alpha(su_snr(0.1, 0.1, 1.0, GAMMA_30DB), n_max=10**6 + 1)

    @pytest.mark.parametrize("n_max", [153.5, 153.0, 152.9])
    def test_non_integral_n_max_rejected(self, n_max):
        # a float cap would come back as N_alpha itself: 153.5 for 153
        assert find_n_alpha(1.0, 1e-5, np.int64(153)) == 153
        with pytest.raises(ValueError, match="n_max must be an integer"):
            find_n_alpha(1.0, 1e-5, n_max)
        with pytest.raises(ValueError, match="n_max must be an integer"):
            sweep_sum_rate(10.0, 0.1, 1.0, alpha_grid=[0.0], n_max=n_max)


class TestSearchAgainstBisection:
    ALPHAS = [0.0, *np.logspace(-4, math.log10(0.99), 20)]

    @pytest.mark.parametrize("n_max", [100, 10**6])
    @pytest.mark.parametrize("pe_target", [1e-2, 1e-5, 1e-9, 0.49])
    @pytest.mark.parametrize("gamma_db", [-10.0, 0.0, 10.0, 20.0, 30.0, 40.0])
    def test_same_n_alpha_within_eval_bound(self, gamma_db, pe_target, n_max, pe_calls):
        rng = np.random.default_rng([int(gamma_db) + 10, n_max, int(-math.log10(pe_target))])
        rho, g = rng.uniform(0.0, 0.9), math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
        gamma = 10.0 ** (gamma_db / 10.0)
        bound = 2 * math.ceil(math.log2(n_max)) + 2
        for alpha in self.ALPHAS:
            snr = su_snr(alpha, rho, g, gamma)
            want = bisect_n_alpha(snr, pe_target, n_max)
            pe_calls[0] = 0
            assert find_n_alpha(snr, pe_target, n_max) == want
            assert pe_calls[0] <= bound

    def test_half_the_bisection_evaluations_at_30db(self, pe_calls):
        counts = {}
        for search in (bisect_n_alpha, find_n_alpha):
            pe_calls[0] = 0
            for alpha in default_alpha_grid():
                search(su_snr(alpha, 0.1, 1.0, GAMMA_30DB), 1e-5, 10**6)
            counts[search] = pe_calls[0]
        assert counts[find_n_alpha] < 0.5 * counts[bisect_n_alpha]


class TestSearchAgainstSimulator:
    """N_alpha from the search, checked by Monte Carlo at the same SU SNR."""

    PE_TARGET, BITS = 1e-2, 40_000

    @pytest.mark.parametrize("snr_db", [6.0, 8.0, 10.0])
    def test_n_alpha_meets_the_target_and_n_alpha_minus_one_misses_it(self, snr_db):
        snr = db_to_linear(snr_db)
        n_alpha = find_n_alpha(snr, self.PE_TARGET)
        band = 3 * math.sqrt(self.PE_TARGET * (1 - self.PE_TARGET) / self.BITS)

        def pe(n):
            return error_probability(n, snr, optimal_threshold(n, snr))

        # the two P_e lie more than the band apart, so an off-by-one search is seen
        assert pe(n_alpha - 1) - pe(n_alpha) > band

        def ber(n):
            cfg = ScenarioConfig(n_samples=n, snr_db=snr_db, n_bits=self.BITS,
                                 master_seed=int(snr_db))
            return run_ber_grid([cfg])[0].ber

        assert ber(n_alpha) < self.PE_TARGET + band
        assert ber(n_alpha - 1) > self.PE_TARGET - band


class TestSweepSumRate:
    @pytest.mark.parametrize("kwargs, message", [
        ({"g": -1.0}, "g must be nonnegative"),
        ({"rho_mag": 1.0}, "rho_mag must be in"),
        ({"rho_mag": 1.5}, "rho_mag must be in"),
        ({"pe_target": 0.0}, "pe_target"),
        ({"pe_target": 0.5}, "pe_target"),
        ({"pe_target": 0.9}, "pe_target"),
        ({"g": math.inf}, "g must be nonnegative"),
        ({"g": math.nan}, "g must be nonnegative"),
    ])
    def test_bad_input_rejected_without_any_search(self, kwargs, message):
        args = {"gamma_db": 10.0, "rho_mag": 0.1, "g": 1.0, **kwargs}
        with pytest.raises(ValueError, match=message):
            sweep_sum_rate(alpha_grid=[0.0], **args)

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
