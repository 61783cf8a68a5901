import functools
import math

import mpmath
import numpy as np
import pytest

from intermod import cli, detector, find_n_alpha
from intermod.channel import make_correlated_pair
from intermod.detector import (
    DEFAULT_PE_TARGET,
    db_to_linear,
    log_error_probability,
    optimal_threshold,
)
from intermod.simulator import ScenarioConfig, run_ber_grid
from intermod.sumrate import SumRatePoint, default_alpha_grid, su_snr, sweep_sum_rates
from intermod.weights import build_weight_set
from test_detector import mpmath_error_probability, pe

GAMMA_30DB = 1000.0


def bisect_n_alpha(snr, pe_target, n_max):
    """Reference search: plain bisection over [1, n_max] on the same bracket."""
    if snr <= 0.0:
        return None
    log_target = math.log(pe_target)

    @functools.cache
    def meets(n):
        delta = optimal_threshold(n, snr)
        return log_error_probability(n, snr, delta) < log_target

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


def patch_pe(monkeypatch, spy):
    """Route every P_e evaluation through ``spy(n, snr, threshold)``: the search's
    probes call the private core ``detector._log_pe``, and the public function does too."""
    real = detector._log_pe

    def spied(n, snr, threshold):
        spy(n, snr, threshold)
        return real(n, snr, threshold)

    monkeypatch.setattr(detector, "_log_pe", spied)


@pytest.fixture
def pe_calls(monkeypatch):
    """Count the P_e evaluations, public or private, that a test makes."""
    calls = [0]

    def count(*args):
        calls[0] += 1

    patch_pe(monkeypatch, count)
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

    @pytest.mark.parametrize("g, gamma", [(1e6, 1e300), (1e5, 1e299), (1e6, 1e297)])
    def test_overflowing_link_budget_names_gamma_db_and_g(self, g, gamma):
        # both lie in their domains; only their product overflows
        with pytest.raises(ValueError, match=r"gamma_db and g .* overflows"):
            su_snr(0.3, 0.1, g, gamma)


class TestFindNAlpha:
    def test_alpha_zero_unreachable(self):
        assert find_n_alpha(su_snr(0.0, 0.1, 1.0, GAMMA_30DB)) is None

    @pytest.mark.parametrize("snr", [1e-20, 5e-324, 1e-17])
    def test_snr_below_the_threshold_floor_unreachable(self, snr):
        # optimal_threshold cannot place a threshold there; like snr = 0, no N meets a target
        assert find_n_alpha(snr) is None

    def test_near_vacuous_target(self):
        assert find_n_alpha(su_snr(0.2, 0.1, 1.0, GAMMA_30DB), pe_target=0.49) == 1

    @pytest.mark.parametrize("snr, want", [(1e3, 1), (1.0, None)])
    def test_n_max_one_evaluates_n_one_once(self, snr, want, pe_calls):
        assert find_n_alpha(snr, 1e-2, n_max=1) == want
        assert pe_calls[0] == 1

    def test_cap_returns_none(self):
        # SU SNR too low for the target within a tiny cap
        assert find_n_alpha(su_snr(1e-4, 0.9, 1.0, GAMMA_30DB), n_max=100) is None

    def test_result_is_minimal(self):
        alpha, rho, g = 0.05, 0.1, 1.0
        snr = su_snr(alpha, rho, g, GAMMA_30DB)
        n_alpha = find_n_alpha(snr)

        def pe_at(n):
            return pe(n, snr, optimal_threshold(n, snr))

        assert pe_at(n_alpha) < 1e-5
        if n_alpha > 1:
            assert pe_at(n_alpha - 1) >= 1e-5

    def test_monotone_in_alpha(self):
        alphas = (0.01, 0.05, 0.1, 0.3, 0.6)
        ns = [find_n_alpha(su_snr(a, 0.1, 1.0, GAMMA_30DB)) for a in alphas]
        assert all(n is not None for n in ns)
        for earlier, later in zip(ns, ns[1:]):
            assert later <= earlier

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

    def test_every_probe_threshold_is_optimal_threshold_bit_for_bit(self, monkeypatch):
        # each probe's threshold comes from the detector's delta* core, as optimal_threshold's does
        probes = []
        patch_pe(monkeypatch, lambda *probe: probes.append(probe))
        rng = np.random.default_rng(1718)
        for _ in range(100):
            snr = 10 ** rng.uniform(-6.0, 4.0)
            n_max = int(10 ** rng.uniform(0.0, 6.0))  # the first probe is at n_max
            find_n_alpha(snr, 10 ** rng.uniform(-12.0, -1.0), n_max)
        assert len(probes) > 150
        for n, snr, threshold in probes:
            assert threshold == optimal_threshold(n, snr), (n, snr)


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

    def test_same_n_alpha_as_bisection_on_random_points(self, pe_calls):
        # snr log-uniform from just above the threshold floor (~1.1e-16) to 1e5; below about
        # 1e-8 rounding leaves the large-deviation model no gap, and those searches bisect
        rng = np.random.default_rng(2201)
        degenerate = 0
        for _ in range(3000):
            snr = 10 ** rng.uniform(math.log10(1.2e-16), 5.0)
            pe_target = 10 ** rng.uniform(-15.0, math.log10(0.49))
            n_max = round(10 ** rng.uniform(0.0, 6.0))
            want = bisect_n_alpha(snr, pe_target, n_max)
            pe_calls[0] = 0
            assert find_n_alpha(snr, pe_target, n_max) == want, (snr, pe_target, n_max)
            # the n_max probe, 4 model probes, then bisection
            assert pe_calls[0] <= 5 + math.ceil(math.log2(n_max)), (snr, pe_target, n_max)
            degenerate += 1e-12 <= snr <= 1e-8
        assert degenerate > 300

    def test_half_the_bisection_evaluations_at_30db(self, pe_calls):
        counts = {}
        for search in (bisect_n_alpha, find_n_alpha):
            pe_calls[0] = 0
            for alpha in default_alpha_grid():
                search(su_snr(alpha, 0.1, 1.0, GAMMA_30DB), 1e-5, 10**6)
            counts[search] = pe_calls[0]
        assert counts[find_n_alpha] < 0.5 * counts[bisect_n_alpha]

    def test_model_probes_pass_through_the_last_evaluation(self, pe_calls):
        # the 0 dB default curve, one search per point: each model probe is shifted through
        # the last exact f, the first through f(n_max); without that first shift it costs 606
        for alpha in default_alpha_grid():
            find_n_alpha(su_snr(alpha, 0.5, 1.0, 1.0))
        assert pe_calls[0] <= 566


class TestSweepAgainstPerPoint:
    """The sweep solves in rising SU-SNR order with each search capped by the last
    N_alpha found; its rows must be the per-point searches' answers in grid order."""

    @pytest.mark.parametrize("n_max", [1, 2, 100, 10**6])
    def test_same_n_alpha_as_a_search_per_point(self, n_max):
        rng = np.random.default_rng([1800, n_max])
        # one loose curve that reaches N = 1, so later searches have no room below it
        curves = [(40.0, 1e-2, 0.1, 2.0)] + [
            (rng.uniform(-10.0, 40.0), 10 ** rng.uniform(-12.0, -2.0), rng.uniform(0.0, 0.9),
             0.0 if rng.random() < 0.1 else math.exp(rng.uniform(math.log(0.5), math.log(2.0))))
            for _ in range(12)
        ]
        kinds = set()
        for gamma_db, pe_target, rho, g in curves:
            alphas = [0.0, *10 ** rng.uniform(-4.0, math.log10(0.99), 24)]
            alphas += list(rng.choice(alphas, 5))  # duplicates, so tied SNRs
            rng.shuffle(alphas)
            gamma = 10.0 ** (gamma_db / 10.0)
            want = [find_n_alpha(su_snr(a, rho, g, gamma), pe_target, n_max) if a else None
                    for a in alphas]
            pts = sweep_sum_rates(gamma_db, [rho], [g], alpha_grid=alphas, pe_target=pe_target,
                                  n_max=n_max)[0]
            assert [pt.alpha for pt in pts] == alphas
            assert [pt.n_alpha for pt in pts] == want, (gamma_db, pe_target, rho, g)
            met = [n for n in want if n is not None]
            kinds.add("none reachable" if not met else "tie" if len(set(met)) < len(met)
                      else "all distinct")
        assert "none reachable" in kinds and "tie" in kinds

    def test_searches_stop_below_the_last_n_alpha_found(self, pe_calls):
        # the 30 dB default curve: per point every search probes N = n_max first
        for alpha in default_alpha_grid():
            find_n_alpha(su_snr(alpha, 0.1, 1.0, GAMMA_30DB))
        per_point, pe_calls[0] = pe_calls[0], 0
        sweep_sum_rates(30.0, [0.1], [1.0])
        assert pe_calls[0] <= 0.7 * per_point


def per_curve_loop(gamma_db, rho, g, alphas, pe_target, n_max):
    """Reference: one curve solved on its own in rising SU-SNR order, each search closed
    at the last N_alpha found, taken as meeting the target unevaluated."""
    gamma = db_to_linear(gamma_db)
    snrs = {i: su_snr(a, rho, g, gamma) for i, a in enumerate(alphas) if a != 0.0}
    n_alphas = [None] * len(alphas)
    met = None
    for i in sorted(snrs, key=snrs.get):
        met = detector._n_alpha(snrs[i], math.log(pe_target), n_max, met)
        n_alphas[i] = met
    return n_alphas


class TestSweepsAcrossCurves:
    """All curves of one call share the cap: N_alpha depends on the SU SNR alone."""

    # the seed-7 sumrate-highsnr grid of perfbench/workloads.py, at 30 dB
    HIGHSNR_RHO = [0.230629, 0.692875]
    HIGHSNR_G = [0.600312, 0.832926, 1.180999, 1.703708]
    # the seed-7 sumrate-lowsnr grid, at 0 dB
    LOWSNR_RHO = [0.461259]
    LOWSNR_G = [0.726846, 1.441498]

    @pytest.mark.parametrize("n_max", [1, 2, 100, 10**6])
    def test_same_rows_as_each_point_and_each_curve(self, n_max):
        rng = np.random.default_rng([2000, n_max])
        kinds = set()
        for gamma_db, pe_target in [(40.0, 1e-2), (0.0, 1e-5),
                                    (rng.uniform(-5.0, 35.0), 10 ** rng.uniform(-9.0, -2.0))]:
            rho_grid = list(rng.uniform(0.0, 0.9, 2))
            rho_grid.append(rho_grid[0])  # a duplicate curve, so tied SNRs across curves
            # g = 0: a curve that nothing reaches; the last g repeats
            g_grid = [0.0, *np.exp(rng.uniform(math.log(0.5), math.log(2.0), 2))]
            g_grid.append(g_grid[-1])
            alphas = [0.0, *10 ** rng.uniform(-4.0, math.log10(0.99), 14)]
            alphas += list(rng.choice(alphas, 3))
            rng.shuffle(alphas)
            gamma = db_to_linear(gamma_db)
            curves = sweep_sum_rates(gamma_db, rho_grid, g_grid, alpha_grid=alphas,
                                     pe_target=pe_target, n_max=n_max)
            assert len(curves) == len(rho_grid) * len(g_grid)
            pairs = [(rho, g) for rho in rho_grid for g in g_grid]
            for (rho, g), pts in zip(pairs, curves):
                want = [find_n_alpha(su_snr(a, rho, g, gamma), pe_target, n_max) if a else None
                        for a in alphas]
                assert [pt.alpha for pt in pts] == alphas
                assert [pt.n_alpha for pt in pts] == want, (gamma_db, pe_target, rho, g)
                assert pts == sweep_sum_rates(gamma_db, [rho], [g], alpha_grid=alphas,
                                              pe_target=pe_target, n_max=n_max)[0]
                met = [n for n in want if n is not None]
                kinds.add("none reachable" if not met else "tie" if len(set(met)) < len(met)
                          else "all distinct")
        assert "none reachable" in kinds and "tie" in kinds

    def test_shared_cap_cuts_the_evaluations_of_a_sweep_per_curve(self, pe_calls):
        for rho in self.HIGHSNR_RHO:
            for g in self.HIGHSNR_G:
                sweep_sum_rates(30.0, [rho], [g])
        per_curve, pe_calls[0] = pe_calls[0], 0
        sweep_sum_rates(30.0, self.HIGHSNR_RHO, self.HIGHSNR_G)
        # absolute counts: a ratio would hide a search that got dearer on both sides
        assert pe_calls[0] < per_curve <= 3050

    @pytest.mark.parametrize("gamma_db, rho_grid, g_grid, bound", [
        (30.0, HIGHSNR_RHO, HIGHSNR_G, 2550), (0.0, LOWSNR_RHO, LOWSNR_G, 950),
    ])
    def test_evaluations_on_the_benchmark_grids(self, gamma_db, rho_grid, g_grid, bound,
                                                pe_calls):
        sweep_sum_rates(gamma_db, rho_grid, g_grid)
        assert 0 < pe_calls[0] <= bound

    @pytest.mark.parametrize("gamma_db, rho, g", [(0.0, 0.5, 1.0), (30.0, 0.1, 1.0)])
    def test_one_curve_costs_what_it_cost_alone(self, gamma_db, rho, g, pe_calls):
        alphas = list(default_alpha_grid())
        want = per_curve_loop(gamma_db, rho, g, alphas, DEFAULT_PE_TARGET, 10**6)
        alone, pe_calls[0] = pe_calls[0], 0
        pts = sweep_sum_rates(gamma_db, [rho], [g])[0]
        assert [pt.n_alpha for pt in pts] == want
        assert pe_calls[0] == alone


class TestSearchAgainstSimulator:
    """N_alpha from the search, checked by Monte Carlo at the same SU SNR."""

    PE_TARGET, BITS = 1e-2, 40_000

    @pytest.mark.parametrize("snr_db", [6.0, 8.0, 10.0])
    def test_n_alpha_meets_the_target_and_n_alpha_minus_one_misses_it(self, snr_db):
        snr = db_to_linear(snr_db)
        n_alpha = find_n_alpha(snr, self.PE_TARGET)
        band = 3 * math.sqrt(self.PE_TARGET * (1 - self.PE_TARGET) / self.BITS)

        def pe_at(n):
            return pe(n, snr, optimal_threshold(n, snr))

        # the two P_e lie more than the band apart, so an off-by-one search is seen
        assert pe_at(n_alpha - 1) - pe_at(n_alpha) > band

        def ber(n):
            cfg = ScenarioConfig(n_samples=n, snr_db=snr_db, n_bits=self.BITS,
                                 master_seed=int(snr_db))
            return run_ber_grid([cfg])[0].ber

        assert ber(n_alpha) < self.PE_TARGET + band
        assert ber(n_alpha - 1) > self.PE_TARGET - band


class TestSweepSumRate:
    """Rows of one curve; test_criterion_9_baseline_anchor and
    test_criterion_10_qualitative_sum_rate_curves check the baseline and the curves' shape."""

    def test_alpha_zero_baseline_anchor(self):
        for rho in (0.1, 0.5, 0.9):
            pts = sweep_sum_rates(30.0, [rho], [1.0], alpha_grid=[0.0])[0]
            assert pts[0].pu_rate == pytest.approx(math.log2(1 + GAMMA_30DB), abs=1e-12)
            assert pts[0].su_rate == 0.0
            assert pts[0].n_alpha is None

    @pytest.mark.parametrize("alpha, rho", [
        (1e-3, 0.0), (0.05, 0.3), (0.3, 0.5), (0.6, 0.8), (0.9, 0.1), (0.5, 0.95),
    ])
    def test_pu_rate_against_the_solved_xi(self, alpha, rho):
        # log2(1 + gamma (1 - alpha) / xi), xi from the solved weight vectors
        xi = build_weight_set(make_correlated_pair(8, rho, 0.7, seed=59), alpha).xi
        pt = sweep_sum_rates(30.0, [rho], [1.0], alpha_grid=[alpha])[0][0]
        assert pt.pu_rate == pytest.approx(math.log2(1 + GAMMA_30DB * (1 - alpha) / xi),
                                           rel=1e-12)

    def test_point_fields_consistent(self):
        pts = sweep_sum_rates(30.0, [0.1], [1.0], alpha_grid=[0.05, 0.2])[0]
        for pt in pts:
            assert isinstance(pt, SumRatePoint)
            assert pt.total == pytest.approx(pt.pu_rate + pt.su_rate, abs=1e-12)
            if pt.n_alpha is not None:
                assert pt.su_rate == pytest.approx(1.0 / pt.n_alpha, abs=1e-15)

    def test_point_is_an_immutable_record_of_the_csv_columns(self, tmp_path):
        out = tmp_path / "s.csv"
        assert cli.main(["sumrate", "--rho", "0.1", "--alpha", "0.05", "--out", str(out)]) == 0
        header = next(line for line in out.read_text().splitlines() if not line.startswith("#"))
        assert ("rho_mag", "g", *SumRatePoint._fields) == tuple(header.split(","))
        assert SumRatePoint._fields == ("alpha", "n_alpha", "pu_rate", "su_rate", "total")
        pt = sweep_sum_rates(30.0, [0.1], [1.0], alpha_grid=[0.05])[0][0]
        with pytest.raises(AttributeError):
            pt.total = 0.0
        with pytest.raises(AttributeError):  # no __dict__ to take a new field
            pt.extra = 0.0
        twin = SumRatePoint(*pt)
        assert twin == pt and twin is not pt and hash(twin) == hash(pt)

    @pytest.mark.parametrize("alpha_grid", [None, [0.0, 0.3, 0.6]])
    def test_a_sweep_checks_each_value_once(self, alpha_grid, check_calls):
        # each grid point, the target, the cap and gamma_db; the closed forms, the searches and
        # their P_e probes check nothing again
        rho_grid, g_grid = [0.1, 0.5, 0.9], [0.5, 1.0]
        sweep_sum_rates(30.0, rho_grid, g_grid, alpha_grid)
        alphas = default_alpha_grid() if alpha_grid is None else alpha_grid
        assert 0 < check_calls[0] <= len(rho_grid) + len(g_grid) + len(alphas) + 3

    def test_unreachable_target_is_pure_loss(self):
        # xi > 1 with no SU rate: total must fall below the baseline
        pts = sweep_sum_rates(30.0, [0.9], [1.0], alpha_grid=[1e-4], n_max=100)[0]
        assert pts[0].n_alpha is None
        assert pts[0].total < math.log2(1 + GAMMA_30DB)

    def test_default_alpha_grid(self):
        grid = default_alpha_grid()
        assert isinstance(grid, list) and len(grid) == 200
        assert grid[0] == pytest.approx(1e-4)
        assert grid[-1] == pytest.approx(0.99)
        assert np.all(np.diff(grid) > 0)
        # libm's pow over numpy's exponents; float(e), so numpy's own power is not the one taken
        exponents = np.linspace(-4, math.log10(0.99), 200)
        assert grid == [10.0 ** float(e) for e in exponents]
        # numpy's vectorized power may differ in the last ulp, but not in a printed digit; the
        # benchmark's sumrate oracle takes the numpy grid
        numpy_grid = np.logspace(-4, math.log10(0.99), 200)
        assert [f"{a:.12g}" for a in grid] == [f"{a:.12g}" for a in numpy_grid]
