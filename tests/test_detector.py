import functools
import math
import time

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaincinv, gammainccinv

from intermod import detector
from intermod.detector import (
    db_to_linear,
    energy_pdf,
    error_probability,
    log_error_probability,
    log_gamma_tails,
    mixture_energy_pdf,
    optimal_threshold,
)


def quadrature_lower_gamma(s: float, x: float) -> float:
    """High-precision quadrature oracle for P(s, x), independent of the
    series/continued-fraction implementation.

    Substituting t = x e^{-v} maps the integral onto [0, inf) with a smooth
    exponentially-decaying integrand, and the endpoint magnitude is factored
    out so the quadrature runs near unit scale.  This stays accurate even
    when the original integrand spikes at the endpoint (large s with x << s,
    where P is astronomically small)."""
    mpmath.mp.dps = 40
    lognorm = mpmath.loggamma(s)
    logx = mpmath.log(x)
    log_peak = s * logx - x - lognorm  # log-integrand at v = 0

    def integrand(v):
        return mpmath.e ** (s * (logx - v) - x * mpmath.e ** (-v) - lognorm - log_peak)

    points = [0, mpmath.log(x / s), mpmath.inf] if x > s else [0, mpmath.inf]
    return float(mpmath.quad(integrand, points) * mpmath.e**log_peak)


def mpmath_tails(s: float, x: float):
    """(P, Q) at (s, x) from mpmath at 40 digits, each small tail computed
    directly: Kummer's series for P below the mean, mpmath's upper
    incomplete gamma above it."""
    mpmath.mp.dps = 40
    s, x = mpmath.mpf(s), mpmath.mpf(x)
    if x < s:
        p = mpmath.exp(s * mpmath.log(x) - x - mpmath.loggamma(s + 1)) * mpmath.hyp1f1(1, s + 1, x)
        return p, 1 - p
    q = mpmath.gammainc(s, x, mpmath.inf, regularized=True)
    return 1 - q, q


def mpmath_error_probability(n: int, snr: float):
    """P_e at the optimal threshold, from mpmath_tails."""
    delta = optimal_threshold(n, snr)
    return (mpmath_tails(n, delta)[1] + mpmath_tails(n, delta / (1.0 + snr))[0]) / 2


def scalar_series(s: float, x: float) -> tuple[float, int]:
    """The term-by-term series loop that _lower_gamma_series must match bit
    for bit, and the number of terms it summed.  Reads detector._ITMAX at
    call time, as the code under test does."""
    ap = s
    term = total = 1.0 / s
    for k in range(1, detector._ITMAX + 1):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * detector._EPS:
            return total, k
    raise ValueError("scalar series did not converge")


@functools.cache
def x_converging_at(s: float, k: int) -> float:
    """An x < s + 1 at which the scalar loop stops after exactly k terms.

    The term count grows with x, so bisection finds the x where it steps
    from k - 1 to k."""
    lo, hi = 0.0, s + 1.0
    while math.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        if scalar_series(s, mid)[1] < k:
            lo = mid
        else:
            hi = mid
    assert scalar_series(s, hi)[1] == k
    return hi


class _BlockSpy:
    """Stands in for numpy inside detector and records each series block's
    length, read off the np.full call that starts the block."""

    def __init__(self):
        self.blocks = []

    def __getattr__(self, name):
        return getattr(np, name)

    def full(self, shape, fill):
        self.blocks.append(shape - 1)
        return np.full(shape, fill)


HEAD = detector._HEAD


def lower_p(s: float, x: float) -> float:
    """P(s, x) read off its log."""
    return math.exp(log_gamma_tails(s, x)[0])


class TestRegularizedLowerGamma:
    """P(s, x) and Q(s, x) through log_gamma_tails."""

    @pytest.mark.parametrize("x", [0.5, 1.0, 3.0])
    def test_shape_one_identity(self, x):
        assert lower_p(1.0, x) == pytest.approx(
            1.0 - math.exp(-x), abs=1e-14
        )
        assert log_gamma_tails(1.0, x)[1] == pytest.approx(-x, rel=1e-14)

    def test_shape_two_at_one(self):
        assert lower_p(2.0, 1.0) == pytest.approx(
            1.0 - 2.0 * math.exp(-1.0), abs=1e-14
        )

    def test_limits(self):
        assert log_gamma_tails(5.0, 0.0) == (-math.inf, 0.0)
        assert lower_p(5.0, 1e4) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("s", [1.0, 2.0, 10.0, 50.0, 200.0])
    @pytest.mark.parametrize("frac", [0.1, 1.0, 10.0])
    def test_against_quadrature_oracle(self, s, frac):
        x = frac * s
        want = quadrature_lower_gamma(s, x)
        got = lower_p(s, x)
        assert got == pytest.approx(want, rel=1e-10)

    def test_large_shape_no_overflow(self):
        # Gamma(N) overflows doubles near N=171; the regularized form must not
        p = lower_p(10_000.0, 10_000.0)
        assert 0.4 < p < 0.6
        assert lower_p(1e6, 1e6 + 5e3) == pytest.approx(1.0, abs=1e-3)

    def test_domain(self):
        with pytest.raises(ValueError):
            log_gamma_tails(0.0, 1.0)
        with pytest.raises(ValueError):
            log_gamma_tails(1.0, -1.0)

    @pytest.mark.parametrize("s", [1e-20, 0.5, 1.0 - 1e-12])
    def test_shape_below_one_rejected(self, s):
        # outside the stated accuracy: at s = 1e-20, x = 0.5 the series'
        # ln P rounds to 0 and Q read as its complement came out 0, not 5.6e-21
        with pytest.raises(ValueError, match="s must be >= 1"):
            log_gamma_tails(s, 0.5)

    @pytest.mark.parametrize("s, x", [
        (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf), (-math.inf, 1.0),
    ])
    def test_non_finite_rejected_at_once(self, s, x):
        start = time.monotonic()
        with pytest.raises(ValueError, match="finite"):
            log_gamma_tails(s, x)
        assert time.monotonic() - start < 0.1

    @pytest.mark.parametrize("x", [50.0, 150.0])  # series branch, continued fraction
    def test_exhausted_loop_raises(self, x, monkeypatch):
        monkeypatch.setattr(detector, "_ITMAX", 3)
        with pytest.raises(ValueError, match="did not converge"):
            log_gamma_tails(100.0, x)

    @pytest.mark.parametrize("s", [1.0, 2.5, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6])
    def test_both_tails_against_mpmath_down_to_1e_300(self, s):
        # The prefactor's log is a difference of terms of size s ln s, so
        # its absolute error, and the tails' relative error, is a few ulp
        # of that: about 1e-13 at s = 100 and 2e-9 at s = 1e6.
        rel = 1e-12 + 4 * math.ulp(s * math.log(s + 1.0))
        for tail in (0.3, 1e-5, 1e-17, 1e-50, 1e-150, 1e-300):
            for x in (gammaincinv(s, tail), gammainccinv(s, tail)):
                want_p, want_q = mpmath_tails(s, x)
                assert min(want_p, want_q) < 2 * tail
                log_p, log_q = log_gamma_tails(s, x)
                assert float(abs(mpmath.exp(log_p) / want_p - 1)) < rel, (s, x, "P")
                assert float(abs(mpmath.exp(log_q) / want_q - 1)) < rel, (s, x, "Q")


class TestBlockedSeries:
    """_lower_gamma_series sums a scalar head, then numpy blocks; every
    result must equal the scalar loop's, bit for bit."""

    @staticmethod
    def grid(s):
        ks = (-0.9, 0.0, 0.5, 1.0, 2.0, 4.3, 8.0, 16.0, 64.0)
        xs = [s * (1.0 - k / math.sqrt(s)) for k in ks]
        xs += [math.nextafter(s + 1.0, 0.0), (s + 1.0) * (1.0 - 1e-12), s + 0.5, s * 1e-3]
        return [x for x in xs if 0.0 < x < s + 1.0]

    @pytest.mark.parametrize("block", [detector._BLOCK, 5])
    @pytest.mark.parametrize("s", [1.0, 1.5, 37.3, 1e3, 1e4, 1e5, 1e6])
    def test_matches_scalar_loop(self, s, block, monkeypatch):
        monkeypatch.setattr(detector, "_BLOCK", block)
        for x in self.grid(s):
            want = scalar_series(s, x)[0]
            got = detector._lower_gamma_series(s, x)
            assert got == want, (s, x, got.hex(), want.hex())

    def test_matches_scalar_loop_at_random_points(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            s = float(10.0 ** rng.uniform(0.0, 6.0))
            if rng.random() < 0.5:
                s = float(round(s))
            x = min(s * (1.0 - rng.uniform(-1.0, 10.0) / math.sqrt(s)), s + 0.999)
            if x > 0.0:
                assert detector._lower_gamma_series(s, x) == scalar_series(s, x)[0], (s, x)

    @pytest.mark.parametrize("s", [37.3, 1e3])
    @pytest.mark.parametrize("k", [HEAD - 1, HEAD, HEAD + 1])
    def test_converges_at_head_boundary(self, s, k, monkeypatch):
        x = x_converging_at(s, k)
        spy = _BlockSpy()
        monkeypatch.setattr(detector, "np", spy)
        assert detector._lower_gamma_series(s, x) == scalar_series(s, x)[0]
        assert len(spy.blocks) == (0 if k <= HEAD else 1)  # k = HEAD + 1: first term of a block

    # The stop falls on the last term of a block (k = HEAD + 24) or on the
    # first term of the next (k = HEAD + 25).
    @pytest.mark.parametrize("block", [8, 12, 24])
    @pytest.mark.parametrize("k, stop_in_block", [(HEAD + 24, "last"), (HEAD + 25, "first")])
    def test_converges_at_block_boundary(self, block, k, stop_in_block, monkeypatch):
        s = 1e3
        x = x_converging_at(s, k)
        spy = _BlockSpy()
        monkeypatch.setattr(detector, "_BLOCK", block)
        monkeypatch.setattr(detector, "np", spy)
        assert detector._lower_gamma_series(s, x) == scalar_series(s, x)[0]
        *full, last = spy.blocks
        assert full == [block] * len(full)
        position = k - HEAD - sum(full)  # of the stop, counted from 1 in the last block
        assert position == (block if stop_in_block == "last" else 1)
        assert position <= last

    @pytest.mark.parametrize("block", [detector._BLOCK, 8])
    @pytest.mark.parametrize("itmax", [HEAD - 1, HEAD, HEAD + 1, HEAD + 16, HEAD + 17])
    def test_itmax_caps_head_and_blocks_like_the_loop(self, itmax, block, monkeypatch):
        # with 8-term blocks, HEAD + 16 ends the second block
        cases = [(1e3, x_converging_at(1e3, k))
                 for k in (HEAD - 1, HEAD, HEAD + 1, HEAD + 16, HEAD + 17, HEAD + 40)]
        monkeypatch.setattr(detector, "_BLOCK", block)
        monkeypatch.setattr(detector, "_ITMAX", itmax)
        for s, x in cases:
            try:
                want = scalar_series(s, x)[0]
            except ValueError:
                with pytest.raises(ValueError, match="did not converge"):
                    detector._lower_gamma_series(s, x)
            else:
                assert detector._lower_gamma_series(s, x) == want


class TestDomainOfN:
    def test_shape_above_n_max_rejected(self):
        assert log_gamma_tails(1e6, 1e6)[0] < 0.0
        with pytest.raises(ValueError, match="<= 1000000"):
            log_gamma_tails(1e6 + 1.0, 1e6)
        with pytest.raises(ValueError, match="<= 1000000"):
            log_gamma_tails(1e11, 1e11)

    def test_error_probability_above_n_max_rejected(self):
        snr = db_to_linear(-40.0)
        with pytest.raises(ValueError, match="<= 1000000"):
            error_probability(10**9, snr, optimal_threshold(10**9, snr))


class TestEnergyPdf:
    def test_shape_one_is_exponential(self):
        eps = np.linspace(0.0, 5.0, 50)
        np.testing.assert_allclose(
            energy_pdf(eps, 1, 2.0), np.exp(-eps / 2.0) / 2.0, atol=1e-14
        )

    def test_moments(self):
        n, scale = 7, 0.3
        mean = quad(lambda e: e * energy_pdf(e, n, scale), 0, 60)[0]
        second = quad(lambda e: e * e * energy_pdf(e, n, scale), 0, 60)[0]
        assert mean == pytest.approx(n * scale, rel=1e-8)
        assert second - mean**2 == pytest.approx(n * scale**2, rel=1e-6)

    def test_normalization_n50(self):
        total = quad(lambda e: energy_pdf(e, 50, 1.0), 0, 200, limit=200)[0]
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_mixture_normalization(self):
        total = quad(
            lambda e: mixture_energy_pdf(e, 20, 2.0), 0, 300, limit=300
        )[0]
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_domain(self):
        with pytest.raises(ValueError):
            energy_pdf(1.0, 0, 1.0)
        with pytest.raises(ValueError):
            energy_pdf(-1.0, 2, 1.0)
        with pytest.raises(ValueError):
            energy_pdf(1.0, 2, 0.0)
        bad = [(math.nan, 10, 1.0), (math.inf, 10, 1.0), (np.array([1.0, math.nan]), 10, 1.0),
               (1.0, math.inf, 1.0), (1.0, 10, math.nan), (1.0, 10, math.inf)]
        for args in bad:
            with pytest.raises(ValueError, match="must be (nonnegative and )?finite"):
                energy_pdf(*args)
        with pytest.raises(ValueError, match="energy must be nonnegative and finite"):
            mixture_energy_pdf(math.nan, 10, 1.0)


class TestOptimalThreshold:
    def test_n1_equal_variances(self):
        assert optimal_threshold(1, 1.0) == pytest.approx(2 * math.log(2), abs=1e-14)

    def test_linear_in_n(self):
        d1 = optimal_threshold(10, 0.7 / 0.2)
        d2 = optimal_threshold(20, 0.7 / 0.2)
        assert d2 == pytest.approx(2 * d1, rel=1e-14)

    def test_vanishing_signal_limit(self):
        # numeric limit: delta* -> N (noise units) as snr -> 0
        assert optimal_threshold(8, 1e-9 / 0.5) == pytest.approx(8, rel=1e-8)

    def test_always_positive(self):
        for n in (1, 10, 100):
            for snr_db in (-10.0, 0.0, 10.0):
                assert optimal_threshold(n, 10 ** (snr_db / 10)) > 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            optimal_threshold(0, 1.0)
        with pytest.raises(ValueError):
            optimal_threshold(1, 0.0)
        with pytest.raises(ValueError, match="snr must be nonnegative"):
            optimal_threshold(1, -1.0)

    @pytest.mark.parametrize("args", [
        (math.nan, 1.0), (1, math.nan), (1, math.inf), (1, -math.inf),
    ])
    def test_non_finite_rejected_at_once(self, args):
        start = time.monotonic()
        with pytest.raises(ValueError, match="finite"):
            optimal_threshold(*args)
        assert time.monotonic() - start < 0.1

    @pytest.mark.parametrize("snr", [1e-40, 1e-17])
    def test_unresolvable_snr_rejected(self, snr):
        # 1 - 1/(1 + snr) rounds to 0
        with pytest.raises(ValueError, match="too small"):
            optimal_threshold(10, snr)


class TestErrorProbability:
    def test_n1_closed_form(self):
        # gamma(1, x) = 1 - e^{-x}: P_e = 0.5 (e^{-2ln2} + 1 - e^{-ln2}) = 0.375
        delta = 2 * math.log(2)
        assert error_probability(1, 1.0, delta) == pytest.approx(0.375, abs=1e-14)

    def test_degenerate_signal(self):
        assert error_probability(5, 0.0, 5.0) == 0.5

    @pytest.mark.parametrize("args", [
        (0, 1.0, 1.0), (1, -1.0, 1.0), (1, 1.0, -1.0),
    ])
    def test_domain(self, args):
        with pytest.raises(ValueError):
            error_probability(*args)

    @pytest.mark.parametrize("args", [
        (math.nan, 1.0, 5.0), (5, math.nan, 5.0), (5, math.inf, 5.0),
        (5, 1.0, math.nan), (5, 1.0, math.inf),
    ])
    def test_non_finite_rejected_at_once(self, args):
        start = time.monotonic()
        with pytest.raises(ValueError, match="finite"):
            error_probability(*args)
        assert time.monotonic() - start < 0.1

    def test_monotone_decreasing_in_n(self):
        values = []
        for n in (1, 10, 100):
            delta = optimal_threshold(n, 1.0)
            values.append(error_probability(n, 1.0, delta))
        assert values[0] > values[1] > values[2]

    def test_bounded_by_half(self):
        for n in (1, 10, 100):
            for snr_db in (-20.0, 0.0, 20.0):
                sr = 10 ** (snr_db / 10)
                pe = error_probability(n, sr, optimal_threshold(n, sr))
                assert 0.0 <= pe <= 0.5

    def test_threshold_optimality_scan(self):
        for n in (1, 10, 100):
            for snr_db in (-10.0, 0.0, 10.0):
                sr = 10 ** (snr_db / 10)
                delta_star = optimal_threshold(n, sr)
                pe_star = error_probability(n, sr, delta_star)
                grid = np.linspace(0.2 * delta_star, 5 * delta_star, 1000)
                pes = [error_probability(n, sr, d) for d in grid]
                assert pe_star <= min(pes) + 1e-15

    @pytest.mark.parametrize("n, snr_db", [(1000, 0.0), (2000, 0.0), (200, 10.0)])
    def test_deep_tail_against_mpmath(self, n, snr_db):
        # P_e below 1e-16: Q can no longer be read off as 1 - P
        snr = db_to_linear(snr_db)
        want = mpmath_error_probability(n, snr)
        log_pe = log_error_probability(n, snr, optimal_threshold(n, snr))
        assert log_pe == pytest.approx(float(mpmath.log(want)), abs=1e-12)
        got = error_probability(n, snr, optimal_threshold(n, snr))
        assert got == pytest.approx(float(want), rel=1e-12, abs=0.0)

    def test_density_crossing_at_threshold(self):
        for n in (1, 10, 100):
            sr, sn = 0.8, 0.3
            delta = sn * optimal_threshold(n, sr / sn)  # back from noise units
            f1 = energy_pdf(delta, n, sr + sn)
            f0 = energy_pdf(delta, n, sn)
            assert f1 == pytest.approx(f0, rel=1e-9)


class TestDbToLinear:
    @pytest.mark.parametrize("db", [4000.0, -4000.0, math.nan, math.inf, -math.inf])
    def test_unrepresentable_rejected(self, db):
        with pytest.raises(ValueError, match="dB"):
            db_to_linear(db)
