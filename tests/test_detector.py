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
    """P_e at the optimal threshold for unit noise, from mpmath_tails."""
    delta = optimal_threshold(n, snr, 1.0)
    return (mpmath_tails(n, delta)[1] + mpmath_tails(n, delta / (1.0 + snr))[0]) / 2


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
            lambda e: mixture_energy_pdf(e, 20, 2.0, 1.0), 0, 300, limit=300
        )[0]
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_domain(self):
        with pytest.raises(ValueError):
            energy_pdf(1.0, 0, 1.0)
        with pytest.raises(ValueError):
            energy_pdf(-1.0, 2, 1.0)
        with pytest.raises(ValueError):
            energy_pdf(1.0, 2, 0.0)


class TestOptimalThreshold:
    def test_n1_equal_variances(self):
        assert optimal_threshold(1, 1.0, 1.0) == pytest.approx(2 * math.log(2), abs=1e-14)

    def test_linear_in_n(self):
        d1 = optimal_threshold(10, 0.7, 0.2)
        d2 = optimal_threshold(20, 0.7, 0.2)
        assert d2 == pytest.approx(2 * d1, rel=1e-14)

    def test_vanishing_signal_limit(self):
        # numeric limit: delta* -> N sigma_n^2 as sigma_r^2 -> 0
        assert optimal_threshold(8, 1e-9, 0.5) == pytest.approx(8 * 0.5, rel=1e-8)

    def test_always_positive(self):
        for n in (1, 10, 100):
            for snr_db in (-10.0, 0.0, 10.0):
                assert optimal_threshold(n, 10 ** (snr_db / 10), 1.0) > 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            optimal_threshold(0, 1.0, 1.0)
        with pytest.raises(ValueError):
            optimal_threshold(1, 0.0, 1.0)

    @pytest.mark.parametrize("args", [
        (math.nan, 1.0, 1.0), (1, math.nan, 1.0), (1, 1.0, math.inf), (1, math.inf, 1.0),
    ])
    def test_non_finite_rejected_at_once(self, args):
        start = time.monotonic()
        with pytest.raises(ValueError, match="finite"):
            optimal_threshold(*args)
        assert time.monotonic() - start < 0.1

    @pytest.mark.parametrize("sigma_r_sq", [1e-40, 1e-17])
    def test_unresolvable_snr_rejected(self, sigma_r_sq):
        # 1/sigma_n^2 - 1/(sigma_r^2 + sigma_n^2) rounds to 0
        with pytest.raises(ValueError, match="too small"):
            optimal_threshold(10, sigma_r_sq, 1.0)


class TestErrorProbability:
    def test_n1_closed_form(self):
        # gamma(1, x) = 1 - e^{-x}: P_e = 0.5 (e^{-2ln2} + 1 - e^{-ln2}) = 0.375
        delta = 2 * math.log(2)
        assert error_probability(1, 1.0, 1.0, delta) == pytest.approx(0.375, abs=1e-14)

    def test_degenerate_signal(self):
        assert error_probability(5, 0.0, 1.0, 5.0) == 0.5

    @pytest.mark.parametrize("args", [
        (0, 1.0, 1.0, 1.0), (1, -1.0, 1.0, 1.0), (1, 1.0, 0.0, 1.0), (1, 1.0, 1.0, -1.0),
    ])
    def test_domain(self, args):
        with pytest.raises(ValueError):
            error_probability(*args)

    @pytest.mark.parametrize("args", [
        (math.nan, 1.0, 1.0, 5.0), (5, math.nan, 1.0, 5.0), (5, 1.0, math.inf, 5.0),
        (5, 1.0, 1.0, math.nan), (5, 1.0, 1.0, math.inf),
    ])
    def test_non_finite_rejected_at_once(self, args):
        start = time.monotonic()
        with pytest.raises(ValueError, match="finite"):
            error_probability(*args)
        assert time.monotonic() - start < 0.1

    def test_monotone_decreasing_in_n(self):
        values = []
        for n in (1, 10, 100):
            delta = optimal_threshold(n, 1.0, 1.0)
            values.append(error_probability(n, 1.0, 1.0, delta))
        assert values[0] > values[1] > values[2]

    def test_bounded_by_half(self):
        for n in (1, 10, 100):
            for snr_db in (-20.0, 0.0, 20.0):
                sr = 10 ** (snr_db / 10)
                pe = error_probability(n, sr, 1.0, optimal_threshold(n, sr, 1.0))
                assert 0.0 <= pe <= 0.5

    def test_threshold_optimality_scan(self):
        for n in (1, 10, 100):
            for snr_db in (-10.0, 0.0, 10.0):
                sr = 10 ** (snr_db / 10)
                delta_star = optimal_threshold(n, sr, 1.0)
                pe_star = error_probability(n, sr, 1.0, delta_star)
                grid = np.linspace(0.2 * delta_star, 5 * delta_star, 1000)
                pes = [error_probability(n, sr, 1.0, d) for d in grid]
                assert pe_star <= min(pes) + 1e-15

    @pytest.mark.parametrize("n, snr_db", [(1000, 0.0), (2000, 0.0), (200, 10.0)])
    def test_deep_tail_against_mpmath(self, n, snr_db):
        # P_e below 1e-16: Q can no longer be read off as 1 - P
        snr = db_to_linear(snr_db)
        want = mpmath_error_probability(n, snr)
        log_pe = log_error_probability(n, snr, 1.0, optimal_threshold(n, snr, 1.0))
        assert log_pe == pytest.approx(float(mpmath.log(want)), abs=1e-12)
        got = error_probability(n, snr, 1.0, optimal_threshold(n, snr, 1.0))
        assert got == pytest.approx(float(want), rel=1e-12, abs=0.0)

    def test_density_crossing_at_threshold(self):
        for n in (1, 10, 100):
            sr, sn = 0.8, 0.3
            delta = optimal_threshold(n, sr, sn)
            f1 = energy_pdf(delta, n, sr + sn)
            f0 = energy_pdf(delta, n, sn)
            assert f1 == pytest.approx(f0, rel=1e-9)


class TestDbToLinear:
    @pytest.mark.parametrize("db", [4000.0, -4000.0, math.nan, math.inf, -math.inf])
    def test_unrepresentable_rejected(self, db):
        with pytest.raises(ValueError, match="dB"):
            db_to_linear(db)
