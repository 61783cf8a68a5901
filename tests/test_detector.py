import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from intermod.detector import (
    DetectorModel,
    energy_pdf,
    error_probability,
    mixture_energy_pdf,
    optimal_threshold,
    regularized_lower_gamma,
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


class TestRegularizedLowerGamma:
    @pytest.mark.parametrize("x", [0.5, 1.0, 3.0])
    def test_shape_one_identity(self, x):
        assert regularized_lower_gamma(1.0, x) == pytest.approx(
            1.0 - math.exp(-x), abs=1e-14
        )

    def test_shape_two_at_one(self):
        assert regularized_lower_gamma(2.0, 1.0) == pytest.approx(
            1.0 - 2.0 * math.exp(-1.0), abs=1e-14
        )

    def test_limits(self):
        assert regularized_lower_gamma(5.0, 0.0) == 0.0
        assert regularized_lower_gamma(5.0, 1e4) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("s", [1.0, 2.0, 10.0, 50.0, 200.0])
    @pytest.mark.parametrize("frac", [0.1, 1.0, 10.0])
    def test_against_quadrature_oracle(self, s, frac):
        x = frac * s
        want = quadrature_lower_gamma(s, x)
        got = regularized_lower_gamma(s, x)
        assert got == pytest.approx(want, rel=1e-10)

    def test_large_shape_no_overflow(self):
        # Gamma(N) overflows doubles near N=171; the regularized form must not
        p = regularized_lower_gamma(10_000.0, 10_000.0)
        assert 0.4 < p < 0.6
        assert regularized_lower_gamma(1e6, 1e6 + 5e3) == pytest.approx(1.0, abs=1e-3)

    def test_domain(self):
        with pytest.raises(ValueError):
            regularized_lower_gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            regularized_lower_gamma(1.0, -1.0)


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


class TestErrorProbability:
    def test_n1_closed_form(self):
        # gamma(1, x) = 1 - e^{-x}: P_e = 0.5 (e^{-2ln2} + 1 - e^{-ln2}) = 0.375
        delta = 2 * math.log(2)
        assert error_probability(1, 1.0, 1.0, delta) == pytest.approx(0.375, abs=1e-14)

    def test_degenerate_signal(self):
        assert error_probability(5, 0.0, 1.0, 5.0) == 0.5

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

    def test_density_crossing_at_threshold(self):
        for n in (1, 10, 100):
            sr, sn = 0.8, 0.3
            delta = optimal_threshold(n, sr, sn)
            f1 = energy_pdf(delta, n, sr + sn)
            f0 = energy_pdf(delta, n, sn)
            assert f1 == pytest.approx(f0, rel=1e-9)


class TestModels:
    def test_detector_model_optimal_construction(self):
        m = DetectorModel.with_optimal_threshold(10, 0.5, 0.2)
        assert m.threshold == pytest.approx(optimal_threshold(10, 0.5, 0.2), abs=1e-12)
        assert m.error_probability() == pytest.approx(
            error_probability(10, 0.5, 0.2, m.threshold), abs=1e-15
        )

    def test_detector_model_validation(self):
        with pytest.raises(ValueError):
            DetectorModel(0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            DetectorModel(1, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            DetectorModel(1, 1.0, 1.0, 0.0)
