import math
import re

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaincinv, gammainccinv

from intermod import _domain, detector
from intermod.detector import (
    db_to_linear,
    energy_pdf,
    log_error_probability,
    log_gamma_tails,
    mixture_energy_pdf,
    optimal_threshold,
)


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


def assert_tails_match_mpmath(s: float, x: float):
    """Both tails of log_gamma_tails(s, x) within the prefactor's rounding
    of mpmath_tails, which it returns.  The prefactor's log is a difference
    of terms of size s ln s, so its absolute error, and the tails' relative
    error, is a few ulp of that: about 1e-13 at s = 100 and 2e-9 at 1e6."""
    rel = 1e-12 + 4 * math.ulp(s * math.log(s + 1.0))
    want_p, want_q = mpmath_tails(s, x)
    log_p, log_q = log_gamma_tails(s, x)
    assert float(abs(mpmath.exp(log_p) / want_p - 1)) < rel, (s, x, "P")
    assert float(abs(mpmath.exp(log_q) / want_q - 1)) < rel, (s, x, "Q")
    return want_p, want_q


def lower_p(s: float, x: float) -> float:
    """P(s, x) read off its log."""
    return math.exp(log_gamma_tails(s, x)[0])


def pe(n, snr, threshold):
    """P_e read off its log."""
    return math.exp(log_error_probability(n, snr, threshold))


class TestRegularizedLowerGamma:
    """P(s, x) and Q(s, x) through log_gamma_tails; test_criterion_5_special_functions
    checks P against a quadrature oracle."""

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

    def test_large_shape_no_overflow(self):
        # Gamma(N) overflows doubles near N=171; the regularized form must not
        p = lower_p(10_000.0, 10_000.0)
        assert 0.4 < p < 0.6
        assert lower_p(1e6, 1e6 + 5e3) == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("x", [50.0, 150.0])  # lower, upper continued fraction
    def test_exhausted_loop_raises(self, x, monkeypatch):
        monkeypatch.setattr(detector, "_ITMAX", 3)
        with pytest.raises(ValueError, match="did not converge"):
            log_gamma_tails(100.0, x)

    # With x this large, the upper continued fraction's Lentz factors d c can
    # round to 1 +- 1 ulp at every step and never to 1 exactly.
    @pytest.mark.parametrize("s", [1.0, 1e3, 1e6])
    def test_upper_tail_converges_near_the_top_of_the_double_range(self, s, monkeypatch):
        monkeypatch.setattr(detector, "_ITMAX", 1000)
        if s == 1.0:  # Q(1, x) = e^-x, so ln Q is -x to the last bit
            assert log_gamma_tails(1.0, 1e308) == (0.0, -1e308)
        for x in (1e300, 1e307, 4.5e307, 1e308, 1.7e308):
            log_p, log_q = log_gamma_tails(s, x)
            assert log_p == 0.0
            assert log_q == pytest.approx(-x + (s - 1.0) * math.log(x) - math.lgamma(s), rel=1e-15)
        assert log_error_probability(1, 1.0, 1e308) == math.log(0.5)

    # Within 5 sqrt(s) of the mean s, the upper fraction's worst x took 955 steps at s = 1e6,
    # about 9.5 s^(1/3), and the lower one's 573 pairs, about 5.7 s^(1/3); each cap below
    # leaves at least 20% over the worst of those, at every s.
    @pytest.mark.parametrize("s", [1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6])
    def test_steps_near_the_mean_grow_as_the_cube_root_of_s(self, s, monkeypatch):
        xs = [s + k / 10.0 * math.sqrt(s) for k in range(-50, 51)]
        xs += [s * (1.0 + sign * 10.0**-j) for j in range(1, 16) for sign in (-1.0, 1.0)]
        for x in [*xs, math.nextafter(s, 0.0), s + 0.5]:
            if x > 0.0:  # P's pairs below the mean, Q's steps at and above it
                cap = math.ceil((7.0 if x < s else 12.0) * s ** (1.0 / 3.0)) + 10
                monkeypatch.setattr(detector, "_ITMAX", cap)
                log_gamma_tails(s, x)

    @pytest.mark.parametrize("s", [1.0, 2.5, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6])
    def test_both_tails_against_mpmath_down_to_1e_300(self, s):
        for tail in (0.3, 1e-5, 1e-17, 1e-50, 1e-150, 1e-300):
            for x in (gammaincinv(s, tail), gammainccinv(s, tail)):
                assert min(assert_tails_match_mpmath(s, x)) < 2 * tail


class TestLowerContinuedFraction:
    """ln P for x < s comes from the lower continued fraction and ln Q for
    x >= s from the upper one; near x = s at large s each needs the most
    steps, and at its one-ulp stop it must still match mpmath."""

    @staticmethod
    def grid(s, side):
        """Points of (0, s + 1) below the mean s, where P is the smaller
        tail and the lower fraction gives it, or at and above it, where Q
        is and the upper fraction gives it."""
        ks = (-0.9, 0.0, 0.5, 1.0, 2.0, 4.3, 8.0, 16.0, 64.0)
        xs = [s * (1.0 - k / math.sqrt(s)) for k in ks]
        xs += [math.nextafter(s + 1.0, 0.0), (s + 1.0) * (1.0 - 1e-12), s + 0.5, s * 1e-3]
        xs = [x for x in xs if 0.0 < x < s + 1.0 and (x < s) == (side == "below")]
        assert xs, (s, side)
        return xs

    # The grid's worst point, x = s + 0.5 at s = 1e6, takes about 924 upper
    # steps, so a cap of 1000 bounds the loop; a power series needs ~8600
    # terms there.  At s = 10 and 685672 the lower fraction's first
    # denominator, s + 1 - x, would round to 0 at x = nextafter(s + 1, 0),
    # so the tails split at s, where it exceeds 1, and the upper one takes x.
    @pytest.mark.parametrize("side", ["below", "above"])
    @pytest.mark.parametrize("s", [1.0, 1.5, 10.0, 37.3, 1e3, 1e4, 1e5, 685672.0, 1e6])
    def test_against_mpmath_near_the_branch(self, s, side, monkeypatch):
        monkeypatch.setattr(detector, "_ITMAX", 1000)
        for x in self.grid(s, side):
            assert_tails_match_mpmath(s, x)

    def test_against_mpmath_at_random_points(self, monkeypatch):
        monkeypatch.setattr(detector, "_ITMAX", 1000)
        rng = np.random.default_rng(8)
        for _ in range(300):
            s = float(10.0 ** rng.uniform(0.0, 6.0))
            if rng.random() < 0.5:
                s = float(round(s))
            x = min(s * (1.0 - rng.uniform(-1.0, 10.0) / math.sqrt(s)), s + 0.999)
            if x > 0.0:
                assert_tails_match_mpmath(s, x)


class TestEnergyPdf:
    def test_shape_one_is_exponential(self):
        eps = np.linspace(0.0, 5.0, 50)
        np.testing.assert_allclose(
            energy_pdf(eps, 1, 2.0), np.exp(-eps / 2.0) / 2.0, atol=1e-14
        )
        # a 0-d energy gives a Python float and an array of energies an array,
        # on the n = 1 branch and off it
        for n in (1, 3):
            for scalar in (1.5, np.float64(1.5), np.array(1.5)):
                assert type(energy_pdf(scalar, n, 2.0)) is float
            assert type(energy_pdf(np.array([1.5]), n, 2.0)) is np.ndarray

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

    def test_mixture_checks_each_value_once(self, check_calls):
        # n, snr and the energies' min and max; the two densities it mixes check nothing again
        assert type(mixture_energy_pdf(np.linspace(0.0, 40.0, 9), 10, 2.0)) is np.ndarray
        assert check_calls[0] == 4
        assert type(mixture_energy_pdf(np.float64(12.0), 10, 2.0)) is float

    def test_domain(self):
        # the scalar domain tables cannot reach an array's energies
        for energies in (-1.0, math.nan, math.inf, np.array([1.0, math.nan]),
                         np.array([2.0, -1.0])):
            with pytest.raises(ValueError, match=re.escape("energy must be in [0, inf), got ")):
                energy_pdf(energies, 10, 1.0)
        with pytest.raises(ValueError, match=re.escape("energy must be in [0, inf), got nan")):
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

    @pytest.mark.parametrize("snr", [0.0, 1e-40, 1e-17])
    def test_unresolvable_snr_rejected(self, snr):
        # 1 - 1/(1 + snr) rounds to 0, or is 0
        with pytest.raises(ValueError, match="too small"):
            optimal_threshold(10, snr)


class TestErrorProbability:
    """P_e through log_error_probability, the one public P_e;
    test_criterion_4_threshold_optimality scans its optimal threshold."""

    def test_n1_closed_form(self):
        # gamma(1, x) = 1 - e^{-x}: P_e = 0.5 (e^{-2ln2} + 1 - e^{-ln2}) = 0.375
        delta = 2 * math.log(2)
        assert pe(1, 1.0, delta) == pytest.approx(0.375, abs=1e-14)

    def test_degenerate_signal(self):
        # exactly 1/2, though P + Q rounds to 0.5000000000000001 at 3 (lower fraction) and
        # 10 (upper): snr = 0 takes no tail
        for threshold in (3.0, 5.0, 10.0):
            assert pe(5, 0.0, threshold) == 0.5

    def test_monotone_decreasing_in_n(self):
        values = []
        for n in (1, 10, 100):
            delta = optimal_threshold(n, 1.0)
            values.append(pe(n, 1.0, delta))
        assert values[0] > values[1] > values[2]

    def test_bounded_by_half(self):
        for n in (1, 10, 100):
            for snr_db in (-20.0, 0.0, 20.0):
                sr = 10 ** (snr_db / 10)
                assert 0.0 <= pe(n, sr, optimal_threshold(n, sr)) <= 0.5

    @pytest.mark.parametrize("n, snr_db", [(1000, 0.0), (2000, 0.0), (200, 10.0)])
    def test_deep_tail_against_mpmath(self, n, snr_db):
        # P_e below 1e-16: Q can no longer be read off as 1 - P
        snr = db_to_linear(snr_db)
        want = mpmath_error_probability(n, snr)
        log_pe = log_error_probability(n, snr, optimal_threshold(n, snr))
        assert log_pe == pytest.approx(float(mpmath.log(want)), abs=1e-12)
        assert math.exp(log_pe) == pytest.approx(float(want), rel=1e-12, abs=0.0)

    def test_density_crossing_at_threshold(self):
        for n in (1, 10, 100):
            sr, sn = 0.8, 0.3
            delta = sn * optimal_threshold(n, sr / sn)  # back from noise units
            f1 = energy_pdf(delta, n, sr + sn)
            f0 = energy_pdf(delta, n, sn)
            assert f1 == pytest.approx(f0, rel=1e-9)

    def test_equals_the_sum_of_the_public_tails_bit_for_bit(self):
        # P_e is the log-sum-exp of log_gamma_tails' own Q at delta and P at delta/(1 + snr),
        # bit for bit, on both continued fractions' sides of the split at n
        rng = np.random.default_rng(1717)
        cases = [(7, 2.0, 0.0), (1, 1e-6, 0.0)]
        for _ in range(400):
            n = 10 ** rng.uniform(0.0, 6.0)
            n = float(n) if rng.random() < 0.5 else int(n)
            snr = 10 ** rng.uniform(-6.0, 4.0)
            centre = n if rng.random() < 0.5 else n * (1.0 + snr)  # Q's and P's branch points
            cases.append((n, snr, centre * math.exp(rng.uniform(-3.0, 3.0) / math.sqrt(n))))
        sides = set()
        for n, snr, threshold in cases:
            a = log_gamma_tails(n, threshold)[1]
            b = log_gamma_tails(n, threshold / (snr + 1.0))[0]
            want = math.log(0.5) + max(a, b) + math.log1p(math.exp(-abs(a - b)))
            assert log_error_probability(n, snr, threshold) == want, (n, snr, threshold)
            sides.add((threshold < n, threshold / (snr + 1.0) < n))
        assert sides == {(True, True), (False, True), (False, False)}


class TestDbToLinear:
    @pytest.mark.parametrize("end, names", [
        ("DB_MAX", ("snr_db", "gamma_db")),
        ("GAMMA_DB_MIN", ("gamma_db",)),
        ("SNR_DB_MIN", ("snr_db",)),
    ])
    def test_each_db_end_is_an_edge_of_the_conversion(self, end, names):
        # each committed end of a dB domain gives a positive finite ratio, with a threshold at
        # the SNR's lower end, and the next double outward does not: there the ratio
        # overflows, rounds to 0, or leaves 1 + snr at 1, so no threshold exists
        db = getattr(_domain, end)
        assert all(db in _domain.DOMAINS[name][2:4] for name in names)
        assert 0.0 < db_to_linear(db) < math.inf
        outward = math.nextafter(db, math.copysign(math.inf, db))
        if end == "DB_MAX":
            with pytest.raises(OverflowError):
                db_to_linear(outward)
        elif end == "GAMMA_DB_MIN":
            assert db_to_linear(outward) == 0.0
        else:
            assert detector._optimal_threshold(1, db_to_linear(db)) is not None
            assert detector._optimal_threshold(1, db_to_linear(outward)) is None
