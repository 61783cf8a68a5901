import math

import numpy as np
import pytest

from intermod.channel import make_correlated_pair
from intermod.detector import log_gamma_tails
from intermod.simulator import ScenarioConfig, _chunk_energies, run_ber
from intermod.weights import build_weight_set

UNIT_GAINS = np.array([1.0, 1.0], dtype=complex)  # both bits: bare OFDM samples


def response_gains(pair, ws):
    """SU responses g * h_su^T omega_bit / sqrt(xi) for bits 0 and 1, as run_ber builds them."""
    return np.array([pair.g * complex(pair.h_su @ ws.tx_weight(bit)) for bit in (0, 1)])


class TestGenerateOfdmSamples:
    """OFDM sample generation inside the Monte Carlo kernel (noise off, unit gains)."""

    def test_per_sample_power(self):
        rng = np.random.default_rng(1)
        _, energies = _chunk_energies(rng, 10**4, 100, 64, UNIT_GAINS, 0.0)
        assert energies.mean() / 100 == pytest.approx(1 / 64, rel=0.02)

    def test_marginals_near_gaussian(self):
        # N = 1: the energy is one sample's power, exponential for a circular
        # complex Gaussian sample, so its second moment is twice its squared mean
        rng = np.random.default_rng(2)
        _, energies = _chunk_energies(rng, 10**5, 1, 16, UNIT_GAINS, 0.0)
        x = energies / energies.mean()
        assert np.mean(x**2) == pytest.approx(2.0, abs=0.1)

    def test_gaussian_mode_mean_block_energy(self):
        # N = m: each energy is one whole block
        rng = np.random.default_rng(4)
        m = 64
        _, energies = _chunk_energies(rng, 2000, m, m, UNIT_GAINS, 0.0)
        assert energies.mean() == pytest.approx(1.0, rel=0.02)
        assert energies.std() > 0.05  # Gaussian symbols: block energy fluctuates

    def test_domain(self):
        with pytest.raises(ValueError):
            ScenarioConfig(n_samples=10, snr_db=0.0, n_bits=100, m_subcarriers=0)


class TestTransmitOokBit:
    """The per-bit SU signal in the kernel: gains[bit] * samples + AWGN."""

    @pytest.fixture
    def scenario(self):
        pair = make_correlated_pair(8, 0.0, 0.0, g=1.0, seed=5)
        return pair, build_weight_set(pair, 0.3)

    def test_bit0_is_noise_only(self, scenario):
        pair, ws = scenario
        rng = np.random.default_rng(6)
        sigma_n_sq = 1e-3
        bits, energies = _chunk_energies(
            rng, 4000, 64, 64, response_gains(pair, ws), math.sqrt(sigma_n_sq / 2)
        )
        assert energies[bits == 0].mean() / 64 == pytest.approx(sigma_n_sq, rel=0.02)

    def test_bit1_power_matches_received_power(self, scenario):
        # rho = 0: sigma_r^2 = (1/64) * 0.3 / 0.85
        pair, ws = scenario
        rng = np.random.default_rng(7)
        sigma_n_sq = 1e-3
        bits, energies = _chunk_energies(
            rng, 4000, 64, 64, response_gains(pair, ws), math.sqrt(sigma_n_sq / 2)
        )
        want = sigma_n_sq + (1 / 64) * 0.3 / 0.85
        assert energies[bits == 1].mean() / 64 == pytest.approx(want, rel=0.02)

    def test_pu_side_power_identical_for_both_bits(self):
        pair = make_correlated_pair(8, 0.6, 0.8, seed=8)
        ws = build_weight_set(pair, 0.3)
        p0 = abs(pair.h_pu @ ws.tx_weight(0)) ** 2
        p1 = abs(pair.h_pu @ ws.tx_weight(1)) ** 2
        want = (1 - 0.3) / ws.xi
        assert abs(p0 - p1) / want < 1e-9
        assert p0 == pytest.approx(want, rel=1e-9)


class TestDetectOokBit:
    """The energies run_ber compares against its threshold."""

    def test_all_zero_samples(self):
        # nulled response and no noise: zero energy, so every bit decides 0
        rng = np.random.default_rng(0)
        _, energies = _chunk_energies(rng, 100, 10, 64, np.zeros(2, dtype=complex), 0.0)
        assert np.all(energies == 0.0)

    def test_energy_above_threshold(self):
        # no noise: only bit 1 carries energy, so any small threshold decides right
        rng = np.random.default_rng(1)
        bits, energies = _chunk_energies(rng, 1000, 8, 64, np.array([0.0, 1.0 + 0.0j]), 0.0)
        assert np.array_equal(energies > 1e-12, bits == 1)

    def test_false_alarm_rate(self):
        # noise-only symbols at delta*: rate = Q(N, delta/sigma_n^2)
        n, sigma_n_sq = 10, 0.5
        delta = 1.4 * n * sigma_n_sq
        rng = np.random.default_rng(9)
        trials = 10**5
        _, energies = _chunk_energies(
            rng, trials, n, 16, np.zeros(2, dtype=complex), math.sqrt(sigma_n_sq / 2)
        )
        rate = np.mean(energies > delta)
        want = math.exp(log_gamma_tails(n, delta / sigma_n_sq)[1])
        assert abs(rate - want) < 3 * math.sqrt(want * (1 - want) / trials)


class TestRunBer:
    def test_deterministic(self):
        cfg = ScenarioConfig(n_samples=20, snr_db=-5.0, n_bits=20000, master_seed=3)
        a = run_ber(cfg)
        b = run_ber(cfg)
        assert a == b

    def test_seed_sensitivity(self):
        cfg = ScenarioConfig(n_samples=20, snr_db=-5.0, n_bits=20000, master_seed=3)
        other = ScenarioConfig(n_samples=20, snr_db=-5.0, n_bits=20000, master_seed=4)
        assert run_ber(cfg).n_errors != run_ber(other).n_errors

    def test_alpha_zero_is_blind_guessing(self):
        cfg = ScenarioConfig(
            n_samples=10, snr_db=0.0, n_bits=20000, alpha=0.0, master_seed=11
        )
        res = run_ber(cfg)
        assert res.analytic_pe == 0.5
        assert abs(res.ber - 0.5) < 3 * math.sqrt(0.25 / cfg.n_bits)

    def test_high_snr_error_free(self):
        cfg = ScenarioConfig(n_samples=50, snr_db=10.0, n_bits=10**5, master_seed=13)
        res = run_ber(cfg)
        assert res.analytic_pe < 1e-8
        assert res.n_errors == 0

    def test_matches_theory(self):
        cfg = ScenarioConfig(n_samples=50, snr_db=-5.0, n_bits=2 * 10**5, master_seed=17)
        res = run_ber(cfg)
        band = 3 * math.sqrt(res.analytic_pe * (1 - res.analytic_pe) / cfg.n_bits)
        assert abs(res.ber - res.analytic_pe) <= band

    def test_matches_theory_with_correlated_channels(self):
        # nonzero rho: threshold must track the actual SU response
        cfg = ScenarioConfig(
            n_samples=20, snr_db=-2.5, n_bits=10**5,
            alpha=0.4, rho_mag=0.6, rho_phase=1.1, master_seed=19,
        )
        res = run_ber(cfg)
        band = 3 * math.sqrt(res.analytic_pe * (1 - res.analytic_pe) / cfg.n_bits)
        assert abs(res.ber - res.analytic_pe) <= band

    def test_ci_definition(self):
        cfg = ScenarioConfig(n_samples=10, snr_db=-5.0, n_bits=5000, master_seed=23)
        res = run_ber(cfg)
        assert res.per_point_ci95 == pytest.approx(
            1.96 * math.sqrt(res.ber * (1 - res.ber) / res.n_bits), abs=1e-15
        )

    def test_energy_moments(self):
        # bit-1 symbol energies: mean N(sr+sn) within 1%, variance N(sr+sn)^2
        # within 5%, over 1e5 symbols
        pair = make_correlated_pair(8, 0.0, 0.0, seed=29)
        ws = build_weight_set(pair, 0.3)
        n, m = 10, 64
        gain1 = response_gains(pair, ws)[1]
        sigma_r_sq = abs(gain1) ** 2 / m
        sigma_n_sq = sigma_r_sq / 10 ** (-5.0 / 10.0)
        rng = np.random.default_rng(31)
        _, energies = _chunk_energies(
            rng, 10**5, n, m, np.full(2, gain1), math.sqrt(sigma_n_sq / 2)
        )
        scale = sigma_r_sq + sigma_n_sq
        assert energies.mean() == pytest.approx(n * scale, rel=0.01)
        assert energies.var() == pytest.approx(n * scale**2, rel=0.05)
