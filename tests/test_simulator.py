import math
import pickle
import tracemalloc

import numpy as np
import pytest

from intermod import simulator
from intermod.channel import make_correlated_pair
from intermod.detector import log_gamma_tails
from intermod.simulator import (
    CHUNK_SAMPLES, ScenarioConfig, _chunk_energies, chunk_errors, run_ber_grid,
)
from intermod.weights import build_weight_set
from test_cli import pin_cpus

UNIT_GAINS = np.array([1.0, 1.0], dtype=complex)  # both bits: bare OFDM samples
ALIGNED_CHUNK_TRIALS = 8192


def aligned_errors(config):
    """Bit errors of a scenario by the former block-aligned kernel, kept as a reference.

    Each bit drew whole OFDM blocks of its own and kept their first N
    samples; chunks were 8192 trials, each from its own substream.
    """
    gains, noise_std, threshold, _ = config.link
    n, m = config.n_samples, config.m_subcarriers
    n_errors = 0
    for chunk in range(-(-config.n_bits // ALIGNED_CHUNK_TRIALS)):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=config.master_seed, spawn_key=(chunk,))
        )
        trials = min(ALIGNED_CHUNK_TRIALS, config.n_bits - chunk * ALIGNED_CHUNK_TRIALS)
        bits = rng.integers(0, 2, size=trials)
        shape = (trials, -(-n // m), m)
        symbols = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)
        samples = np.fft.ifft(symbols, axis=2).reshape(trials, -1)[:, :n]
        noise = noise_std * (
            rng.standard_normal((trials, n)) + 1j * rng.standard_normal((trials, n))
        )
        energies = np.sum(np.abs(gains[bits][:, None] * samples + noise) ** 2, axis=1)
        n_errors += int(np.count_nonzero((energies > threshold) != bits))
    return n_errors


def out_of_place_energies(rng, n_trials, n, m, gains, noise_std):
    """(bits, energies) by the former out-of-place stream kernel, kept as a reference.

    It drew the same numbers in the same order, but took the IFFT into a
    new array and drew all the noise into another.
    """
    bits = rng.integers(0, 2, size=n_trials)
    blocks = -(-n_trials * n // m)
    symbols = rng.standard_normal((blocks, m, 2)).view(np.complex128)[..., 0]
    stream = np.fft.ifft(symbols, axis=1).reshape(-1)[: n_trials * n]
    received = stream.reshape(n_trials, n)
    received *= (gains[bits] / math.sqrt(2.0))[:, None]
    parts = received.view(np.float64)
    noise = rng.standard_normal(parts.shape)
    noise *= noise_std
    parts += noise
    return bits, np.einsum("ij,ij->i", parts, parts)


def response_gains(pair, ws):
    """SU responses h_su^T omega_bit / sqrt(xi) at g = 1 for bits 0 and 1, as
    ScenarioConfig.link builds them."""
    return np.array([complex(pair.h_su @ ws.tx_weight(bit)) for bit in (0, 1)])


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
        with pytest.raises(ValueError, match="n_samples must be >= 1 and <= 1000000"):
            ScenarioConfig(n_samples=10**6 + 1, snr_db=0.0, n_bits=1, alpha=0.0)
        # g scales the SU response, so the link checks it right after the channel draw
        for g in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="g must be nonnegative"):
                ScenarioConfig(n_samples=10, snr_db=0.0, n_bits=100, g=g).link
        with pytest.raises(ValueError, match="rho_phase must be finite"):
            ScenarioConfig(n_samples=10, snr_db=0.0, n_bits=100, rho_phase=math.inf).link
        with pytest.raises(ValueError, match="master_seed must be >= 0"):
            ScenarioConfig(n_samples=10, snr_db=0.0, n_bits=10, master_seed=-1)
        # the SNR is read even where alpha = 0 leaves nothing for it to scale
        with pytest.raises(ValueError, match="4000.0 dB"):
            ScenarioConfig(n_samples=10, snr_db=4000.0, n_bits=100, alpha=0.0).link

    @pytest.mark.parametrize("name, value", [
        ("n_samples", 10.5), ("n_bits", 100.5), ("m_subcarriers", 8.5), ("k_antennas", 8.0),
        ("master_seed", 1.5),
    ])
    def test_non_integral_count_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            ScenarioConfig(**{"n_samples": 10, "snr_db": 0.0, "n_bits": 100, name: value})

    def test_numpy_integer_counts_accepted(self):
        cfg = ScenarioConfig(
            n_samples=np.int32(10), snr_db=0.0, n_bits=np.int64(100),
            k_antennas=np.int64(8), m_subcarriers=np.int16(64),
        )
        assert cfg.link[3] == ScenarioConfig(n_samples=10, snr_db=0.0, n_bits=100).link[3]


class TestTransmitOokBit:
    """The per-bit SU signal in the kernel: gains[bit] * samples + AWGN."""

    @pytest.fixture
    def scenario(self):
        pair = make_correlated_pair(8, 0.0, 0.0, seed=5)
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
    """The energies chunk_errors compares against its threshold."""

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


class TestStreamKernel:
    """The continuous-stream kernel against the block-aligned one it replaced."""

    def test_agrees_with_aligned_kernel_on_criterion_6_grid(self):
        # independent draws: the counts differ by a difference of two binomials
        bits = 20_000
        points = [(n, snr) for n in (10, 100) for snr in (-10.0, -7.5, -5.0, -2.5, 0.0)]
        for idx, (n, snr_db) in enumerate(points):
            cfg = ScenarioConfig(n_samples=n, snr_db=snr_db, n_bits=bits, master_seed=6000 + idx)
            res = run_ber_grid([cfg])[0]
            band = 3 * math.sqrt(2 * bits * res.analytic_pe * (1 - res.analytic_pe))
            assert abs(res.n_errors - aligned_errors(cfg)) <= band, (n, snr_db)

    # the budget is 2^18 samples; changing it changes every ber result
    @pytest.mark.parametrize("n, bits, trials, chunks", [
        (10, 26214, 26214, 1), (10, 26215, 26214, 2), (1000, 1000, 262, 4), (10**6, 3, 1, 3),
    ])
    def test_chunks_follow_the_sample_budget(self, n, bits, trials, chunks):
        cfg = ScenarioConfig(n_samples=n, snr_db=0.0, n_bits=bits)
        assert (cfg.chunk_trials, cfg.n_chunks) == (trials, chunks)

    def test_windows_straddle_block_boundaries(self):
        # N = 48, m = 64: the second window spans blocks 0 and 1, and every
        # window's energy still has the mean N/m and variance N/m^2
        rng = np.random.default_rng(41)
        _, energies = _chunk_energies(rng, 10**5, 48, 64, UNIT_GAINS, 0.0)
        assert energies.mean() == pytest.approx(48 / 64, rel=0.01)
        assert energies.var() == pytest.approx(48 / 64**2, rel=0.03)


class TestInPlaceKernel:
    """The one-buffer kernel against the out-of-place one it replaced."""

    GAINS = np.array([0.1 + 0.2j, 0.7 - 0.3j])

    # full chunks at N = 1 ... 1e6, N not dividing m, N > m, a stream of fewer
    # doubles than one noise slice, and one that is not a multiple of the slice
    @pytest.mark.parametrize("n, trials, m", [
        (1, CHUNK_SAMPLES, 64), (7, CHUNK_SAMPLES // 7, 64), (10, CHUNK_SAMPLES // 10, 64),
        (100, CHUNK_SAMPLES // 100, 64), (1000, CHUNK_SAMPLES // 1000, 64), (10**6, 1, 64),
        (48, 5000, 64), (100, 3000, 16), (10, 100, 64), (7, 3000, 64),
    ])
    def test_same_bits_and_energies_as_out_of_place_kernel(self, n, trials, m):
        got = _chunk_energies(np.random.default_rng(n + trials), trials, n, m, self.GAINS, 0.3)
        want = out_of_place_energies(
            np.random.default_rng(n + trials), trials, n, m, self.GAINS, 0.3
        )
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("n", [100, 1000, 10**6])
    def test_one_chunk_peaks_near_its_symbol_buffer(self, n):
        # the out-of-place kernel held three chunk-sized arrays (3.0x here)
        bits = CHUNK_SAMPLES // n or 1  # one full chunk
        cfg = ScenarioConfig(n_samples=n, snr_db=-5.0, n_bits=bits, master_seed=47)
        cfg.link  # resolve outside the trace
        symbol_bytes = -(-cfg.chunk_trials * n // cfg.m_subcarriers) * cfg.m_subcarriers * 16
        tracemalloc.start()
        try:
            chunk_errors(cfg, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * symbol_bytes


class TestRunBer:
    def test_deterministic(self):
        cfg = ScenarioConfig(n_samples=20, snr_db=-5.0, n_bits=20000, master_seed=3)
        a = run_ber_grid([cfg])[0]
        b = run_ber_grid([cfg])[0]
        assert a == b

    def test_seed_sensitivity(self):
        cfg = ScenarioConfig(n_samples=20, snr_db=-5.0, n_bits=20000, master_seed=3)
        other = ScenarioConfig(n_samples=20, snr_db=-5.0, n_bits=20000, master_seed=4)
        assert run_ber_grid([cfg])[0].n_errors != run_ber_grid([other])[0].n_errors

    def test_alpha_zero_is_blind_guessing(self):
        cfg = ScenarioConfig(
            n_samples=10, snr_db=0.0, n_bits=20000, alpha=0.0, master_seed=11
        )
        res = run_ber_grid([cfg])[0]
        assert res.analytic_pe == 0.5
        assert abs(res.ber - 0.5) < 3 * math.sqrt(0.25 / cfg.n_bits)

    def test_high_snr_error_free(self):
        cfg = ScenarioConfig(n_samples=50, snr_db=10.0, n_bits=10**5, master_seed=13)
        res = run_ber_grid([cfg])[0]
        assert res.analytic_pe < 1e-8
        assert res.n_errors == 0

    def test_matches_theory(self):
        cfg = ScenarioConfig(n_samples=50, snr_db=-5.0, n_bits=2 * 10**5, master_seed=17)
        res = run_ber_grid([cfg])[0]
        band = 3 * math.sqrt(res.analytic_pe * (1 - res.analytic_pe) / cfg.n_bits)
        assert abs(res.ber - res.analytic_pe) <= band

    def test_matches_theory_with_correlated_channels(self):
        # nonzero rho: threshold must track the actual SU response
        cfg = ScenarioConfig(
            n_samples=20, snr_db=-2.5, n_bits=10**5,
            alpha=0.4, rho_mag=0.6, rho_phase=1.1, master_seed=19,
        )
        res = run_ber_grid([cfg])[0]
        band = 3 * math.sqrt(res.analytic_pe * (1 - res.analytic_pe) / cfg.n_bits)
        assert abs(res.ber - res.analytic_pe) <= band

    def test_ci_definition(self):
        cfg = ScenarioConfig(n_samples=10, snr_db=-5.0, n_bits=5000, master_seed=23)
        res = run_ber_grid([cfg])[0]
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


class TestRunBerGrid:
    # N = 10: 3000 bits are one chunk; N = 1000: 262 trials per chunk, so 4 chunks
    CONFIGS = (
        ScenarioConfig(n_samples=10, snr_db=-5.0, n_bits=3000, master_seed=37),
        ScenarioConfig(n_samples=1000, snr_db=-10.0, n_bits=1000, master_seed=41),
    )

    def test_same_results_at_one_and_two_jobs(self, monkeypatch):
        pin_cpus(monkeypatch, 2)  # so jobs=2 starts a real two-worker pool on any host
        serial = run_ber_grid(list(self.CONFIGS), jobs=1)
        assert self.CONFIGS[1].n_chunks == 4
        assert run_ber_grid(list(self.CONFIGS), jobs=2) == serial
        assert serial == [run_ber_grid([cfg])[0] for cfg in self.CONFIGS]

    def test_bad_input_raises_before_any_pool(self, monkeypatch):
        def no_pool(processes):
            raise AssertionError(f"a pool of {processes} started")

        monkeypatch.setattr(simulator.multiprocessing, "Pool", no_pool)
        bad = ScenarioConfig(n_samples=10, snr_db=3000.0, n_bits=100)
        with pytest.raises(ValueError, match="noise floor"):
            run_ber_grid([*self.CONFIGS, bad], jobs=2)
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            run_ber_grid(list(self.CONFIGS), jobs=0)
        with pytest.raises(ValueError, match="jobs must be an integer"):
            run_ber_grid(list(self.CONFIGS), jobs=2.5)

    def test_workers_receive_the_resolved_link(self):
        cfg = ScenarioConfig(n_samples=10, snr_db=-5.0, n_bits=100, master_seed=43)
        run_ber_grid([cfg])
        sent = pickle.loads(pickle.dumps(cfg))
        assert "link" in vars(sent)
        assert sent.link[3] == cfg.link[3]
