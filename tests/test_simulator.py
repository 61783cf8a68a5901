import math
import multiprocessing.pool
import re
import sys
import time
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from intermod import simulator
from intermod._domain import DB_MAX, SNR_DB_MIN
from intermod.detector import db_to_linear, log_gamma_tails, optimal_threshold
from intermod.simulator import (
    CHUNK_TRIALS, ScenarioConfig, _chunk_variates, chunk_errors, run_ber_grid,
)
from test_cli import pin_cpus

ALIGNED_CHUNK_TRIALS = 8192
M_SUBCARRIERS = 64  # the OFDM block of the waveform reference below


def aligned_errors(config):
    """Bit errors of a scenario by the former block-aligned kernel, kept as a reference.

    Each bit drew whole OFDM blocks of its own and kept their first N
    samples; chunks were 8192 trials, each from its own substream.  It works
    in noise units, sigma_n^2 = 1: the bit-1 gain sqrt(m snr) over the
    1/m-scaled IFFT gives a signal power of snr per sample, and the bit-0
    gain is 0.
    """
    n, m = config.n_samples, M_SUBCARRIERS
    gains = np.array([0.0, math.sqrt(m * db_to_linear(config.snr_db))])
    noise_std, threshold = math.sqrt(0.5), config.link[0]
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


class TestScenarioDomain:
    """The scenario's inputs, checked where they enter; the kernel's moments are
    TestRunBer.test_energy_moments."""

    def test_domain(self):
        # snr_db is checked when the config is built, against the ends where its ratio is
        # finite and has a threshold, so no link can fail
        with pytest.raises(ValueError, match=re.escape(
                f"snr_db must be in [{SNR_DB_MIN!r}, {DB_MAX!r}], got 4000.0")):
            ScenarioConfig(n_samples=10, snr_db=4000.0, n_bits=100)
        # no transmitter knob: the link is N and the SNR alone
        assert [field.name for field in fields(ScenarioConfig)] == [
            "n_samples", "snr_db", "n_bits", "master_seed"]


class TestDecisionEnergies:
    """The standard Gamma(N) variates, a bit-0 energy in noise units, that chunk_errors
    compares against its two tail points."""

    def test_false_alarm_rate(self):
        # bit-0 variates are noise-only energies in noise units: rate above delta = Q(N, delta)
        n = 10
        delta = 1.4 * n
        rng = np.random.default_rng(9)
        trials = 10**5
        _, variates = _chunk_variates(rng, trials, n)
        rate = np.mean(variates > delta)
        want = math.exp(log_gamma_tails(n, delta)[1])
        assert abs(rate - want) < 3 * math.sqrt(want * (1 - want) / trials)


class TestStreamKernel:
    """The one-draw kernel against the block-aligned OFDM waveform it replaced."""

    def test_agrees_with_block_aligned_ofdm_reference_on_criterion_6_grid(self):
        # the only test that runs a real IFFT: independent draws, so the counts
        # differ by a difference of two binomials
        bits = 20_000
        points = [(n, snr) for n in (10, 100) for snr in (-10.0, -7.5, -5.0, -2.5, 0.0)]
        for idx, (n, snr_db) in enumerate(points):
            cfg = ScenarioConfig(n_samples=n, snr_db=snr_db, n_bits=bits, master_seed=6000 + idx)
            res = run_ber_grid([cfg])[0]
            band = 3 * math.sqrt(2 * bits * res.analytic_pe * (1 - res.analytic_pe))
            assert abs(res.n_errors - aligned_errors(cfg)) <= band, (n, snr_db)

    def test_first_energies_of_chunk_0_are_pinned(self, chunk_draws):
        # the kernel's stream by name, not only through a digest: the bit-1
        # count, then one standard Gamma(N) variate per trial, the bit-1 block first
        cfg = ScenarioConfig(n_samples=10, snr_db=-5.0, n_bits=3000, master_seed=37)
        chunk_errors(cfg, 0)
        ones, variates = chunk_draws[0]
        assert ones == 1514
        assert variates[:4].tolist() == [
            9.070791711496454, 10.27455262310628, 6.33204449044979, 5.960475219788117]
        assert variates[ones:ones + 4].tolist() == [
            13.351432386984772, 5.433487044890857, 14.410878724563142, 11.65843517989579]

    def test_bit1_count_is_drawn_before_the_gammas(self):
        # the order is part of the stream: one binomial, then the Gamma(N) block
        ones, variates = _chunk_variates(np.random.default_rng(3), 1000, 10)
        rng = np.random.default_rng(3)
        assert ones == rng.binomial(1000, 0.5)
        np.testing.assert_array_equal(variates, rng.standard_gamma(10, 1000))

    def test_bit1_share_of_many_chunks_is_half(self, chunk_draws):
        # six chunks, the last of one trial: the summed bit-1 counts lie within
        # 4 sigma of half the trials, sigma = sqrt(trials) / 2
        cfg = ScenarioConfig(n_samples=1, snr_db=-5.0, n_bits=5 * CHUNK_TRIALS + 1,
                             master_seed=83)
        run_ber_grid([cfg])
        assert [variates.size for _, variates in chunk_draws] == [CHUNK_TRIALS] * 5 + [1]
        ones = sum(count for count, _ in chunk_draws)
        assert abs(ones - cfg.n_bits / 2) <= 4 * 0.5 * math.sqrt(cfg.n_bits)

    def test_false_alarms_and_misses_each_match_their_tail(self, chunk_draws):
        # at a three-chunk point, the false alarms among bit-0 trials lie
        # within 4 sigma of Q(N, delta) and the misses among bit-1 trials
        # within 4 sigma of P(N, delta / (1 + snr)); together they are the
        # chunks' error counts
        cfg = ScenarioConfig(n_samples=20, snr_db=-2.5, n_bits=3 * CHUNK_TRIALS,
                             master_seed=89)
        x_fa, x_miss, _ = cfg.link
        result = run_ber_grid([cfg])[0]
        tallies = [(variates.size - ones, np.count_nonzero(variates[ones:] > x_fa),
                    ones, np.count_nonzero(variates[:ones] <= x_miss))
                   for ones, variates in chunk_draws]
        zeros, false_alarms, ones, misses = np.sum(tallies, axis=0)
        assert len(tallies) == 3
        assert false_alarms + misses == result.n_errors
        snr = 10 ** (cfg.snr_db / 10)
        delta = optimal_threshold(cfg.n_samples, snr)
        p_fa = math.exp(log_gamma_tails(cfg.n_samples, delta)[1])
        p_miss = math.exp(log_gamma_tails(cfg.n_samples, delta / (1 + snr))[0])
        for count, trials, p in ((false_alarms, zeros, p_fa), (misses, ones, p_miss)):
            assert abs(count - trials * p) <= 4 * math.sqrt(trials * p * (1 - p))

    def test_each_chunk_draws_its_own_substream(self, chunk_draws):
        # chunk c seeds from (master_seed, c), so three chunks open on three
        # different variates; on one shared substream they would all repeat chunk 0's
        cfg = ScenarioConfig(n_samples=10, snr_db=-5.0, n_bits=2 * CHUNK_TRIALS + 1,
                             master_seed=37)
        run_ber_grid([cfg])
        assert cfg.n_chunks == 3
        assert len({variates[0] for _, variates in chunk_draws}) == 3

    # the budget is 2^16 trials whatever N; changing it changes every
    # multi-chunk ber result
    @pytest.mark.parametrize("n, bits, trials, chunks", [
        (1, 65536, 65536, 1), (10, 65537, 65536, 2), (1000, 200_000, 65536, 4),
        (10**6, 131_072, 65536, 2), (10**6, 131_073, 65536, 3),
    ])
    def test_chunks_follow_the_trial_budget(self, n, bits, trials, chunks):
        cfg = ScenarioConfig(n_samples=n, snr_db=0.0, n_bits=bits)
        assert (CHUNK_TRIALS, cfg.n_chunks) == (trials, chunks)


class TestKernelMemory:
    """The kernel holds one per-trial array, its raw Gamma(N) variates, and one decision mask."""

    @pytest.mark.parametrize("n", [100, 1000, 10**6])
    def test_one_chunk_peaks_near_its_variate_buffer(self, n):
        # one 8-byte variate and at most one 1-byte decision per trial,
        # whatever N; 4 KiB covers the substream's SeedSequence, PCG64 and
        # Generator objects
        bits = CHUNK_TRIALS  # one full chunk
        cfg = ScenarioConfig(n_samples=n, snr_db=-5.0, n_bits=bits, master_seed=47)
        trial_bytes = CHUNK_TRIALS * (8 + 1)
        tracemalloc.start()
        try:
            chunk_errors(cfg, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * trial_bytes + 4096


LINK_CASES = [
    (10, -5.0), (1000, -10.0), (1, 10.0), (10**5, -20.0),
    (10, 180.0),  # the miss point near 4e-16, far below every bit-1 variate
    (10**6, 3080.0),  # near the top of the dB domain (about 3082 dB); the miss point near 7e-300
]


class TestLink:
    """The link in noise units: the detector's two tail points, divided by sigma_n^2."""

    @pytest.mark.parametrize("n, snr_db", LINK_CASES)
    def test_threshold_is_the_optimal_one(self, n, snr_db):
        # the false-alarm point is delta* itself, bit for bit
        cfg = ScenarioConfig(n_samples=n, snr_db=snr_db, n_bits=1, master_seed=67)
        assert cfg.link[0] == optimal_threshold(n, db_to_linear(snr_db))

    @pytest.mark.parametrize("n, snr_db", LINK_CASES)
    def test_miss_point_is_the_threshold_over_one_plus_snr(self, n, snr_db):
        # bit 1's energy is (1 + snr) times its variate; the point is the one
        # at which the detector evaluates P, bit for bit
        cfg = ScenarioConfig(n_samples=n, snr_db=snr_db, n_bits=1, master_seed=67)
        x_fa, x_miss, _ = cfg.link
        assert x_miss == x_fa / (db_to_linear(snr_db) + 1.0)
        assert 0.0 < x_miss < x_fa


class TestNumpyStream:
    @pytest.mark.parametrize("shape, first", [
        (10, [7.837054795476291, 8.364166528557453, 12.86905773981876, 10.59155180087116]),
        (10**6, [999369.7311663652, 999560.4384345523, 1000933.4190286031, 1000288.1556361592]),
    ])
    def test_first_gammas_of_a_chunk_substream_are_pinned(self, shape, first):
        # the kernel draws one standard Gamma(N) per bit; a numpy that changes
        # its gamma sampler fails here by name, at both ends of the N domain
        rng = np.random.default_rng(np.random.SeedSequence(entropy=7, spawn_key=(0,)))
        assert rng.standard_gamma(shape, 4).tolist() == first

    @pytest.mark.parametrize("trials, first", [
        (1, [1, 0, 1, 1]), (CHUNK_TRIALS, [32610, 32744, 32990, 32597]),
    ])
    def test_first_binomials_of_a_chunk_substream_are_pinned(self, trials, first):
        # each chunk opens on one Binomial(trials, 1/2) draw: inversion for a
        # short last chunk, BTPE for a full one; a numpy that changes either
        # sampler fails here by name
        rng = np.random.default_rng(np.random.SeedSequence(entropy=7, spawn_key=(0,)))
        assert [int(rng.binomial(trials, 0.5)) for _ in range(4)] == first


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

    def test_high_snr_error_free(self):
        cfg = ScenarioConfig(n_samples=50, snr_db=10.0, n_bits=10**5, master_seed=13)
        res = run_ber_grid([cfg])[0]
        assert res.analytic_pe < 1e-8
        assert res.n_errors == 0

    @pytest.mark.parametrize("n, snr_db, bits, seed", [
        (50, -5.0, 2 * 10**5, 17), (20, -2.5, 10**5, 19),
    ])
    def test_matches_theory(self, n, snr_db, bits, seed):
        cfg = ScenarioConfig(n_samples=n, snr_db=snr_db, n_bits=bits, master_seed=seed)
        res = run_ber_grid([cfg])[0]
        band = 3 * math.sqrt(res.analytic_pe * (1 - res.analytic_pe) / cfg.n_bits)
        assert abs(res.ber - res.analytic_pe) <= band

    @pytest.mark.parametrize("n, snr_db, seed", [
        (10**4, -15.0, 71), (10**5, -20.0, 73), (10**6, -25.0, 79),
    ])
    def test_matches_theory_up_to_the_top_of_the_n_domain(self, n, snr_db, seed):
        # one Gamma draw per bit and 2^16 bits per chunk at every N: 2e5 bits
        # at P_e ~ 0.06 take a fraction of a second even at N = 1e6
        cfg = ScenarioConfig(n_samples=n, snr_db=snr_db, n_bits=2 * 10**5, master_seed=seed)
        start = time.perf_counter()
        res = run_ber_grid([cfg])[0]
        elapsed = time.perf_counter() - start
        assert res.analytic_pe > 1e-3
        sigma = math.sqrt(cfg.n_bits * res.analytic_pe * (1 - res.analytic_pe))
        assert abs(res.n_errors - cfg.n_bits * res.analytic_pe) <= 4 * sigma
        assert elapsed < 1.0

    # N = 1 is one sample's power, exponential for a circular complex
    # Gaussian; N = 64 is one whole OFDM block, whose energy fluctuates with
    # Gaussian symbols
    @pytest.mark.parametrize("n, seed", [(1, 2), (10, 31), (64, 4), (100, 1)])
    def test_energy_moments(self, n, seed):
        # a window energy in noise units is its power times a standard Gamma(N)
        # variate: mean N within 1%, variance N within 5%, over 1e5 draws
        rng = np.random.default_rng(seed)
        _, variates = _chunk_variates(rng, 10**5, n)
        assert variates.mean() == pytest.approx(n, rel=0.01)
        assert variates.var() == pytest.approx(n, rel=0.05)


class TestRunBerGrid:
    # 3000 bits are one chunk; 2e5 bits are 4 chunks of at most 2^16 trials
    CONFIGS = (
        ScenarioConfig(n_samples=10, snr_db=-5.0, n_bits=3000, master_seed=37),
        ScenarioConfig(n_samples=1000, snr_db=-10.0, n_bits=200_000, master_seed=41),
    )

    def test_same_results_at_one_and_two_jobs(self, monkeypatch):
        pin_cpus(monkeypatch, 2)  # so jobs=2 starts a real two-worker pool on any host
        serial = run_ber_grid(list(self.CONFIGS), jobs=1)
        assert self.CONFIGS[1].n_chunks == 4
        assert run_ber_grid(list(self.CONFIGS), jobs=2) == serial
        assert serial == [run_ber_grid([cfg])[0] for cfg in self.CONFIGS]

    def test_more_threads_than_cpus_switching_often_match_one(self, monkeypatch):
        # eight workers on any host, switched every microsecond: four full
        # chunks, then four short points that finish first, so a count lost or
        # tallied out of task order between threads would change the results
        pin_cpus(monkeypatch, 8)
        configs = [ScenarioConfig(n_samples=1000, snr_db=-10.0, n_bits=4 * CHUNK_TRIALS,
                                  master_seed=61)] + [
            ScenarioConfig(n_samples=10, snr_db=-5.0, n_bits=1000, master_seed=seed)
            for seed in range(62, 66)]
        serial = run_ber_grid(configs, jobs=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = run_ber_grid(configs, jobs=8)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    def test_bad_input_raises_before_any_pool(self, monkeypatch):
        def no_pool(processes):
            raise AssertionError(f"a pool of {processes} started")

        monkeypatch.setattr(multiprocessing.pool, "ThreadPool", no_pool)
        pin_cpus(monkeypatch, 2)
        with pytest.raises(AssertionError, match="a pool of 2 started"):  # good input reaches it
            run_ber_grid(list(self.CONFIGS), jobs=2)
        # fails when built, unrun
        with pytest.raises(ValueError, match=re.escape(
                f"snr_db must be in [{SNR_DB_MIN!r}, {DB_MAX!r}], got -3000.0")):
            ScenarioConfig(n_samples=10, snr_db=-3000.0, n_bits=100)
        with pytest.raises(ValueError, match=re.escape("jobs must be in [1, inf), got 0")):
            run_ber_grid(list(self.CONFIGS), jobs=0)
        with pytest.raises(ValueError, match=re.escape("jobs must be an integer in [1, inf)")):
            run_ber_grid(list(self.CONFIGS), jobs=2.5)

    def test_tasks_are_generated_as_they_run(self, monkeypatch):
        # 2e5 full chunks: a task list would hold ~97 bytes a task
        cfg = ScenarioConfig(n_samples=10**6, snr_db=-5.0, n_bits=200_000 * CHUNK_TRIALS,
                             master_seed=53)
        monkeypatch.setattr(simulator, "chunk_errors", lambda config, chunk: chunk % 2)
        tracemalloc.start()
        try:
            result = run_ber_grid([cfg], jobs=1)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cfg.n_chunks == 200_000
        assert result.n_errors == 100_000  # every chunk counted once
        assert peak < 1_000_000

    def test_a_threaded_run_builds_each_link_once(self, monkeypatch):
        # a config builds its link when it is built, so no run, serial or threaded, builds one
        pin_cpus(monkeypatch, 2)
        calls = []
        real = simulator._operating_point

        def counted(n, snr_db):
            calls.append(n)
            return real(n, snr_db)

        monkeypatch.setattr(simulator, "_operating_point", counted)
        configs = [ScenarioConfig(n_samples=n, snr_db=-5.0, n_bits=3 * CHUNK_TRIALS,
                                  master_seed=seed) for n, seed in ((10, 43), (1000, 59))]
        assert calls == [10, 1000]
        for jobs in (1, 2):
            run_ber_grid(configs, jobs=jobs)
            assert calls == [10, 1000], jobs

    def test_a_one_shot_iterable_gives_the_lists_results(self, monkeypatch):
        # the configs are read once, so a generator runs every point, serial or threaded
        pin_cpus(monkeypatch, 2)
        for jobs in (1, 2):
            results = run_ber_grid((cfg for cfg in self.CONFIGS), jobs=jobs)
            assert results == run_ber_grid(list(self.CONFIGS), jobs=jobs), jobs
