"""Waveform-level Monte Carlo validation of the analytic detector model.

Each OOK bit toggles the xi-normalized weight vector at the transmitter;
the SU receives a scaled OFDM sample stream plus AWGN and integrates N
sample powers against the detector threshold.  The measured BER is compared
against the analytic error probability for the same parameters.

The stream is continuous: a chunk of trials takes one 1/m-scaled IFFT of
ceil(trials * N / m) blocks of Gaussian symbols on m subcarriers and cuts
it into consecutive N-sample bit windows, not aligned to blocks.  The IFFT
is unitary up to scale, so the samples stay i.i.d. CN(0, 1/m).  A chunk
works in one buffer: the IFFT runs in place over the symbols, and the AWGN
is added through one reused slice of at most _NOISE_SLICE doubles, so one
chunk-sized array is live per chunk.

Reproducibility contract: a run is fully determined by the scenario's
master seed and the fixed sample budget CHUNK_SAMPLES.  A chunk holds
max(1, CHUNK_SAMPLES // N) trials and draws from its own RNG substream
spawned from (master_seed, chunk_index), so results do not depend on
execution order, on which process runs a chunk, or on the worker count.
"""

from __future__ import annotations

import functools
import itertools
import math
import multiprocessing
import os
from dataclasses import dataclass

import numpy as np

from .channel import make_correlated_pair
from .detector import (
    check_count, check_n, check_nonnegative, db_to_linear, error_probability, optimal_threshold,
)
from .weights import build_weight_set

#: Samples (trials x N) per RNG substream; fixed so chunk boundaries never
#: depend on the execution environment.
CHUNK_SAMPLES = 1 << 18
#: Doubles of AWGN drawn per slice; a normal draw is the same in pieces.
_NOISE_SLICE = 1 << 15


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one BER measurement point; the counts and the seed are integers."""

    n_samples: int
    snr_db: float
    n_bits: int
    alpha: float = 0.3
    rho_mag: float = 0.0
    rho_phase: float = 0.0
    g: float = 1.0
    k_antennas: int = 8
    m_subcarriers: int = 64
    master_seed: int = 0

    def __post_init__(self):
        for name in ("n_samples", "n_bits", "k_antennas", "m_subcarriers", "master_seed"):
            check_count(name, getattr(self, name))
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.n_bits < 1:
            raise ValueError("n_bits must be >= 1")
        check_n("n_samples", self.n_samples)
        if self.m_subcarriers < 1:
            raise ValueError("m_subcarriers must be >= 1")

    @property
    def chunk_trials(self) -> int:
        """Trials per chunk: the sample budget over N, at least one."""
        return max(1, CHUNK_SAMPLES // self.n_samples)

    @property
    def n_chunks(self) -> int:
        """Chunks the trials fill; the last one may be partial."""
        return -(-self.n_bits // self.chunk_trials)

    @functools.cached_property
    def link(self):
        """(gains, noise_std, threshold, analytic_pe) of the scenario.

        gains are the solved SU responses g * h_su^T omega_bit / sqrt(xi) to
        the two weight vectors.  sigma_r^2 = power1 = |gains[1]|^2 * sample_var,
        which equals sample_var * alpha g^2 / xi by the constraint construction.
        P_e comes from N and the linear SNR alone, as in ``theory``; sigma_n^2
        = power1 / snr sets noise_std and the absolute threshold.  For
        alpha = 0 the SNR is undefined, the noise floor defaults to sample_var,
        and P_e = 0.5.  Bit 0 is modelled as noise only, so an SNR whose noise
        floor is not far above the power of the bit-0 response (solver
        residue) is rejected.
        """
        pair = make_correlated_pair(
            self.k_antennas, self.rho_mag, self.rho_phase, seed=self.master_seed
        )
        check_nonnegative("g", self.g)
        weights = build_weight_set(pair, self.alpha)
        gains = np.array([self.g * complex(pair.h_su @ weights.tx_weight(bit)) for bit in (0, 1)])
        sample_var = 1.0 / self.m_subcarriers
        power0, power1 = (abs(complex(gain)) ** 2 * sample_var for gain in gains)
        snr = db_to_linear(self.snr_db)
        if power1 < 1e-18 * sample_var:  # nulled response leaves only solver residue
            return gains, math.sqrt(sample_var / 2.0), self.n_samples * sample_var, 0.5
        sigma_n_sq = power1 / snr
        if power0 >= 1e-12 * sigma_n_sq:
            raise ValueError(
                f"snr_db={self.snr_db:g} puts the noise floor within 1e12x of the power of "
                "the bit-0 solver residue; the detector model needs bit 0 to be noise only"
            )
        delta = optimal_threshold(self.n_samples, snr)
        pe = error_probability(self.n_samples, snr, delta)
        return gains, math.sqrt(sigma_n_sq / 2.0), sigma_n_sq * delta, pe


@dataclass(frozen=True)
class BerResult:
    """Measured BER with the matching analytic prediction."""

    n_bits: int
    n_errors: int
    ber: float
    analytic_pe: float
    per_point_ci95: float


def _chunk_energies(rng, n_trials, n, m, gains, noise_std):
    """(bits, energies) for ``n_trials`` equiprobable OOK bits, cut from one stream.

    Symbols are drawn as standard normal (re, im) pairs, so CN(0, 2); the
    1/sqrt(2) that makes them CN(0, 1) is folded into ``gains[bit]``.  The
    IFFT runs in place in the symbol buffer, AWGN with per-component std
    ``noise_std`` is drawn _NOISE_SLICE doubles at a time and added in
    place, and each window's power is summed over the real view.
    """
    bits = rng.integers(0, 2, size=n_trials)
    blocks = -(-n_trials * n // m)
    symbols = rng.standard_normal((blocks, m, 2)).view(np.complex128)[..., 0]
    np.fft.ifft(symbols, axis=1, out=symbols)
    received = symbols.reshape(-1)[: n_trials * n].reshape(n_trials, n)
    received *= (gains[bits] / math.sqrt(2.0))[:, None]
    parts = received.view(np.float64)
    flat = parts.reshape(-1)
    noise = np.empty(min(_NOISE_SLICE, flat.size))
    for start in range(0, flat.size, noise.size):
        piece = noise[: flat.size - start]
        rng.standard_normal(out=piece)
        piece *= noise_std
        flat[start : start + piece.size] += piece
    return bits, np.einsum("ij,ij->i", parts, parts)


def chunk_errors(config: ScenarioConfig, chunk: int) -> int:
    """Bit errors in chunk ``chunk`` of a scenario, from its own RNG substream."""
    gains, noise_std, threshold, _ = config.link
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=config.master_seed, spawn_key=(chunk,))
    )
    n_trials = min(config.chunk_trials, config.n_bits - chunk * config.chunk_trials)
    bits, energies = _chunk_energies(
        rng, n_trials, config.n_samples, config.m_subcarriers, gains, noise_std
    )
    return int(np.count_nonzero((energies > threshold) != bits))


def run_ber_grid(configs: list[ScenarioConfig], jobs: int = 1) -> list[BerResult]:
    """Monte Carlo BER per scenario from one ``chunk_errors`` task per (scenario, chunk).

    More than one worker maps the tasks over a pool of at most ``jobs``, one
    per task and per usable CPU.  Links resolve first, so bad input raises
    before any fork and the workers receive each link with its config.
    """
    if check_count("jobs", jobs) < 1:
        raise ValueError("jobs must be >= 1")
    analytic_pe = [config.link[3] for config in configs]
    tasks = [(config, chunk) for config in configs for chunk in range(config.n_chunks)]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(jobs, len(tasks), cpus or 1)
    if workers > 1:
        with multiprocessing.Pool(processes=workers) as pool:
            counts = iter(pool.starmap(chunk_errors, tasks))
    else:
        counts = itertools.starmap(chunk_errors, tasks)
    results = []
    for config, pe in zip(configs, analytic_pe):
        n_errors = sum(itertools.islice(counts, config.n_chunks))
        ber = n_errors / config.n_bits
        ci95 = 1.96 * math.sqrt(ber * (1.0 - ber) / config.n_bits)
        results.append(BerResult(config.n_bits, n_errors, ber, pe, ci95))
    return results
