"""Waveform-level Monte Carlo validation of the analytic detector model.

Each OOK bit toggles the xi-normalized weight vector at the transmitter;
the SU receives a scaled OFDM sample stream plus AWGN and integrates N
sample powers against the detector threshold.  The measured BER is compared
against the analytic error probability for the same parameters.

The kernel works in noise units, as the detector does (every power and the
threshold are divided by sigma_n^2), and draws no OFDM symbols and no
samples.  The subcarrier symbols are Gaussian and the 1/m-scaled IFFT is
unitary up to scale, so bit b's received samples are exactly i.i.d.
CN(0, P_b) whatever the block alignment, with P_1 = 1 + snr and P_0 = 1:
bit 0 is noise only.  Each sample's power is then P_b times a
unit exponential, and a sum of N independent unit exponentials is exactly
Gamma(N, 1).  The bits are i.i.d. fair and independent of the energies, so
a chunk's trials are exchangeable: it draws its bit-1 count once, ``ones``
~ Binomial(trials, 1/2) (numpy's BTPE sampler, or inversion up to 60
trials), then one standard Gamma(N) variate per trial (numpy's
Marsaglia-Tsang sampler), and scales the first ``ones`` variates by P_1
and the rest by P_0.  The detector sees only the window energy, so nothing
it could measure is lost.  The m subcarriers scale the signal and the
noise floor alike, so m cancels and the code carries none.

Reproducibility contract: a run is fully determined by the scenario's
master seed and the fixed trial budget CHUNK_TRIALS.  A chunk holds
CHUNK_TRIALS trials whatever N (the last one may hold fewer), since a trial
costs one variate at every N, and draws from its own RNG substream spawned
from (master_seed, chunk_index), so results do not depend on execution
order, on which thread runs a chunk, or on the worker count.

Scope: the subcarrier symbols are Gaussian, so the Monte Carlo checks the
code against the Gamma energy model, not the Gaussian-signal assumption
behind that model.  A constant-modulus alphabet would test the assumption
(by Parseval its energy over a whole OFDM block is constant) and would
need the IFFT back, but it is a feature and is out of scope for now.
"""

from __future__ import annotations

import functools
import itertools
import os
from dataclasses import dataclass, fields

import numpy as np

from ._domain import CHUNK_TRIALS, check
from .detector import db_to_linear, error_probability, optimal_threshold


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one BER measurement point, each field checked against its domain."""

    n_samples: int
    snr_db: float
    n_bits: int
    master_seed: int = 0

    def __post_init__(self):
        for field in fields(self):
            check(field.name, getattr(self, field.name))

    #: Trials per chunk, the same for every N.
    chunk_trials = CHUNK_TRIALS

    @property
    def n_chunks(self) -> int:
        """Chunks the trials fill; the last one may be partial."""
        return -(-self.n_bits // self.chunk_trials)

    @functools.cached_property
    def link(self):
        """(power0, power1, threshold, analytic_pe) of the scenario, in units of sigma_n^2.

        Bit 0 is noise only and bit 1 adds the SU's per-sample SNR, so the
        window powers are 1 and 1 + snr; the threshold and P_e come from N
        and the SNR alone, as in ``theory``.
        """
        try:  # the dB value overflows, or lies below the threshold's floor
            snr = db_to_linear(self.snr_db)
            delta = optimal_threshold(self.n_samples, snr)
        except ValueError as exc:
            raise ValueError(f"snr_db={self.snr_db:g}: {exc}") from exc
        return 1.0, 1 + snr, delta, error_probability(self.n_samples, snr, delta)


@dataclass(frozen=True)
class BerResult:
    """Measured BER with the matching analytic prediction."""

    n_bits: int
    n_errors: int
    analytic_pe: float

    @property
    def ber(self) -> float:
        return self.n_errors / self.n_bits


def _chunk_energies(rng, n_trials, n, power0, power1):
    """(ones, energies) for ``n_trials`` equiprobable OOK bits, one Gamma(N) draw per bit.

    ``ones`` ~ Binomial(n_trials, 1/2) is drawn first: the first ``ones``
    energies are bit 1's, the rest bit 0's.  A bit's N received samples are
    i.i.d. complex Gaussian with window power ``power1`` or ``power0``, so
    its energy is exactly that power times a standard Gamma(N) variate,
    scaled in place.
    """
    ones = int(rng.binomial(n_trials, 0.5))
    energies = rng.standard_gamma(n, size=n_trials)
    with np.errstate(over="ignore"):  # +inf decides bit 1, as the exact energy would
        energies[:ones] *= power1
    energies[ones:] *= power0
    return ones, energies


def chunk_errors(config: ScenarioConfig, chunk: int) -> int:
    """Bit errors in chunk ``chunk`` of a scenario, from its own RNG substream."""
    power0, power1, threshold, _ = config.link
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=config.master_seed, spawn_key=(chunk,))
    )
    n_trials = min(config.chunk_trials, config.n_bits - chunk * config.chunk_trials)
    ones, energies = _chunk_energies(rng, n_trials, config.n_samples, power0, power1)
    misses = np.count_nonzero(energies[:ones] <= threshold)
    return int(misses + np.count_nonzero(energies[ones:] > threshold))


def run_ber_grid(configs: list[ScenarioConfig], jobs: int = 1) -> list[BerResult]:
    """Monte Carlo BER per scenario from one ``chunk_errors`` task per (scenario, chunk).

    The tasks are generated as they run, never held in a list.  More than
    one worker maps them over a thread pool of at most ``jobs``, one per
    task and per usable CPU.  Threads parallelize the draws: numpy's bulk
    ``standard_gamma`` releases the GIL, and a full chunk's Python work,
    its one ``binomial`` draw included, is about 1% of its draws.  Links
    resolve first, so bad input raises before any worker starts, and every
    thread reads the same link.
    """
    check("jobs", jobs)
    analytic_pe = [config.link[3] for config in configs]
    tasks = ((config, chunk) for config in configs for chunk in range(config.n_chunks))
    n_tasks = sum(config.n_chunks for config in configs)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(jobs, n_tasks, cpus or 1)
    if workers > 1:
        from multiprocessing.pool import ThreadPool  # only where a pool runs

        with ThreadPool(processes=workers) as pool:
            # starmap's batching: about four batches per worker
            chunksize = -(-n_tasks // (4 * workers))
            counts = pool.imap(lambda task: chunk_errors(*task), tasks, chunksize)
            return _tally(configs, analytic_pe, counts)
    return _tally(configs, analytic_pe, itertools.starmap(chunk_errors, tasks))


def _tally(configs, analytic_pe, counts):
    """One ``BerResult`` per config from its chunks' error counts, taken in task order."""
    results = []
    for config, pe in zip(configs, analytic_pe):
        n_errors = sum(itertools.islice(counts, config.n_chunks))
        results.append(BerResult(config.n_bits, n_errors, pe))
    return results
