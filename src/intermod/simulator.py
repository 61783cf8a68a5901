"""Monte Carlo validation of the analytic detector model.

Each OOK bit toggles the xi-normalized weight vector at the transmitter;
the SU integrates N received sample powers against the detector threshold.
The measured BER is compared against the analytic error probability for
the same parameters.

The kernel works in noise units, as the detector does, and draws no OFDM
symbols and no samples.  The subcarrier symbols are Gaussian and the
1/m-scaled IFFT is unitary up to scale, so bit b's received samples are
exactly i.i.d. CN(0, P_b) whatever the block alignment, with P_0 = 1 (noise
only) and P_1 = 1 + snr; m scales the signal and the noise floor alike, so
it cancels.  A sum of N unit exponentials is exactly Gamma(N, 1), so bit b's
energy is P_b times a standard Gamma(N) variate, and the kernel compares
the variate itself with the point at which the detector takes its tail:
bit 0 errs above delta* (false alarm, Q(N, delta*)), bit 1 at or below
delta*/(1 + snr) (miss, P(N, delta*/(1 + snr))).  A ScenarioConfig holds
these points, the detector's own, from when it is built.  The bits are
i.i.d. fair and independent of the energies, so a chunk's trials are
exchangeable: it draws its bit-1 count once, ``ones`` ~ Binomial(trials,
1/2) (numpy's BTPE sampler, or inversion up to 60 trials), then one
standard Gamma(N) variate per trial (numpy's Marsaglia-Tsang sampler), the
first ``ones`` of them bit 1's.  The detector sees only the window energy,
so nothing it could measure is lost.

Reproducibility contract: a ``ber`` run is one seed tree, grown here.
Grid point i, counted N-major over the (N, SNR) grid, takes the master seed
SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(1, uint64)[0]
(``_grid_configs``); a scenario is then fully determined by its master seed
and the fixed trial budget CHUNK_TRIALS.  A chunk holds CHUNK_TRIALS trials
whatever N (the last one may hold fewer), since a trial costs one variate
at every N, and draws from its own RNG substream spawned from (master_seed,
chunk_index), so results do not depend on execution order, on which thread
runs a chunk, or on the worker count.

Scope: the subcarrier symbols are Gaussian, so the Monte Carlo checks the
code against the Gamma energy model, not the Gaussian-signal assumption
behind that model.  A constant-modulus alphabet would test the assumption
(by Parseval its energy over a whole OFDM block is constant) and would
need the IFFT back, but it is a feature and is out of scope for now.
"""

from __future__ import annotations

import itertools
import os
from collections.abc import Iterable
from dataclasses import dataclass, fields

import numpy as np

from ._domain import check
from .detector import _operating_point

#: Trials (bits) per RNG substream, whatever N, fixed so chunk boundaries
#: never depend on the execution environment.
CHUNK_TRIALS = 1 << 16


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one BER measurement point, each field stored as checked."""

    n_samples: int
    snr_db: float
    n_bits: int
    master_seed: int = 0

    def __post_init__(self):
        for field in fields(self):
            object.__setattr__(self, field.name, check(field.name, getattr(self, field.name)))
        # link = (x_fa, x_miss, analytic_pe): the detector's tail points (in units of sigma_n^2)
        # and P_e, set once; the snr_db domain leaves no link that fails
        object.__setattr__(self, "link", _operating_point(self.n_samples, self.snr_db)[1:])

    @property
    def n_chunks(self) -> int:
        """Chunks the trials fill; the last one may be partial."""
        return -(-self.n_bits // CHUNK_TRIALS)


@dataclass(frozen=True)
class BerResult:
    """Measured BER with the matching analytic prediction."""

    n_bits: int
    n_errors: int
    analytic_pe: float

    @property
    def ber(self) -> float:
        return self.n_errors / self.n_bits


def _grid_configs(n_grid, snr_grid, n_bits: int, seed: int) -> list[ScenarioConfig]:
    """One scenario per (N, SNR) grid point, N-major, each on its own master seed."""
    configs = []
    for point, (n, snr_db) in enumerate(itertools.product(n_grid, snr_grid)):
        seq = np.random.SeedSequence(entropy=seed, spawn_key=(point,))
        configs.append(ScenarioConfig(n_samples=n, snr_db=snr_db, n_bits=n_bits,
                                      master_seed=int(seq.generate_state(1, np.uint64)[0])))
    return configs


def _chunk_variates(rng, n_trials, n):
    """(ones, variates) for ``n_trials`` equiprobable OOK bits, one Gamma(N) draw per bit.

    ``ones`` ~ Binomial(n_trials, 1/2) is drawn first: the first ``ones``
    standard Gamma(N) variates are bit 1's, the rest bit 0's.
    """
    ones = int(rng.binomial(n_trials, 0.5))
    return ones, rng.standard_gamma(n, size=n_trials)


def chunk_errors(config: ScenarioConfig, chunk: int) -> int:
    """Bit errors in chunk ``chunk`` of a scenario, from its own RNG substream."""
    x_fa, x_miss, _ = config.link
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=config.master_seed, spawn_key=(chunk,))
    )
    n_trials = min(CHUNK_TRIALS, config.n_bits - chunk * CHUNK_TRIALS)
    ones, variates = _chunk_variates(rng, n_trials, config.n_samples)
    misses = np.count_nonzero(variates[:ones] <= x_miss)
    return int(misses + np.count_nonzero(variates[ones:] > x_fa))


def run_ber_grid(configs: Iterable[ScenarioConfig], jobs: int = 1) -> list[BerResult]:
    """Monte Carlo BER per scenario from one ``chunk_errors`` task per (scenario, chunk).

    In this process the tasks are generated as they run, never held in a
    list.  More than one worker maps them over a thread pool of at most
    ``jobs``, one per task and per usable CPU, whose task handler queues
    every batch at once, so there memory grows with the number of chunks.
    Threads parallelize the draws: numpy's bulk ``standard_gamma`` releases
    the GIL, and a full chunk's Python work, its one ``binomial`` draw
    included, is about 1% of its draws.  Each config holds its link, the
    detector's tail points, from when it was built, so a run computes none.
    """
    configs, jobs = list(configs), check("jobs", jobs)
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
            return _tally(configs, counts)
    return _tally(configs, itertools.starmap(chunk_errors, tasks))


def _tally(configs, counts):
    """One ``BerResult`` per config from its chunks' error counts, taken in task order."""
    return [BerResult(config.n_bits, sum(itertools.islice(counts, config.n_chunks)),
                      config.link[2]) for config in configs]
