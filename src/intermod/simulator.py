"""Waveform-level Monte Carlo validation of the analytic detector model.

Each OOK bit toggles the xi-normalized weight vector at the transmitter;
the SU receives a scaled OFDM sample stream plus AWGN and integrates N
sample powers against the detector threshold.  The measured BER is compared
against the analytic error probability for the same parameters.

Reproducibility contract: a run is fully determined by the scenario's
master seed.  Trials are processed in fixed-size chunks, each with its own
RNG substream spawned from (master_seed, chunk_index), so results do not
depend on execution order or parallelism degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import make_correlated_pair
from .detector import db_to_linear, error_probability, optimal_threshold
from .weights import build_weight_set

#: Trials per RNG substream; fixed so chunk boundaries never depend on the
#: execution environment.
CHUNK_TRIALS = 8192


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one BER measurement point."""

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
        if self.n_bits < 1:
            raise ValueError("n_bits must be >= 1")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.m_subcarriers < 1:
            raise ValueError("m_subcarriers must be >= 1")


@dataclass(frozen=True)
class BerResult:
    """Measured BER with the matching analytic prediction."""

    n_bits: int
    n_errors: int
    ber: float
    analytic_pe: float
    threshold: float
    per_point_ci95: float


def _chunk_energies(rng, n_trials, n, m, gains, noise_std):
    """(bits, energies) for ``n_trials`` equiprobable OOK bits.

    Each bit draws whole blocks of CN(0, 1) symbols on m subcarriers, takes
    a 1/m-scaled IFFT (so time samples are i.i.d. complex Gaussian with
    power 1/m), keeps the first n samples, scales them by ``gains[bit]``
    (the SU response to the transmitted weight vector), adds complex AWGN
    with per-component std ``noise_std`` and sums the sample powers.
    """
    bits = rng.integers(0, 2, size=n_trials)
    blocks_per_trial = -(-n // m)
    symbols = (
        rng.standard_normal((n_trials, blocks_per_trial, m))
        + 1j * rng.standard_normal((n_trials, blocks_per_trial, m))
    ) / math.sqrt(2.0)
    samples = np.fft.ifft(symbols, axis=2).reshape(n_trials, -1)[:, :n]
    noise = noise_std * (
        rng.standard_normal((n_trials, n)) + 1j * rng.standard_normal((n_trials, n))
    )
    received = gains[bits][:, None] * samples + noise
    return bits, np.sum(np.abs(received) ** 2, axis=1)


def _detector_params(config: ScenarioConfig, gains):
    """(sigma_n_sq, threshold, analytic_pe) for a scenario.

    sigma_r^2 is taken from the actual solved SU response
    gains[1] = g * h_su^T omega1 / sqrt(xi) as |gains[1]|^2 * sample_var, which
    equals sample_var * alpha g^2 / xi by the constraint construction;
    sigma_n^2 is back-solved from the requested SNR.  For alpha = 0 the SNR
    is undefined, the noise floor defaults to sample_var, and P_e = 0.5.
    Bit 0 is modelled as noise only, so an SNR whose noise floor is not far
    above the power of the bit-0 response (solver residue) is rejected.
    """
    sample_var = 1.0 / config.m_subcarriers
    gain0, gain1 = (complex(gain) for gain in gains)
    if abs(gain1) ** 2 < 1e-18:  # nulled response leaves only solver residue
        return sample_var, config.n_samples * sample_var, 0.5
    sigma_r_sq = abs(gain1) ** 2 * sample_var
    sigma_n_sq = sigma_r_sq / db_to_linear(config.snr_db)
    if abs(gain0) ** 2 * sample_var >= 1e-12 * sigma_n_sq:
        raise ValueError(
            f"snr_db={config.snr_db:g} puts the noise floor within 1e12x of the power of "
            "the bit-0 solver residue; the detector model needs bit 0 to be noise only"
        )
    threshold = optimal_threshold(config.n_samples, sigma_r_sq, sigma_n_sq)
    pe = error_probability(config.n_samples, sigma_r_sq, sigma_n_sq, threshold)
    return sigma_n_sq, threshold, pe


def run_ber(config: ScenarioConfig) -> BerResult:
    """Monte Carlo BER for one scenario, deterministic given the seed."""
    pair = make_correlated_pair(
        config.k_antennas,
        config.rho_mag,
        config.rho_phase,
        config.g,
        seed=config.master_seed,
    )
    weights = build_weight_set(pair, config.alpha)
    gains = np.array([pair.g * complex(pair.h_su @ weights.tx_weight(bit)) for bit in (0, 1)])
    sigma_n_sq, threshold, analytic_pe = _detector_params(config, gains)
    noise_std = math.sqrt(sigma_n_sq / 2.0)

    n_errors = 0
    n_chunks = -(-config.n_bits // CHUNK_TRIALS)
    for chunk in range(n_chunks):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=config.master_seed, spawn_key=(chunk,))
        )
        n_trials = min(CHUNK_TRIALS, config.n_bits - chunk * CHUNK_TRIALS)
        bits, energies = _chunk_energies(
            rng, n_trials, config.n_samples, config.m_subcarriers, gains, noise_std
        )
        n_errors += int(np.count_nonzero((energies > threshold) != bits))

    ber = n_errors / config.n_bits
    ci95 = 1.96 * math.sqrt(ber * (1.0 - ber) / config.n_bits)
    return BerResult(
        n_bits=config.n_bits,
        n_errors=n_errors,
        ber=ber,
        analytic_pe=analytic_pe,
        threshold=threshold,
        per_point_ci95=ci95,
    )
