"""Sum-rate analysis of the interference modulator.

The PU keeps a Shannon rate log2(1 + (gamma/xi)(1 - alpha)) under
modulation, where gamma is its normal-operation SNR; the SU contributes
1/N_alpha bit/s/Hz, with N_alpha the smallest integration length meeting a
target error probability.  alpha = 0 means no modulation at all, so those
points report the plain baseline log2(1 + gamma).

SU noise bookkeeping: the SU's per-sample OFDM SNR is taken as
``gamma * g^2 * alpha * |omega1|^2 / xi`` - the received-power formula
divided by a noise floor shared with the PU's normal-operation SNR
definition.  The subcarrier count cancels in this ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detector import error_probability, optimal_threshold
from .weights import closed_form_norms

DEFAULT_PE_TARGET = 1e-5
DEFAULT_N_MAX = 10**6


@dataclass(frozen=True)
class SumRatePoint:
    """One alpha sample of a sum-rate curve."""

    alpha: float
    n_alpha: int | None
    pu_rate: float
    su_rate: float
    total: float


def su_snr(alpha: float, rho_mag: float, g: float, gamma: float) -> float:
    """SU per-sample OFDM SNR (linear) implied by the power bookkeeping."""
    if gamma < 0.0 or g < 0.0:
        raise ValueError("gamma and g must be nonnegative")
    _, norm1_sq, xi = closed_form_norms(alpha, rho_mag)
    return gamma * g * g * alpha * norm1_sq / xi


def _pe_at(n: int, snr: float, pe_cache: dict) -> float:
    if n not in pe_cache:
        delta = optimal_threshold(n, snr, 1.0)
        pe_cache[n] = error_probability(n, snr, 1.0, delta)
    return pe_cache[n]


def find_n_alpha(
    alpha: float,
    rho_mag: float,
    g: float,
    gamma: float,
    pe_target: float = DEFAULT_PE_TARGET,
    n_max: int = DEFAULT_N_MAX,
) -> int | None:
    """Smallest integration length N with P_e below the target.

    P_e at the optimal threshold is monotone decreasing in N for a fixed
    SNR, so a binary search over [1, n_max] applies.  Returns None when
    even n_max misses the target (including alpha = 0, where the SU SNR is
    zero and P_e = 0.5 for every N).
    """
    if not (0.0 < pe_target < 0.5):
        raise ValueError("pe_target must be in (0, 0.5)")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    snr = su_snr(alpha, rho_mag, g, gamma)
    if snr <= 0.0:
        return None
    cache: dict = {}
    if _pe_at(n_max, snr, cache) >= pe_target:
        return None
    if _pe_at(1, snr, cache) < pe_target:
        return 1
    lo, hi = 1, n_max  # invariant: pe(lo) >= target > pe(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _pe_at(mid, snr, cache) < pe_target:
            hi = mid
        else:
            lo = mid
    return hi


def default_alpha_grid(n_points: int = 200) -> np.ndarray:
    """Log-spaced alpha grid over [1e-4, 0.99]."""
    return np.logspace(-4, math.log10(0.99), n_points)


def sweep_sum_rate(
    gamma_db: float,
    rho_mag: float,
    g: float,
    alpha_grid=None,
    pe_target: float = DEFAULT_PE_TARGET,
    n_max: int = DEFAULT_N_MAX,
) -> list[SumRatePoint]:
    """Evaluate the sum rate over an alpha grid for one (rho, g) curve.

    alpha = 0 entries report the no-modulation baseline log2(1 + gamma)
    with no SU rate; all other entries use the modulated-regime PU rate
    with the solver-consistent xi.
    """
    gamma = 10.0 ** (gamma_db / 10.0)
    if alpha_grid is None:
        alpha_grid = default_alpha_grid()
    points = []
    for alpha in alpha_grid:
        alpha = float(alpha)
        if alpha == 0.0:
            pu_rate = math.log2(1.0 + gamma)
            n_alpha = None
            su_rate = 0.0
        else:
            _, _, xi = closed_form_norms(alpha, rho_mag)
            pu_rate = math.log2(1.0 + gamma / xi * (1.0 - alpha))
            n_alpha = find_n_alpha(alpha, rho_mag, g, gamma, pe_target, n_max)
            su_rate = 1.0 / n_alpha if n_alpha is not None else 0.0
        points.append(
            SumRatePoint(
                alpha=alpha,
                n_alpha=n_alpha,
                pu_rate=pu_rate,
                su_rate=su_rate,
                total=pu_rate + su_rate,
            )
        )
    return points
