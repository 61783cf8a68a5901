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

from .detector import (
    N_MAX, check_count, check_n, check_nonnegative, db_to_linear, log_error_probability,
    optimal_threshold,
)
from .weights import closed_form_norms

DEFAULT_PE_TARGET = 1e-5


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
    check_nonnegative("gamma", gamma)
    check_nonnegative("g", g)
    _, norm1_sq, xi = closed_form_norms(alpha, rho_mag)
    return gamma * g * g * alpha * norm1_sq / xi


def _check_search(pe_target: float, n_max: int) -> None:
    if not (0.0 < pe_target < 0.5):
        raise ValueError("pe_target must be in (0, 0.5)")
    check_n("n_max", check_count("n_max", n_max))


def find_n_alpha(
    snr: float, pe_target: float = DEFAULT_PE_TARGET, n_max: int = N_MAX
) -> int | None:
    """Smallest integration length N with P_e below the target at linear SU SNR ``snr``.

    P_e at the optimal threshold is monotone decreasing in N for a fixed
    SNR, so every search that keeps the bracket pe(lo) >= target > pe(hi)
    until hi - lo == 1 returns the same N.  This one probes with Illinois
    steps (Dowell & Jarratt 1971) on f(N) = ln P_e(N) - ln target, which is
    exact for any target and nearly linear in N because the error exponent
    is; a probe that leaves more than half the bracket is followed by a
    bisection step, which caps the cost at about 2 log2(n_max) evaluations.
    Returns None when even n_max misses the target (including snr = 0, as
    at alpha = 0, where P_e = 0.5 for every N).  n_max must be an integer
    in [1, detector.N_MAX].
    """
    _check_search(pe_target, n_max)
    if check_nonnegative("snr", snr) == 0.0:
        return None
    log_target = math.log(pe_target)

    def excess(n):  # f(N), negative once N meets the target
        return log_error_probability(n, snr, optimal_threshold(n, snr)) - log_target

    lo, hi = 1, n_max  # invariant: excess(lo) >= 0 > excess(hi)
    f_hi = excess(hi)
    if f_hi >= 0.0:
        return None
    f_lo = excess(lo)
    if f_lo < 0.0:
        return 1
    moved = None  # the end the last probe replaced
    bisect = False  # set after a probe that left more than half the bracket
    while hi - lo > 1:
        width = hi - lo
        n = (lo + hi) // 2 if bisect else lo + round(width * f_lo / (f_lo - f_hi))
        n = min(max(n, lo + 1), hi - 1)
        f_n = excess(n)
        if f_n < 0.0:
            hi, f_hi = n, f_n
            if moved == "hi":
                f_lo *= 0.5
            moved = "hi"
        else:
            lo, f_lo = n, f_n
            if moved == "lo":
                f_hi *= 0.5
            moved = "lo"
        bisect = not bisect and 2 * (hi - lo) > width
    return hi


def default_alpha_grid() -> np.ndarray:
    """200 log-spaced alphas over [1e-4, 0.99]."""
    return np.logspace(-4, math.log10(0.99), 200)


def sweep_sum_rate(
    gamma_db: float,
    rho_mag: float,
    g: float,
    alpha_grid=None,
    pe_target: float = DEFAULT_PE_TARGET,
    n_max: int = N_MAX,
) -> list[SumRatePoint]:
    """Evaluate the sum rate over an alpha grid for one (rho, g) curve.

    alpha = 0 entries report the no-modulation baseline log2(1 + gamma)
    with no SU rate; all other entries use the modulated-regime PU rate
    with the solver-consistent xi.  The scalar arguments are checked here,
    so a grid with no alpha > 0 lets none of them through unread.
    """
    if not (0.0 <= rho_mag < 1.0):
        raise ValueError(f"rho_mag must be in [0, 1), got {rho_mag!r}")
    check_nonnegative("g", g)
    _check_search(pe_target, n_max)
    gamma = db_to_linear(gamma_db)
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
            n_alpha = find_n_alpha(su_snr(alpha, rho_mag, g, gamma), pe_target, n_max)
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
