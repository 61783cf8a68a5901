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

Sweeps: ``sweep_sum_rates`` returns one curve per (|rho|, g) pair of its
grids, rho-major, and ``sweep_sum_rate`` is its one-curve case.  For the
target and cap that all curves of a call share, N_alpha is a function of
the SU SNR alone, so the alpha > 0 points of every curve are searched in
one rising-SNR order, each below the last N_alpha found, with probes
placed by the detector's large-deviation P_e(N) (see ``find_n_alpha``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._domain import N_MAX, check
from . import detector
from .detector import db_to_linear
from .weights import closed_form_norms

DEFAULT_PE_TARGET = 1e-5
_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


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
    check("gamma", gamma)
    check("g", g)
    return _su_snr(alpha, closed_form_norms(alpha, rho_mag), g, gamma)


def _su_snr(alpha: float, norms: tuple[float, float, float], g: float, gamma: float) -> float:
    # su_snr for a g and gamma checked by the caller, from closed_form_norms(alpha, rho_mag)
    _, norm1_sq, xi = norms
    snr = gamma * g * g * alpha * norm1_sq / xi
    if not math.isfinite(snr):
        raise ValueError(
            f"gamma_db and g give a link budget gamma * g**2 that overflows a double "
            f"(gamma = {gamma:g}, g = {g:g})"
        )
    return snr


def find_n_alpha(
    snr: float, pe_target: float = DEFAULT_PE_TARGET, n_max: int = N_MAX
) -> int | None:
    """Smallest integration length N with P_e below the target at linear SU SNR ``snr``.

    P_e at the optimal threshold is monotone decreasing in N for a fixed
    SNR, so every search that keeps the bracket pe(lo) >= target > pe(hi)
    until hi - lo == 1 returns the same N.  This one starts from lo = 0,
    where the detector has no samples and guesses, so pe(0) = 1/2 > target
    costs no evaluation, and from hi = n_max, its first evaluation.  At the
    optimal threshold delta* = c N both Gamma tails share the Chernoff
    exponent e = c - 1 - ln c, so f(N) = ln P_e(N) - ln target is about
    A - N e - ln(N) / 2 with A in closed form (Bahadur & Rao 1960); each
    probe sits at the root of that model, shifted to pass through the last
    exact f, which usually lands within one N of the answer.  After 4 such
    probes, or at once where rounding leaves the model no gap, the search
    bisects, so it costs at most 5 + ceil(log2(n_max)) evaluations.
    Returns None when n_max misses the target, and with no evaluation when
    snr is below the floor where ``optimal_threshold`` can place no
    threshold in double precision (snr = 0 included, as at alpha = 0, where
    P_e = 0.5 for every N).  n_max must be an integer in [1, detector.N_MAX].
    """
    check("snr", snr)
    log_target = math.log(check("pe_target", pe_target))
    return _n_alpha(snr, log_target, check("n_max", n_max))


def _n_alpha(snr: float, log_target: float, cap: int, met: int | None = None) -> int | None:
    # find_n_alpha for a snr and cap checked by the caller, and ln(pe_target); a known
    # met <= cap that meets the target closes the bracket at met with no evaluation
    s_total = snr + 1.0  # optimal_threshold's arithmetic, taken once per point
    gap = 1.0 - 1.0 / s_total
    if gap <= 0.0:  # optimal_threshold's floor: no threshold in double precision
        return None
    log_s_total = math.log(s_total)
    c = log_s_total / gap  # delta* / N; both tails fall as exp(-N e) there
    e, ends = c - 1.0 - math.log(c), (1.0 - 1.0 / c, s_total / c - 1.0)
    guided = e > 0.0 and min(ends) > 0.0  # not so near the snr floor, where c rounds to ~1
    base = math.log(0.5 / ends[0] + 0.5 / ends[1]) - _LN_SQRT_2PI - log_target if guided else 0.0

    def excess(n):  # f(N), negative once N meets the target
        return detector._log_pe(n, snr, n * log_s_total / gap) - log_target

    def model(n):  # the large-deviation f(N), less the shift by which it misses
        return base - n * e - 0.5 * math.log(n)

    lo, hi, shift = 0, met or cap, 0.0  # invariant: excess(lo) >= 0 > excess(hi)
    if met is None:  # excess(0) = ln 0.5 - ln target >= 0: with no samples P_e is 1/2
        f_n = excess(cap)
        if f_n >= 0.0:
            return None
        shift = f_n - model(cap)
    guides = 4 if guided else 0  # model probes left before the search falls back to bisection
    while hi - lo > 1:
        n = (lo + hi) // 2
        if guides:
            guides, x = guides - 1, hi - 1.0
            for _ in range(3):  # Newton steps to the model's root, kept inside the bracket
                x = min(max(x + (model(x) + shift) / (e + 0.5 / x), lo + 1.0), hi - 1.0)
            n = math.ceil(x)
        f_n = excess(n)
        shift = f_n - model(n)
        lo, hi = (lo, n) if f_n < 0.0 else (n, hi)
    return hi


def default_alpha_grid() -> np.ndarray:
    """200 log-spaced alphas over [1e-4, 0.99]."""
    return np.logspace(-4, math.log10(0.99), 200)


def sweep_sum_rates(
    gamma_db: float,
    rho_grid,
    g_grid,
    alpha_grid=None,
    pe_target: float = DEFAULT_PE_TARGET,
    n_max: int = N_MAX,
) -> list[list[SumRatePoint]]:
    """Evaluate the sum rate over an alpha grid for every (rho, g) curve, rho-major.

    alpha = 0 entries report the no-modulation baseline log2(1 + gamma)
    with no SU rate; all other entries use the modulated-regime PU rate
    with the solver-consistent xi.  Every point of rho_grid and g_grid and
    the scalar arguments are checked before any search, so a grid with no
    alpha > 0 lets none of them through unread.

    N_alpha depends only on the SU SNR (for the pe_target and n_max that all
    curves share), so the alpha > 0 points of all curves are solved together
    in rising SU-SNR order (a stable sort, so tied SNRs keep curve and grid
    order) and each curve's rows come back in grid order.  P_e falls in N
    and in the SNR, so once a point meets the target at N_alpha = met, every
    later point meets it at met too: its search brackets (0, met] with no
    evaluation at met, and a tie costs the one probe at met - 1.  Only the
    points up to the first reachable one evaluate n_max.
    """
    rho_grid = [check("rho_mag", rho) for rho in rho_grid]
    g_grid = [check("g", g) for g in g_grid]
    log_target = math.log(check("pe_target", pe_target))
    check("n_max", n_max)
    gamma = db_to_linear(check("gamma_db", gamma_db))
    if alpha_grid is None:
        alpha_grid = default_alpha_grid()
    alphas = [float(alpha) for alpha in alpha_grid]
    curves = [(rho, g) for rho in rho_grid for g in g_grid]
    norms = {(rho, alpha): closed_form_norms(alpha, rho) for rho in rho_grid for alpha in alphas
             if alpha != 0.0}  # the norms hang on (rho, alpha) only, not on g
    snrs = {(c, i): _su_snr(alpha, norms[rho, alpha], g, gamma) for c, (rho, g) in enumerate(curves)
            for i, alpha in enumerate(alphas) if alpha != 0.0}
    n_alphas = {}
    met = None  # the last N_alpha found, an upper bound for every later point
    for point, snr in sorted(snrs.items(), key=lambda item: item[1]):
        met = _n_alpha(snr, log_target, n_max, met)
        n_alphas[point] = met
    return [[_point(alpha, norms.get((rho, alpha)), gamma, n_alphas.get((c, i)))
             for i, alpha in enumerate(alphas)] for c, (rho, _) in enumerate(curves)]


def sweep_sum_rate(
    gamma_db: float,
    rho_mag: float,
    g: float,
    alpha_grid=None,
    pe_target: float = DEFAULT_PE_TARGET,
    n_max: int = N_MAX,
) -> list[SumRatePoint]:
    """The sum rate over an alpha grid for one (rho, g) curve.

    This is ``sweep_sum_rates`` with one-point rho and g grids, so one curve
    is checked and solved exactly as each curve of a multi-curve call is.
    """
    return sweep_sum_rates(gamma_db, [rho_mag], [g], alpha_grid, pe_target, n_max)[0]


def _point(alpha: float, norms, gamma: float, n_alpha: int | None) -> SumRatePoint:
    """One curve row: the PU rate from closed_form_norms at alpha > 0, plus 1/N_alpha."""
    if alpha == 0.0:
        pu_rate = math.log2(1.0 + gamma)
    else:
        _, _, xi = norms
        pu_rate = math.log2(1.0 + gamma / xi * (1.0 - alpha))
    su_rate = 1.0 / n_alpha if n_alpha is not None else 0.0
    return SumRatePoint(
        alpha=alpha, n_alpha=n_alpha, pu_rate=pu_rate, su_rate=su_rate, total=pu_rate + su_rate
    )
