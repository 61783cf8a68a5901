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

The closed-form weight norms live here, beside the link budget that uses
them, so the sum rate needs no vectors and no numpy.

Sweeps: ``sweep_sum_rates`` returns one curve per (|rho|, g) pair of its
grids, rho-major; one curve is ``sweep_sum_rates(gamma_db, [rho], [g])[0]``.
For the target and cap that all curves of a call share, N_alpha is a
function of the SU SNR alone, so the alpha > 0 points of every curve are
searched in one rising-SNR order, each below the last N_alpha found, by
the detector's search (``detector.find_n_alpha``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._domain import N_MAX, check
from . import detector
from .detector import DEFAULT_PE_TARGET, db_to_linear


def _norms(alpha: float, rho_mag: float, cross: float) -> tuple[float, float, float]:
    # cross is the cross-term coefficient: 2 matches the solver, 1 is the literature's
    alpha, rho_mag = check("alpha", alpha), check("rho_mag", rho_mag)
    denom = 1.0 - rho_mag**2
    norm0_sq = (1.0 - alpha) / denom
    norm1_sq = (1.0 - cross * math.sqrt(alpha) * math.sqrt(1.0 - alpha) * rho_mag) / denom
    xi = 0.5 * (norm0_sq + norm1_sq)
    return norm0_sq, norm1_sq, xi


def closed_form_norms(alpha: float, rho_mag: float) -> tuple[float, float, float]:
    """Closed-form (|omega0|^2, |omega1|^2, xi) for phase-aligned targets.

    |omega0|^2 = (1 - alpha) / (1 - |rho|^2)
    |omega1|^2 = (1 - 2 sqrt(alpha) sqrt(1-alpha) |rho|) / (1 - |rho|^2)
    xi         = (|omega0|^2 + |omega1|^2) / 2

    These match the solved vectors from ``weights.solve_min_norm`` to machine
    precision (the cross term carries the factor 2; see the ``weights``
    module docstring).
    """
    return _norms(alpha, rho_mag, 2.0)


def paper_closed_form_norms(alpha: float, rho_mag: float) -> tuple[float, float, float]:
    """Literature variant of the closed forms without the factor 2.

    |omega1|^2 = (1 - sqrt(alpha) sqrt(1-alpha) |rho|) / (1 - |rho|^2).
    Kept for comparison only; it disagrees with the solved vectors whenever
    alpha > 0 and |rho| > 0.
    """
    return _norms(alpha, rho_mag, 1.0)


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
    gamma, g, alpha = check("gamma", gamma), check("g", g), check("alpha", alpha)
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


def linspace(start: float, stop: float, count: int) -> list[float]:
    """np.linspace(start, stop, count) as a list, bit for bit unless the step rounds to 0.

    Point i is start + i * step and the last point is stop, as numpy spaces them.
    """
    step = (stop - start) / max(count - 1, 1)
    points = [start + i * step for i in range(count)]
    if count > 1:
        points[-1] = stop
    return points


def default_alpha_grid() -> list[float]:
    """200 log-spaced alphas over [1e-4, 0.99]: 10 ** e over the spaced exponents e."""
    return [10.0 ** e for e in linspace(-4.0, math.log10(0.99), 200)]


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
    with the solver-consistent xi.  Every point of rho_grid, g_grid and
    alpha_grid and the scalar arguments are checked before any search, so a
    grid with no alpha > 0 lets none of them through unread.

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
    n_max = check("n_max", n_max)
    gamma = db_to_linear(check("gamma_db", gamma_db))
    if alpha_grid is None:
        alpha_grid = default_alpha_grid()
    alphas = [float(check("alpha", alpha)) for alpha in alpha_grid]
    curves = [(rho, g) for rho in rho_grid for g in g_grid]
    norms = {(rho, alpha): closed_form_norms(alpha, rho) for rho in rho_grid for alpha in alphas
             if alpha != 0.0}  # the norms hang on (rho, alpha) only, not on g
    snrs = {(c, i): _su_snr(alpha, norms[rho, alpha], g, gamma) for c, (rho, g) in enumerate(curves)
            for i, alpha in enumerate(alphas) if alpha != 0.0}
    n_alphas = {}
    met = None  # the last N_alpha found, an upper bound for every later point
    for point, snr in sorted(snrs.items(), key=lambda item: item[1]):
        met = detector._n_alpha(snr, log_target, n_max, met)
        n_alphas[point] = met
    return [[_point(alpha, norms.get((rho, alpha)), gamma, n_alphas.get((c, i)))
             for i, alpha in enumerate(alphas)] for c, (rho, _) in enumerate(curves)]


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
