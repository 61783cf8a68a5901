"""Analytic model of the SU's non-coherent energy detector.

The SU integrates the received power over N samples.  With i.i.d.
circularly-symmetric complex Gaussian samples, the per-sample power is
exponential and the N-sample energy is Gamma-distributed with shape N and
scale (sigma_r^2 + sigma_n^2) under an OOK one, or sigma_n^2 under an OOK
zero.  The minimum-error threshold equates the two conditional densities,
and the error probability reduces to regularized lower incomplete gamma
terms.

All heavy-tailed quantities are evaluated in the log domain so that large N
(up to ~1e6) works without overflowing Gamma(N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_EPS = 1e-16
_ITMAX = 10_000_000


@dataclass(frozen=True)
class DetectorModel:
    """Energy detector parameters: (N, sigma_r^2, sigma_n^2, threshold).

    sigma_r_sq = 0 is allowed only for degenerate cases (P_e = 0.5).
    """

    n_samples: int
    sigma_r_sq: float
    sigma_n_sq: float
    threshold: float

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.sigma_r_sq < 0.0:
            raise ValueError("sigma_r_sq must be nonnegative")
        if self.sigma_n_sq <= 0.0:
            raise ValueError("sigma_n_sq must be positive")
        if self.threshold <= 0.0:
            raise ValueError("threshold must be positive")

    @classmethod
    def with_optimal_threshold(cls, n_samples, sigma_r_sq, sigma_n_sq):
        return cls(
            n_samples=n_samples,
            sigma_r_sq=sigma_r_sq,
            sigma_n_sq=sigma_n_sq,
            threshold=optimal_threshold(n_samples, sigma_r_sq, sigma_n_sq),
        )

    def error_probability(self) -> float:
        return error_probability(
            self.n_samples, self.sigma_r_sq, self.sigma_n_sq, self.threshold
        )


def regularized_lower_gamma(s: float, x: float) -> float:
    """Regularized lower incomplete gamma P(s, x) = gamma(s, x) / Gamma(s).

    Series expansion for x < s + 1, continued fraction otherwise; both are
    iterated to machine convergence with log-domain prefactors, accurate to
    ~1e-12 absolute for s up to at least 1e6.
    """
    if s <= 0.0:
        raise ValueError(f"s must be positive, got {s!r}")
    if x < 0.0:
        raise ValueError(f"x must be nonnegative, got {x!r}")
    if x == 0.0:
        return 0.0
    if x < s + 1.0:
        return _lower_gamma_series(s, x)
    return 1.0 - _upper_gamma_cf(s, x)


def _gamma_prefactor(s: float, x: float) -> float:
    # exp(-x + s ln x - ln Gamma(s)); underflows cleanly to 0 for extreme tails
    arg = -x + s * math.log(x) - math.lgamma(s)
    return math.exp(arg) if arg > -745.0 else 0.0


def _lower_gamma_series(s: float, x: float) -> float:
    ap = s
    term = total = 1.0 / s
    for _ in range(_ITMAX):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * _gamma_prefactor(s, x)


def _upper_gamma_cf(s: float, x: float) -> float:
    # modified Lentz continued fraction for Q(s, x), valid for x >= s + 1
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, _ITMAX):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * _gamma_prefactor(s, x)


def optimal_threshold(n: int, sigma_r_sq: float, sigma_n_sq: float) -> float:
    """Error-minimizing energy threshold delta*.

    delta* = N ln((sigma_r^2 + sigma_n^2) / sigma_n^2)
             / (1/sigma_n^2 - 1/(sigma_r^2 + sigma_n^2)),

    the positive crossing point of the two conditional Gamma densities.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if sigma_r_sq <= 0.0 or sigma_n_sq <= 0.0:
        raise ValueError("variances must be positive")
    s_total = sigma_r_sq + sigma_n_sq
    return n * math.log(s_total / sigma_n_sq) / (1.0 / sigma_n_sq - 1.0 / s_total)


def error_probability(n: int, sigma_r_sq: float, sigma_n_sq: float, threshold: float) -> float:
    """OOK error probability for an N-sample energy detector at a threshold.

    P_e = 0.5 * (1 - P(N, delta/sigma_n^2) + P(N, delta/(sigma_r^2+sigma_n^2)))

    with P the regularized lower incomplete gamma; result clamped to
    [0, 0.5].  Degenerate sigma_r^2 = 0 gives exactly 0.5.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if sigma_r_sq < 0.0 or sigma_n_sq <= 0.0:
        raise ValueError("invalid variances")
    if threshold < 0.0:
        raise ValueError("threshold must be nonnegative")
    false_alarm = 1.0 - regularized_lower_gamma(n, threshold / sigma_n_sq)
    miss = regularized_lower_gamma(n, threshold / (sigma_r_sq + sigma_n_sq))
    return min(max(0.5 * (false_alarm + miss), 0.0), 0.5)


def energy_pdf(epsilon, n: int, scale: float):
    """Gamma(shape n, scale) density of the N-sample symbol energy.

    Evaluated in the log domain; accepts scalars or arrays of energies.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    eps = np.asarray(epsilon, dtype=float)
    if np.any(eps < 0.0):
        raise ValueError("energy must be nonnegative")
    out = np.zeros_like(eps)
    pos = eps > 0.0
    log_pdf = (
        (n - 1) * np.log(eps, where=pos, out=np.zeros_like(eps))
        - eps / scale
        - math.lgamma(n)
        - n * math.log(scale)
    )
    out[pos] = np.exp(log_pdf[pos])
    if n == 1:
        out = np.where(eps == 0.0, 1.0 / scale, out)
    if np.isscalar(epsilon) or np.ndim(epsilon) == 0:
        return float(out)
    return out


def mixture_energy_pdf(epsilon, n: int, sigma_r_sq: float, sigma_n_sq: float):
    """Unconditional symbol-energy density for equiprobable OOK bits.

    Equal-weight mixture of the bit-1 density (scale sigma_r^2 + sigma_n^2)
    and the bit-0 density (scale sigma_n^2).
    """
    if sigma_r_sq < 0.0 or sigma_n_sq <= 0.0:
        raise ValueError("invalid variances")
    return 0.5 * energy_pdf(epsilon, n, sigma_r_sq + sigma_n_sq) + 0.5 * energy_pdf(
        epsilon, n, sigma_n_sq
    )
