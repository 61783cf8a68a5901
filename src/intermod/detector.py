"""Analytic model of the SU's non-coherent energy detector.

The SU integrates the received power over N samples.  With i.i.d.
circularly-symmetric complex Gaussian samples, the per-sample power is
exponential and the N-sample energy is Gamma-distributed with shape N and
scale (sigma_r^2 + sigma_n^2) under an OOK one, or sigma_n^2 under an OOK
zero.  The minimum-error threshold equates the two conditional densities,
and the error probability reduces to regularized incomplete gamma tails.

The tails and P_e are evaluated in the log domain, so N up to ~1e6 works
without overflowing Gamma(N) and P_e far below 1e-308 keeps its exact log.
"""

from __future__ import annotations

import math

import numpy as np

_EPS = 1e-16
_ITMAX = 10_000_000


def db_to_linear(db: float) -> float:
    """10^(db/10); raises ValueError unless the result is positive and finite."""
    try:
        value = 10.0 ** (db / 10.0)
    except OverflowError:
        value = math.inf
    if not (0.0 < value < math.inf):
        raise ValueError(f"{db!r} dB is not a positive finite ratio in double precision")
    return value


def log_gamma_tails(s: float, x: float) -> tuple[float, float]:
    """(ln P, ln Q) of the regularized incomplete gammas P(s, x) and Q = 1 - P.

    The series gives ln P for x < s + 1 and the Lentz continued fraction
    gives ln Q otherwise; the other tail is the complement.  The prefactor
    x^s e^-x / Gamma(s) stays a log, so no tail underflows; for s >= 1 the
    relative error is a few ulp of s ln s (~1e-9 at s = 1e6).  Raises
    ValueError for non-finite input and when a loop hits its iteration cap.
    """
    _require_finite(s=s, x=x)
    if s <= 0.0:
        raise ValueError(f"s must be positive, got {s!r}")
    if x < 0.0:
        raise ValueError(f"x must be nonnegative, got {x!r}")
    if x == 0.0:
        return -math.inf, 0.0
    log_prefactor = s * math.log(x) - x - math.lgamma(s)
    if x < s + 1.0:
        log_p = math.log(_lower_gamma_series(s, x)) + log_prefactor
        return log_p, _log_complement(log_p)
    log_q = math.log(_upper_gamma_cf(s, x)) + log_prefactor
    return _log_complement(log_q), log_q


def _require_finite(**values) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _no_convergence(loop: str, s: float, x: float) -> ValueError:
    return ValueError(f"{loop} did not converge in {_ITMAX} iterations for s={s!r}, x={x!r}")


def _log_complement(log_tail: float) -> float:
    # ln(1 - e^a); a tail that rounds to 1 leaves nothing for the other
    return math.log(-math.expm1(log_tail)) if log_tail < 0.0 else -math.inf


def _lower_gamma_series(s: float, x: float) -> float:
    ap = s
    term = total = 1.0 / s
    for _ in range(_ITMAX):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    else:
        raise _no_convergence("incomplete gamma series", s, x)
    return total


def _upper_gamma_cf(s: float, x: float) -> float:
    # Q(s, x) without its prefactor by the modified Lentz method, x >= s + 1
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
    else:
        raise _no_convergence("incomplete gamma continued fraction", s, x)
    return h


def optimal_threshold(n: int, sigma_r_sq: float, sigma_n_sq: float) -> float:
    """Error-minimizing energy threshold delta*.

    delta* = N ln((sigma_r^2 + sigma_n^2) / sigma_n^2)
             / (1/sigma_n^2 - 1/(sigma_r^2 + sigma_n^2)),

    the positive crossing point of the two conditional Gamma densities.
    Raises ValueError when sigma_r^2 is too small against sigma_n^2 for the
    two densities to differ in double precision.
    """
    _require_finite(n=n, sigma_r_sq=sigma_r_sq, sigma_n_sq=sigma_n_sq)
    if n < 1:
        raise ValueError("n must be >= 1")
    if sigma_r_sq <= 0.0 or sigma_n_sq <= 0.0:
        raise ValueError("variances must be positive")
    s_total = sigma_r_sq + sigma_n_sq
    gap = 1.0 / sigma_n_sq - 1.0 / s_total
    if gap <= 0.0:
        raise ValueError(
            f"sigma_r_sq / sigma_n_sq = {sigma_r_sq / sigma_n_sq:.3g} is too small "
            "to place a threshold in double precision"
        )
    return n * math.log(s_total / sigma_n_sq) / gap


def log_error_probability(n: int, sigma_r_sq: float, sigma_n_sq: float, threshold: float) -> float:
    """ln P_e of the OOK N-sample energy detector at a threshold delta.

    P_e = 0.5 * (Q(N, delta/sigma_n^2) + P(N, delta/(sigma_r^2+sigma_n^2)))

    summed in the log domain from the two incomplete gamma tails, so it is
    exact in both tails.  Degenerate sigma_r^2 = 0 gives exactly ln 0.5.
    """
    _require_finite(n=n, sigma_r_sq=sigma_r_sq, sigma_n_sq=sigma_n_sq, threshold=threshold)
    if n < 1:
        raise ValueError("n must be >= 1")
    if sigma_r_sq < 0.0 or sigma_n_sq <= 0.0:
        raise ValueError("invalid variances")
    if threshold < 0.0:
        raise ValueError("threshold must be nonnegative")
    if sigma_r_sq == 0.0:  # Q and P at one point sum to 1
        return math.log(0.5)
    log_fa = log_gamma_tails(n, threshold / sigma_n_sq)[1]  # false alarm: Q
    log_miss = log_gamma_tails(n, threshold / (sigma_r_sq + sigma_n_sq))[0]
    return math.log(0.5) + max(log_fa, log_miss) + math.log1p(math.exp(-abs(log_fa - log_miss)))


def error_probability(n: int, sigma_r_sq: float, sigma_n_sq: float, threshold: float) -> float:
    """exp(log_error_probability(...)); 0 where P_e underflows a double."""
    return math.exp(log_error_probability(n, sigma_r_sq, sigma_n_sq, threshold))


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
