"""Analytic model of the SU's non-coherent energy detector.

The SU integrates the received power over N samples.  With i.i.d.
circularly-symmetric complex Gaussian samples, the per-sample power is
exponential.  The model works in noise units: divided by sigma_n^2, the
N-sample energy is Gamma-distributed with shape N and scale 1 + snr under
an OOK one, or 1 under an OOK zero, so every function takes N and the
linear snr = sigma_r^2 / sigma_n^2, and a caller with a physical noise floor
multiplies the threshold by sigma_n^2.  The minimum-error threshold equates
the two conditional densities, and the error probability reduces to
regularized incomplete gamma tails.

The tails and P_e are evaluated in the log domain, so N up to N_MAX = 1e6
works without overflowing Gamma(N) and P_e far below 1e-308 keeps its exact
log.  N above N_MAX is rejected: the tails are not checked there.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

#: Largest integration length N, and gamma shape s, the tails are checked for.
N_MAX = 10**6

_EPS = 1e-16
_ITMAX = 10_000_000
_HEAD = 32  # series terms summed one by one before the numpy blocks
_BLOCK = 1 << 14  # most series terms per numpy block


def db_to_linear(db: float) -> float:
    """10^(db/10); raises ValueError unless the result is positive and finite."""
    try:
        value = 10.0 ** (db / 10.0)
    except OverflowError:
        value = math.inf
    if not (0.0 < value < math.inf):
        raise ValueError(f"{db!r} dB is not a positive finite ratio in double precision")
    return value


def check_n(name: str, value):
    """value, if it lies in the checked domain [1, N_MAX] of N; else ValueError."""
    if not 1 <= value <= N_MAX:
        raise ValueError(f"{name} must be >= 1 and <= {N_MAX}, got {value!r}")
    return value


def check_count(name: str, value):
    """value, if it is an int or a numpy integer; else ValueError."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def check_nonnegative(name: str, value):
    """value, if it is finite and >= 0; else ValueError (NaN and +-inf included)."""
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be nonnegative and finite, got {value!r}")
    return value


def log_gamma_tails(s: float, x: float) -> tuple[float, float]:
    """(ln P, ln Q) of the regularized incomplete gammas P(s, x) and Q = 1 - P.

    The series gives ln P for x < s + 1 and the Lentz continued fraction
    gives ln Q otherwise; the other tail is the complement.  The series is
    summed in numpy blocks after a short scalar head, bit-identical to the
    term-by-term loop, so its O(sqrt(s)) terms near x = s stay cheap at
    large s.  The prefactor x^s e^-x / Gamma(s) stays a log, so no tail
    underflows; the relative error is a few ulp of s ln s (~1e-9 at
    s = 1e6).  Raises ValueError for s outside [1, N_MAX], non-finite
    input, or a loop at its iteration cap.
    """
    _require_finite(s=s, x=x)
    check_n("s", s)  # the stated accuracy holds there; callers pass s = N
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
    # sum_k x^k / (s (s+1) ... (s+k)); _ITMAX caps the terms, head and blocks
    ap = s
    term = total = 1.0 / s
    for _ in range(min(_HEAD, _ITMAX)):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            return total
    done = _HEAD
    while done < _ITMAX:
        # A block of n terms, sized to reach the stop test: each term is
        # x / ap times the last, a decay of c = ln((ap+1)/x) per term that
        # grows by about 1/span, and the test needs ln(term/(total eps)) of
        # it, so n solves c n + n^2 / (2 span) = left.  The ufunc
        # accumulates run in order, so each entry gets the loop's rounding.
        span = ap + _BLOCK
        c = math.log((ap + 1.0) / x)
        left = math.log(term / (total * _EPS))
        n = 2.0 * left / (c + math.sqrt(c * c + 2.0 * left / span))
        n = min(int(n) + 2, _BLOCK, _ITMAX - done)
        aps = np.full(n + 1, 1.0)
        aps[0] = ap
        np.add.accumulate(aps, out=aps)
        terms = np.divide(x, aps)
        terms[0] = term
        np.multiply.accumulate(terms, out=terms)
        totals = terms.copy()
        totals[0] = total
        np.add.accumulate(totals, out=totals)
        stop = terms < totals * _EPS  # terms are positive; entry 0 failed already
        i = stop.argmax()
        if stop[i]:
            return float(totals[i])
        ap, term, total = aps[-1], terms[-1], totals[-1]
        done += n
    raise _no_convergence("incomplete gamma series", s, x)


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


def _check_snr(n, snr, **more) -> None:
    _require_finite(n=n, snr=snr, **more)
    if n < 1:
        raise ValueError("n must be >= 1")
    if snr < 0.0:
        raise ValueError(f"snr must be nonnegative, got {snr!r}")


def optimal_threshold(n: int, snr: float) -> float:
    """Error-minimizing energy threshold delta*, in units of sigma_n^2.

    delta* = N ln(1 + snr) / (1 - 1/(1 + snr)),

    the positive crossing point of the two conditional Gamma densities.
    Raises ValueError when snr is too small for the two densities to differ
    in double precision.
    """
    _check_snr(n, snr)
    s_total = snr + 1.0
    gap = 1.0 - 1.0 / s_total
    if gap <= 0.0:
        raise ValueError(f"snr = {snr:.3g} is too small to place a threshold in double precision")
    return n * math.log(s_total) / gap


def log_error_probability(n: int, snr: float, threshold: float) -> float:
    """ln P_e of the OOK N-sample energy detector at a threshold delta (noise units).

    P_e = 0.5 * (Q(N, delta) + P(N, delta/(1 + snr)))

    summed in the log domain from the two incomplete gamma tails, so it is
    exact in both tails.  Degenerate snr = 0 gives exactly ln 0.5.
    """
    _check_snr(n, snr, threshold=threshold)
    if threshold < 0.0:
        raise ValueError("threshold must be nonnegative")
    if snr == 0.0:  # Q and P at one point sum to 1
        return math.log(0.5)
    log_fa = log_gamma_tails(n, threshold)[1]  # false alarm: Q
    log_miss = log_gamma_tails(n, threshold / (snr + 1.0))[0]
    return math.log(0.5) + max(log_fa, log_miss) + math.log1p(math.exp(-abs(log_fa - log_miss)))


def error_probability(n: int, snr: float, threshold: float) -> float:
    """exp(log_error_probability(...)); 0 where P_e underflows a double."""
    return math.exp(log_error_probability(n, snr, threshold))


def energy_pdf(epsilon, n: int, scale: float):
    """Gamma(shape n, scale) density of the N-sample symbol energy.

    Evaluated in the log domain; accepts scalars or arrays of energies.
    """
    _require_finite(n=n, scale=scale)
    if n < 1:
        raise ValueError("n must be >= 1")
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    eps = np.asarray(epsilon, dtype=float)
    if not np.all((eps >= 0.0) & (eps < math.inf)):
        raise ValueError("energy must be nonnegative and finite")
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


def mixture_energy_pdf(epsilon, n: int, snr: float):
    """Unconditional symbol-energy density for equiprobable OOK bits (noise units).

    Equal-weight mixture of the bit-1 density (scale 1 + snr) and the bit-0
    density (scale 1).
    """
    _check_snr(n, snr)
    return 0.5 * energy_pdf(epsilon, n, snr + 1.0) + 0.5 * energy_pdf(epsilon, n, 1.0)
