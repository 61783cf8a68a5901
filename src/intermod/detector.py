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

``find_n_alpha`` inverts P_e: it returns N_alpha, the shortest integration
length at which the detector, at its optimal threshold, meets a target P_e.
Every threshold here, the search's included, comes from one private core.
"""

from __future__ import annotations

import math

from ._domain import N_MAX, check

_EPS = 2.0**-52  # a Lentz factor within one ulp of 1 ends its continued fraction
_ITMAX = 10_000_000
_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
DEFAULT_PE_TARGET = 1e-5


def db_to_linear(db: float) -> float:
    """10^(db/10), positive and finite for a db in the snr_db or gamma_db domain."""
    return 10.0 ** (db / 10.0)


def log_gamma_tails(s: float, x: float) -> tuple[float, float]:
    """(ln P, ln Q) of the regularized incomplete gammas P(s, x) and Q = 1 - P.

    One continued fraction gives ln P for x < s and another gives ln Q
    otherwise; the other tail is the complement, at least 1/e.  Split at s,
    neither meets a zero denominator, so neither needs a guard.  Both run
    the modified Lentz method until a factor lies within one ulp of 1, which
    takes the most steps near x = s: about 9.5 s^(1/3) for Q and 5.7 s^(1/3)
    pairs for P (955 and 573 at s = 1e6).  The prefactor x^s e^-x / Gamma(s)
    stays a log, so no tail underflows; the relative error is a few ulp of
    s ln s (~1e-9 at s = 1e6).  Raises ValueError for s outside [1, N_MAX],
    non-finite input, or a loop at its iteration cap.
    """
    s = check("s", s)  # the stated accuracy holds there; callers pass s = N
    return _log_tails(s, check("x", x), math.lgamma(s))


def _log_tails(s: float, x: float, lgamma_s: float) -> tuple[float, float]:
    # (ln P, ln Q) for s and x checked by the caller: the continued fraction that converges at
    # x gives one tail, below 1 - 1/e as P(s, x) < P(s, s) <= P(1, 1) for x < s and Q(s, x) <=
    # Q(s, s) < 1/2 for x >= s, so the other, its complement, is at least 1/e
    if x == 0.0:
        return -math.inf, 0.0
    log_prefactor = s * math.log(x) - x - lgamma_s
    if x < s:
        log_p = math.log(_lower_gamma_cf(s, x)) + log_prefactor
        return log_p, math.log(-math.expm1(log_p))
    log_q = math.log(_upper_gamma_cf(s, x)) + log_prefactor
    return math.log(-math.expm1(log_q)), log_q


def _no_convergence(s: float, x: float) -> ValueError:
    return ValueError("incomplete gamma continued fraction did not converge in "
                      f"{_ITMAX} iterations for s={s!r}, x={x!r}")


def _lower_gamma_cf(s: float, x: float) -> float:
    # P(s, x) without its prefactor by the modified Lentz method, x < s (DLMF sec. 8.9):
    # 1/(s + a1/(s+1 + a2/(s+2 + ...))) with the pairs a = -(s+k-1) x, then k x.  At term j,
    # c is s + 1 for j = 1, then at least s + j for even j and above j - 1 for odd j, and so
    # is every denominator past the first, which is s + 1 - x > 1: none needs a guard
    b = s
    c = math.inf
    d = h = 1.0 / b
    for k in range(1, _ITMAX):
        for an in (-(s + k - 1.0) * x, k * x):
            b += 1.0
            d = an * d + b
            c = b + an / c
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) <= _EPS:
            break
    else:
        raise _no_convergence(s, x)
    return h


def _upper_gamma_cf(s: float, x: float) -> float:
    # Q(s, x) without its prefactor by the modified Lentz method, x >= s.  There b >= 2i + 1,
    # a = i(s - i) >= 0 up to i = s and |a| over the last denominator is at most i - s past it,
    # so at step i the denominator and c are both at least i + 1: neither needs a guard
    b = x + 1.0 - s
    c = math.inf
    d = h = 1.0 / b
    for i in range(1, _ITMAX):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        c = b + an / c
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= _EPS:
            break
    else:
        raise _no_convergence(s, x)
    return h


def optimal_threshold(n: int, snr: float) -> float:
    """Error-minimizing energy threshold delta*, in units of sigma_n^2.

    delta* = N ln(1 + snr) / (1 - 1/(1 + snr)),

    the positive crossing point of the two conditional Gamma densities.
    Raises ValueError when snr is too small for the two densities to differ
    in double precision.
    """
    n, snr = check("n", n), check("snr", snr)
    delta = _optimal_threshold(n, snr)
    if delta is None:
        raise ValueError(f"snr = {snr:.3g} is too small to place a threshold in double precision")
    return delta


def _optimal_threshold(n: int, snr: float) -> float | None:
    # optimal_threshold for n and snr checked by the caller; None where 1 + snr rounds to
    # 1 (snr below ~1.1e-16), so the two densities do not differ in double precision
    s_total = snr + 1.0
    gap = 1.0 - 1.0 / s_total
    return n * math.log(s_total) / gap if gap > 0.0 else None


def log_error_probability(n: int, snr: float, threshold: float) -> float:
    """ln P_e of the OOK N-sample energy detector at a threshold delta (noise units).

    P_e = 0.5 * (Q(N, delta) + P(N, delta/(1 + snr)))

    summed in the log domain from the two incomplete gamma tails, so it is
    exact in both tails.  Degenerate snr = 0 gives exactly ln 0.5.
    """
    n = check("n", n)
    threshold = check("threshold", threshold)
    return _log_pe(n, check("snr", snr), threshold)


def _log_pe(n: int, snr: float, threshold: float) -> float:
    # log_error_probability for n, snr and threshold checked by the caller
    if snr == 0.0:  # Q and P at one point sum to 1
        return math.log(0.5)
    lgamma_n = math.lgamma(n)
    log_fa = _log_tails(n, threshold, lgamma_n)[1]  # false alarm: Q
    log_miss = _log_tails(n, threshold / (snr + 1.0), lgamma_n)[0]  # miss: P
    return math.log(0.5) + max(log_fa, log_miss) + math.log1p(math.exp(-abs(log_fa - log_miss)))


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
    bisects, so it costs at most 5 + ceil(log2(n_max)) evaluations; a search
    past that bound can only be a defect, and raises ValueError naming snr.
    Returns None when n_max misses the target, and with no evaluation when
    snr is below the floor where ``optimal_threshold`` can place no
    threshold in double precision (snr = 0 included, as at alpha = 0, where
    P_e = 0.5 for every N).  n_max must be an integer in [1, N_MAX].
    """
    snr = check("snr", snr)
    log_target = math.log(check("pe_target", pe_target))
    return _n_alpha(snr, log_target, check("n_max", n_max))


def _n_alpha(snr: float, log_target: float, cap: int, met: int | None = None) -> int | None:
    # find_n_alpha for a snr and cap checked by the caller, and ln(pe_target); a known
    # met <= cap that meets the target closes the bracket at met with no evaluation
    c = _optimal_threshold(1, snr)  # delta* / N; both tails fall as exp(-N e) there
    if c is None:
        return None
    e, ends = c - 1.0 - math.log(c), (1.0 - 1.0 / c, (snr + 1.0) / c - 1.0)
    guided = e > 0.0 and min(ends) > 0.0  # not so near the snr floor, where c rounds to ~1
    base = math.log(0.5 / ends[0] + 0.5 / ends[1]) - _LN_SQRT_2PI - log_target if guided else 0.0

    def excess(n):  # f(N), negative once N meets the target
        return _log_pe(n, snr, _optimal_threshold(n, snr)) - log_target

    def model(n):  # the large-deviation f(N), less the shift by which it misses
        return base - n * e - 0.5 * math.log(n)

    lo, hi, shift = 0, met or cap, 0.0  # invariant: excess(lo) >= 0 > excess(hi)
    if met is None:  # excess(0) = ln 0.5 - ln target >= 0: with no samples P_e is 1/2
        f_n = excess(cap)
        if f_n >= 0.0:
            return None
        shift = f_n - model(cap)
    guides = 4 if guided else 0  # model probes left before the search falls back to bisection
    probes = 4 + math.ceil(math.log2(cap))  # with excess(cap), the 5 + ceil(log2 cap) bound
    while hi - lo > 1:
        if not probes:
            raise ValueError(f"N_alpha search at snr={snr!r} left [{lo}, {hi}] open past its "
                             f"bound of 5 + ceil(log2 {cap}) evaluations")
        probes -= 1
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


def _operating_point(n: int, snr_db: float) -> tuple[float, float, float, float]:
    # (snr, delta*, delta*/(1 + snr), P_e) at a checked n and snr_db: the point theory prints
    # and ber simulates, with the two points at which _log_pe takes Q and P; snr_db's domain
    # gives a positive finite snr that has a threshold
    snr = db_to_linear(snr_db)
    delta = _optimal_threshold(n, snr)
    return snr, delta, delta / (snr + 1.0), math.exp(_log_pe(n, snr, delta))


def energy_pdf(epsilon, n: int, scale: float):
    """Gamma(shape n, scale) density of the N-sample symbol energy.

    Evaluated in the log domain; accepts scalars or arrays of energies.
    """
    n, scale, eps = check("n", n), check("scale", scale), _energies(epsilon)
    return _energy_pdf(eps, n, scale)


def mixture_energy_pdf(epsilon, n: int, snr: float):
    """Unconditional symbol-energy density for equiprobable OOK bits (noise units).

    Equal-weight mixture of the bit-1 density (scale 1 + snr) and the bit-0
    density (scale 1).
    """
    n, snr, eps = check("n", n), check("snr", snr), _energies(epsilon)
    return 0.5 * _energy_pdf(eps, n, snr + 1.0) + 0.5 * _energy_pdf(eps, n, 1.0)


def _energies(epsilon):
    # epsilon as a float array, every energy checked through its min and max
    import numpy as np  # the only vector code here, so the scalar analytics load without numpy
    eps = np.asarray(epsilon, dtype=float)
    check("energy", float(eps.min(initial=0.0)))  # NaN if any energy is
    check("energy", float(eps.max(initial=0.0)))
    return eps


def _energy_pdf(eps, n: int, scale: float):
    # energy_pdf for a float array eps and an n and scale checked by the caller
    import numpy as np
    with np.errstate(divide="ignore", invalid="ignore"):  # at 0: density 0, or NaN if n = 1
        out = np.exp((n - 1) * np.log(eps) - eps / scale - math.lgamma(n) - n * math.log(scale))
    if n == 1:
        out = np.where(eps == 0.0, 1.0 / scale, out)
    return float(out) if eps.ndim == 0 else out
