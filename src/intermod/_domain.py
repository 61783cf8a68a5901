"""The domain of every public scalar parameter, stated once, and its one check.

DOMAINS maps a parameter name to (kind, bracket, lower, upper, bracket): kind
is int, float or complex (bounded in |value|); "[" or "]" closes an end and "("
or ")" opens it.  A value must be a finite number of its kind, not a bool
(Python's or numpy's); an int value may be a numpy integer, which check returns
as a plain int (an unsigned numpy one wraps in arithmetic).  Counts that size
arrays have a ceiling, so an oversized request fails before it allocates, and a
dB value's ends are those of its ratio.  check runs once per public call, and
the library's own calls reuse what their caller checked: a P_e evaluation
checks N, snr and the threshold once, not again in each tail, and a sum-rate
sweep checks its grids, target and cap once, and its searches and P_e probes
run no check.  check runs per grid point, so it compares against bounds closed
in advance and formats a message only when it raises.
"""

from __future__ import annotations

import cmath
import math
import numbers

inf = math.inf

#: Largest integration length N, and gamma shape s, the tails are checked for.
N_MAX = 10**6
DB_MAX = 3082.547155599167  # the last dB value whose ratio 10**(dB/10) is a finite double
GAMMA_DB_MIN = -3236.072453387798  # the first whose ratio is above 0
SNR_DB_MIN = -159.54589770191004  # the first where 1 + ratio > 1, so a threshold exists

_TABLE = (
    # names                               kind     domain
    ("n s",                               float,   "[", 1, N_MAX, "]"),
    ("n_samples n_max",                   int,     "[", 1, N_MAX, "]"),
    ("x snr threshold gamma energy",      float,   "[", 0, inf, ")"),
    ("scale xi",                          float,   "(", 0, inf, ")"),
    ("g",                                 float,   "[", 0, 10**6, "]"),  # 120 dB
    ("alpha rho_mag",                     float,   "[", 0, 1, ")"),
    ("pe_target",                         float,   "(", 0, 0.5, ")"),
    ("rho_phase",                         float,   "(", -inf, inf, ")"),
    ("snr_db",                            float,   "[", SNR_DB_MIN, DB_MAX, "]"),
    ("gamma_db",                          float,   "[", GAMMA_DB_MIN, DB_MAX, "]"),
    ("b_su b_pu",                         complex, "(", -inf, inf, ")"),
    ("n_bits bits jobs",                  int,     "[", 1, inf, ")"),
    ("master_seed seed",                  int,     "[", 0, inf, ")"),
    ("k",                                 int,     "[", 3, 1024, "]"),
    ("pdf_points count",                  int,     "[", 1, 10**5, "]"),
)
DOMAINS = {name: domain for names, *domain in _TABLE for name in names.split()}
_CLOSED = {  # (lower, upper, kind), an open end moved one double inward
    name: (math.nextafter(lo, hi) if lb == "(" else lo, math.nextafter(hi, lo) if rb == ")" else hi,
           kind) for name, (kind, lb, lo, hi, rb) in DOMAINS.items()
}


def check(name: str, value):
    """value, an integer as a plain int, if it lies in the domain of ``name``; else ValueError."""
    lo, hi, kind = _CLOSED[name]
    try:
        if lo <= (abs(value) if kind is complex else value) <= hi and (
            _is_int(value) if kind is int else type(value).__name__ != "bool"  # nor numpy's bool
        ):
            return int(value) if _is_int(value) else value
    except TypeError:  # not a number, or a complex where a real belongs
        pass
    raise ValueError(f"{name} must be {_requirement(name, value)}, got {value!r}")


def _requirement(name: str, value) -> str:
    kind, lb, lo, hi, rb = DOMAINS[name]
    if kind is int and not _is_int(value):
        return "an integer"
    if type(value).__name__ == "bool":  # Python's or numpy's: it compares as 0 or 1, so say why
        return f"{_requirement(name, 0.5)}, not a bool"
    if rb == ")" and hi < inf:
        return f"in {lb}{lo}, {hi})"
    zero = "nonnegative and finite" if lb == "[" else "positive"  # a real's lower end at 0
    words = [zero if kind is float and lo == 0 else f"{'>' if lb == '(' else '>='} {lo}"]
    words = (words if lo > -inf else []) + ([f"<= {hi}"] if hi < inf else [])
    finite = kind is int or isinstance(value, numbers.Number) and cmath.isfinite(value)
    text = " and ".join(words)
    return text if finite and text or "finite" in text else "finite"


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)
