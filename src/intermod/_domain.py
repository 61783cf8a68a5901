"""The domain of every public scalar parameter, stated once, and its one check.

DOMAINS maps a parameter name to (kind, bracket, lower, upper, bracket): kind
is int, float or complex (bounded in |value|); "[" or "]" closes an end and "("
or ")" opens it.  check converts a value before it compares it: a
numbers.Integral becomes a plain int (so a numpy integer, even an unsigned one,
computes as a Python int), and any other numbers.Real, or numbers.Complex for a
complex parameter, becomes a float or complex, so every real is compared and
computed as a double.  A bool (Python's or numpy's), a str, a Decimal, an array
of any rank or a complex where a real belongs is no number of its kind.  Counts
that size arrays have a ceiling, so an oversized request fails before it
allocates, and a dB value's ends are those of its ratio.  check runs once per
public call, and the library's own calls reuse what their caller checked: a P_e
evaluation checks N, snr and the threshold once, not again in each tail, and a
sum-rate sweep checks its grids, target and cap once, and its searches and P_e
probes run no check.  check runs per grid point, so it compares against bounds
closed in advance and formats a message only when it raises.
"""
from __future__ import annotations

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
_NUMBERS = {int: numbers.Integral, float: numbers.Real, complex: numbers.Complex}
_CLOSED = {  # (lower, upper, kind, its numbers ABC), an open end moved one double inward
    name: (math.nextafter(lo, hi) if lb == "(" else lo, math.nextafter(hi, lo) if rb == ")" else hi,
           kind, _NUMBERS[kind]) for name, (kind, lb, lo, hi, rb) in DOMAINS.items()
}


def check(name: str, value):
    """value as a plain int, float or complex, if it lies in the domain of ``name``; else
    ValueError.  An integral value is returned as an int, whatever the kind of ``name``."""
    lo, hi, kind, number_kind = _CLOSED[name]
    if isinstance(value, number_kind) and not isinstance(value, bool):  # numpy's bool is no number
        number = int(value) if isinstance(value, numbers.Integral) else kind(value)
        if lo <= (abs(number) if kind is complex else number) <= hi:
            return number
    raise ValueError(f"{name} must be {_requirement(name, value)}, got {value!r}")


def _requirement(name: str, value) -> str:
    """The row of ``name``: its interval, or "finite" where both ends are infinite."""
    kind, lb, lo, hi, rb = DOMAINS[name]
    text = f"in {lb}{lo}, {hi}{rb}" if lo > -inf else "finite"
    if kind is int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        text = f"an integer {text}"
    return f"{text}, not a bool" if type(value).__name__ == "bool" else text  # Python's or numpy's
