"""Benchmark workloads: the intermod argv a user would type, built from a seed.

Each workload fixes the amount of work; the seed only changes values that
should not change the cost.  For ``ber`` the seed is the CLI ``--seed``.
For ``sumrate`` it draws the |rho| and g curve values, one value near the
centre of each equal-width stratum of a fixed range, so every seed sweeps
the same number of curves spread over the same range and the total cost
barely moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Workload:
    """One benchmark workload instance: the argv plus what its output must hold."""

    name: str
    why: str
    kind: str  # "ber" or "sumrate": selects the output check
    argv: tuple[str, ...]
    jobs: int
    points: int  # CSV data rows: (N, SNR) points or alpha points
    msamples: float  # Monte Carlo samples (bits x N), in millions; 0 for sumrate
    expect: dict = field(default_factory=dict)  # keyword arguments of the check


# Sizes are chosen so one invocation takes about one second on a 2-vCPU
# x86 machine, giving 12 to 25 timed calls inside a 20-second run.
BER_SWEEP_BITS = 8192  # 1 chunk of 8192 trials per point
BER_POINT_BITS = 8192  # 1 chunk at N = 1000 (about 0.66 GB peak)
LOWSNR_RHO, LOWSNR_G = 1, 2  # curves = rho values x g values
HIGHSNR_RHO, HIGHSNR_G = 2, 4
# The seed moves each curve value by at most this share of its stratum
# around the stratum's centre: the values differ between seeds, the cost
# (which depends steeply on rho and g at 0 dB) barely does.
JITTER = 0.1
RHO_RANGE = (0.0, 0.9)
G_RANGE = (0.5, 2.0)  # g >= 0.5 keeps N_alpha at 30 dB below ~1.2e5
ALPHA_POINTS = 200  # the CLI's default alpha grid
PE_TARGET = 1e-5  # CLI defaults the sumrate check relies on
N_MAX = 10**6

WHY = {
    "ber-sweep": "serial Monte Carlo over 10 (N, SNR) points; at N=10 each bit draws a 64-sample "
                 "OFDM block and uses 10, so less RNG waste shows here and parallelism cannot",
    "ber-point": "one long N=1000 point at --jobs 2: per-point jobs cannot split it, so chunk "
                 "parallelism shows here; draw efficiency is 0.977, so an RNG-waste fix should not",
    "sumrate-lowsnr": "gamma 0 dB: N_alpha up to ~1e6 and half the points unreachable, so "
                      "large-s incomplete gamma dominates; a large-s speedup shows here",
    "sumrate-highsnr": "gamma 30 dB: N_alpha below ~1.2e5, so bisection overhead and small-s "
                       "series/CF calls dominate; a large-s speedup should not move it",
}
NAMES = tuple(WHY)


def _ber(name: str, seed: int, n_grid: list[int], snr_spec: str, snr_grid: list[float],
         bits: int, jobs: int) -> Workload:
    argv = ("ber", "--n", ",".join(str(n) for n in n_grid), f"--snr-db={snr_spec}",
            "--bits", str(bits), "--jobs", str(jobs), "--seed", str(seed))
    return Workload(
        name=name, why=WHY[name], kind="ber", argv=argv, jobs=jobs,
        points=len(n_grid) * len(snr_grid),
        msamples=bits * sum(n_grid) * len(snr_grid) / 1e6,
        expect={"n_grid": n_grid, "snr_grid": snr_grid, "bits": bits},
    )


def _strata(rng: np.random.Generator, count: int, lo: float, hi: float, log: bool) -> list[float]:
    """One draw near the centre of each equal-width stratum of [lo, hi), to 6 decimals."""
    u = (np.arange(count) + 0.5 + JITTER * (rng.random(count) - 0.5)) / count
    if log:
        values = np.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))
    else:
        values = lo + u * (hi - lo)
    return [round(float(v), 6) for v in values]


def _sumrate(name: str, seed: int, gamma_db: float, n_rho: int, n_g: int) -> Workload:
    rng = np.random.default_rng(seed)
    rho = _strata(rng, n_rho, *RHO_RANGE, log=False)
    g = _strata(rng, n_g, *G_RANGE, log=True)
    argv = ("sumrate", "--gamma-db", f"{gamma_db:g}",
            "--rho", ",".join(f"{v:.6f}" for v in rho),
            "--g", ",".join(f"{v:.6f}" for v in g))
    return Workload(
        name=name, why=WHY[name], kind="sumrate", argv=argv, jobs=1,
        points=n_rho * n_g * ALPHA_POINTS, msamples=0.0,
        expect={"rho_grid": rho, "g_grid": g, "gamma_db": gamma_db,
                "alpha_grid": default_alpha_grid(), "pe_target": PE_TARGET, "n_max": N_MAX},
    )


def default_alpha_grid() -> list[float]:
    """The alpha grid the CLI documents as its default: 200 log-spaced in [1e-4, 0.99]."""
    return [float(a) for a in np.logspace(-4, math.log10(0.99), ALPHA_POINTS)]


def make_workload(name: str, seed: int) -> Workload:
    """Build workload ``name`` for ``seed``; equal seeds give equal argv."""
    if name == "ber-sweep":
        return _ber(name, seed, [10, 100], "-10:0:5", [-10.0, -7.5, -5.0, -2.5, 0.0],
                    BER_SWEEP_BITS, jobs=1)
    if name == "ber-point":
        return _ber(name, seed, [1000], "-10", [-10.0], BER_POINT_BITS, jobs=2)
    if name == "sumrate-lowsnr":
        return _sumrate(name, seed, 0.0, LOWSNR_RHO, LOWSNR_G)
    if name == "sumrate-highsnr":
        return _sumrate(name, seed, 30.0, HIGHSNR_RHO, HIGHSNR_G)
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(NAMES)}")
