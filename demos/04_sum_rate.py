"""Sum-rate sweep: when does interference modulation pay off?

For each channel correlation, alpha is swept and the PU's reduced Shannon
rate is combined with the SU's 1/N_alpha OOK rate.  Low correlation with a
comparable SU gain beats the 9.97 b/s/Hz no-modulation baseline; high
correlation burns too much power nulling the SU.
"""

import math

import numpy as np

from intermod import sweep_sum_rate

GAMMA_DB = 30.0
BASELINE = math.log2(1 + 10 ** (GAMMA_DB / 10))

print(f"baseline (no modulation, gamma = {GAMMA_DB:g} dB): {BASELINE:.2f} b/s/Hz")
print()
for g in (1.0, 0.5):
    for rho in (0.1, 0.5, 0.9):
        points = sweep_sum_rate(GAMMA_DB, rho, g)
        totals = [p.total for p in points]
        best = points[int(np.argmax(totals))]
        gain = best.total - BASELINE
        print(
            f"g={g:.1f} |rho|={rho:.1f}: peak {best.total:6.3f} b/s/Hz at "
            f"alpha={best.alpha:.3f} (N_alpha={best.n_alpha}), "
            f"{'+' if gain >= 0 else ''}{gain:.3f} vs baseline"
        )
    print()

print("One curve in detail (g=1, |rho|=0.1):")
points = sweep_sum_rate(GAMMA_DB, 0.1, 1.0, alpha_grid=np.linspace(0.01, 0.9, 12))
print(f"{'alpha':>7} {'N_alpha':>8} {'PU rate':>8} {'SU rate':>8} {'total':>7}")
for p in points:
    n_str = str(p.n_alpha) if p.n_alpha is not None else "-"
    print(f"{p.alpha:>7.3f} {n_str:>8} {p.pu_rate:>8.3f} {p.su_rate:>8.3f} {p.total:>7.3f}")
