"""Energy-detector statistics for the secondary user.

The SU integrates N sample powers; the energy is Gamma(N, scale) with
scale sigma_n^2 for an OOK zero and sigma_r^2 + sigma_n^2 for an OOK one.
The detector model works in noise units (sigma_n^2 = 1), so each density
is Gamma(N, 1) or Gamma(N, 1 + snr) and the threshold is delta*/sigma_n^2.
This script shows the two conditional densities, the error-minimizing
threshold where they cross, and how the error probability falls with N.
"""

import math

import numpy as np

from intermod import energy_pdf, log_error_probability, optimal_threshold

for snr_db in (0.0, 5.0):
    snr = 10 ** (snr_db / 10)
    print(f"SNR = {snr_db:g} dB (linear {snr:g}, energies in units of sigma_n^2)")
    for n in (1, 10, 100, 1000):
        delta = optimal_threshold(n, snr)
        pe = math.exp(log_error_probability(n, snr, delta))
        f0 = energy_pdf(delta, n, 1.0)
        f1 = energy_pdf(delta, n, 1.0 + snr)
        print(
            f"  N={n:>5d}  delta*={delta:>10.3f}  Pe={pe:.3e}  "
            f"density gap at delta*: {abs(f0 - f1):.1e}"
        )
    print()

print("Coarse ASCII sketch of the two densities (N=10, SNR=5 dB):")
n, snr = 10, 10 ** 0.5
delta = optimal_threshold(n, snr)
eps = np.linspace(0.1, 80, 60)
f0 = energy_pdf(eps, n, 1.0)
f1 = energy_pdf(eps, n, 1.0 + snr)
peak = max(f0.max(), f1.max())
for e, a, b in zip(eps, f0, f1):
    bar0 = int(40 * a / peak) * "0"
    bar1 = int(40 * b / peak) * "1"
    marker = " <-- delta*" if abs(e - delta) < (eps[1] - eps[0]) / 2 else ""
    print(f"{e:6.1f} |{bar0}{bar1}{marker}")
