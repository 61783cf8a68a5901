"""Monte Carlo BER against the analytic error probability.

A simulated N-sample energy detector (weight toggling per OOK bit, the
received OFDM samples plus AWGN) measured against the Gamma-model
prediction, for two integration lengths across an SNR sweep.  The samples
are i.i.d. complex Gaussian, so each bit's energy is drawn exactly, as one
Gamma(N) variate compared with the detector's tail point for that bit.
"""

import math

from intermod import ScenarioConfig, run_ber_grid

BITS = 50_000

print(f"{'N':>5} {'SNR dB':>7} {'simulated':>11} {'analytic':>11} {'|z|':>6}")
for n in (10, 100):
    for snr_db in (-10.0, -7.5, -5.0, -2.5, 0.0):
        cfg = ScenarioConfig(n_samples=n, snr_db=snr_db, n_bits=BITS, master_seed=7)
        res = run_ber_grid([cfg])[0]
        sigma = math.sqrt(res.analytic_pe * (1 - res.analytic_pe) / BITS)
        z = abs(res.ber - res.analytic_pe) / sigma if sigma else 0.0
        print(f"{n:>5} {snr_db:>7.1f} {res.ber:>11.5f} {res.analytic_pe:>11.5f} {z:>6.2f}")
    print()

print("Same seed, same result (reproducibility contract):")
cfg = ScenarioConfig(n_samples=10, snr_db=-5.0, n_bits=10_000, master_seed=123)
print(" ", run_ber_grid([cfg])[0])
print(" ", run_ber_grid([cfg])[0])
