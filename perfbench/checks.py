"""Output checks for the CLI's CSV, against scipy as an independent oracle.

Each check returns a list of problems; an empty list means the output is
correct.  The analytic error probability of the N-sample energy detector at
its optimal threshold depends only on N and the linear SNR s:

    delta = N ln(1 + s) (1 + s) / s
    P_e   = (Q(N, delta) + P(N, delta / (1 + s))) / 2

with P and Q scipy's regularized incomplete gammas.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy.special import gammainc, gammaincc

BER_Z = 6.0  # error counts must lie within this many binomial sigmas of theory
PE_RTOL = 1e-9  # analytic_pe vs oracle; the CSV carries 12 significant digits
BRACKET_RTOL = 1e-7  # N_alpha bracket slack; adjacent N differ by >= 2e-5 relative
VALUE_RTOL = 1e-10  # recomputed closed-form values vs 12-digit CSV values


def oracle_pe(n, snr):
    """Energy-detector error probability at the optimal threshold (vectorized)."""
    n = np.asarray(n, dtype=float)
    snr = np.asarray(snr, dtype=float)
    delta = n * np.log1p(snr) * (1.0 + snr) / snr
    return 0.5 * (gammaincc(n, delta) + gammainc(n, delta / (1.0 + snr)))


def parse_csv(text: str) -> tuple[list[str], list[dict]]:
    """Split a CLI CSV into its '#' manifest lines and its data rows."""
    lines = text.splitlines()
    comments = [line for line in lines if line.startswith("#")]
    rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
    return comments, rows


def data_lines(text: str) -> list[str]:
    """The CSV without its manifest and footer comments."""
    return [line for line in text.splitlines() if not line.startswith("#")]


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + 1e-300


def check_ber(text: str, n_grid, snr_grid, bits: int) -> list[str]:
    """Check a ``ber`` CSV: grid, internal consistency, oracle P_e and a z-band."""
    _, rows = parse_csv(text)
    grid = [(n, s) for n in n_grid for s in snr_grid]
    if len(rows) != len(grid):
        return [f"expected {len(grid)} rows, got {len(rows)}"]
    problems = []
    for i, ((n, snr_db), row) in enumerate(zip(grid, rows)):
        try:
            rn, rsnr = int(row["n"]), float(row["snr_db"])
            n_bits, n_err = int(row["n_bits"]), int(row["n_errors"])
            ber, pe, ci95 = float(row["ber"]), float(row["analytic_pe"]), float(row["ci95"])
            within = row["within_3sigma"]
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"row {i}: unreadable ({exc})")
            continue
        where = f"row {i} (n={n}, snr_db={snr_db:g})"
        if rn != n or not _close(rsnr, snr_db, VALUE_RTOL) or n_bits != bits:
            problems.append(f"{where}: grid/bits mismatch ({rn}, {rsnr}, {n_bits})")
            continue
        if not 0 <= n_err <= n_bits:
            problems.append(f"{where}: n_errors {n_err} out of range")
            continue
        if not _close(ber, n_err / n_bits, VALUE_RTOL):
            problems.append(f"{where}: ber {ber} != n_errors/n_bits")
        if not _close(ci95, 1.96 * math.sqrt(ber * (1.0 - ber) / n_bits), VALUE_RTOL):
            problems.append(f"{where}: ci95 {ci95} inconsistent with ber")
        band3 = 3.0 * math.sqrt(pe * (1.0 - pe) / n_bits)
        if within != ("1" if abs(ber - pe) <= band3 else "0"):
            problems.append(f"{where}: within_3sigma={within} inconsistent")
        expected_pe = float(oracle_pe(n, 10.0 ** (snr_db / 10.0)))
        if not _close(pe, expected_pe, PE_RTOL):
            problems.append(f"{where}: analytic_pe {pe} != oracle {expected_pe}")
        sigma = math.sqrt(n_bits * expected_pe * (1.0 - expected_pe))
        if abs(n_err - n_bits * expected_pe) > BER_Z * sigma + 1.0:
            problems.append(f"{where}: {n_err} errors, expected {n_bits * expected_pe:.1f} "
                            f"+- {BER_Z:g} sigma ({sigma:.1f})")
    return problems


def closed_form_xi(alpha: float, rho: float) -> tuple[float, float]:
    """(|omega1|^2, xi) for phase-aligned minimum-norm weights."""
    denom = 1.0 - rho * rho
    norm0_sq = (1.0 - alpha) / denom
    norm1_sq = (1.0 - 2.0 * math.sqrt(alpha * (1.0 - alpha)) * rho) / denom
    return norm1_sq, 0.5 * (norm0_sq + norm1_sq)


def check_sumrate(text: str, rho_grid, g_grid, gamma_db: float, alpha_grid,
                  pe_target: float, n_max: int) -> list[str]:
    """Check a ``sumrate`` CSV: grid, rates from the closed form, and that
    each N_alpha is the smallest N meeting the target by the oracle."""
    _, rows = parse_csv(text)
    grid = [(r, g, a) for r in rho_grid for g in g_grid for a in alpha_grid]
    if len(rows) != len(grid):
        return [f"expected {len(grid)} rows, got {len(rows)}"]
    gamma = 10.0 ** (gamma_db / 10.0)
    problems = []
    met_n, met_snr, met_idx, unmet_snr, unmet_idx = [], [], [], [], []
    for i, ((rho, g, alpha), row) in enumerate(zip(grid, rows)):
        where = f"row {i} (rho={rho:g}, g={g:g}, alpha={alpha:.6g})"
        try:
            vals = [float(row[k]) for k in ("rho_mag", "g", "alpha", "pu_rate", "su_rate", "total")]
            n_alpha = int(row["n_alpha"]) if row["n_alpha"] != "" else None
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"row {i}: unreadable ({exc})")
            continue
        r_rho, r_g, r_alpha, pu, su, total = vals
        if not (_close(r_rho, rho, VALUE_RTOL) and _close(r_g, g, VALUE_RTOL)
                and _close(r_alpha, alpha, VALUE_RTOL)):
            problems.append(f"{where}: grid mismatch ({r_rho}, {r_g}, {r_alpha})")
            continue
        norm1_sq, xi = closed_form_xi(alpha, rho)
        expected_su = 0.0 if n_alpha is None else 1.0 / n_alpha
        expected_pu = math.log2(1.0 + gamma / xi * (1.0 - alpha))
        for label, got, want in (("pu_rate", pu, expected_pu), ("su_rate", su, expected_su),
                                 ("total", total, expected_pu + expected_su)):
            if not _close(got, want, VALUE_RTOL):
                problems.append(f"{where}: {label} {got} != {want}")
        snr = gamma * g * g * alpha * norm1_sq / xi
        if n_alpha is None:
            unmet_snr.append(snr)
            unmet_idx.append(i)
        elif not 1 <= n_alpha <= n_max:
            problems.append(f"{where}: n_alpha {n_alpha} outside [1, {n_max}]")
        else:
            met_n.append(n_alpha)
            met_snr.append(snr)
            met_idx.append(i)
    if met_n:
        n = np.array(met_n, dtype=float)
        at_n = oracle_pe(n, met_snr)
        below = oracle_pe(np.maximum(n - 1.0, 1.0), met_snr)
        for j, i in enumerate(met_idx):
            if at_n[j] >= pe_target * (1.0 + BRACKET_RTOL):
                problems.append(f"row {i}: P_e({met_n[j]}) = {at_n[j]:.6g} misses {pe_target:g}")
            if met_n[j] > 1 and below[j] < pe_target * (1.0 - BRACKET_RTOL):
                problems.append(f"row {i}: P_e({met_n[j] - 1}) = {below[j]:.6g} already "
                                f"meets {pe_target:g}; n_alpha is not the smallest")
    if unmet_snr:
        at_max = oracle_pe(np.full(len(unmet_snr), float(n_max)), unmet_snr)
        for j, i in enumerate(unmet_idx):
            if at_max[j] < pe_target * (1.0 - BRACKET_RTOL):
                problems.append(f"row {i}: no n_alpha, but P_e({n_max}) = {at_max[j]:.6g} "
                                f"meets {pe_target:g}")
    return problems


CHECKS = {"ber": check_ber, "sumrate": check_sumrate}
