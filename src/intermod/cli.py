"""Command-line front end emitting deterministic CSV sweep tables.

Subcommands:
    weights - power-efficiency surface over (alpha, rho) grids
    theory  - analytic error probability / threshold tables, optional
              energy-PDF tabulation
    ber     - Monte Carlo BER vs analytic prediction over (N, SNR) grids
    sumrate - sum-rate curves over alpha per (rho, g) combination

Every CSV starts with '#'-prefixed manifest comment lines carrying the
resolved parameter set, so a result file is reproducible on its own.
Floating-point values are emitted with 12 significant digits; identical
invocations produce byte-identical files.

Grid-valued flags accept either a comma list ("1,10,100") or a
start:stop:count range ("0:1:11", linearly spaced, endpoints included).

Config precedence: command-line flags > config-file values > defaults.
The config file is flat "key = value" text; '#' starts a comment.  A key
the subcommand does not read is rejected, as are non-finite numbers.

Exit status: 0 on success; 2 for usage errors; 3 for invalid parameter
values ("error: invalid-parameter: ..." on stderr); 4 for I/O failures
("error: io: ...").
"""

from __future__ import annotations

import argparse
import math
import multiprocessing
import sys

import numpy as np

from . import __version__
from .detector import db_to_linear, error_probability, mixture_energy_pdf, optimal_threshold
from .simulator import ScenarioConfig, run_ber
from .sumrate import default_alpha_grid, find_n_alpha, sweep_sum_rate
from .weights import closed_form_norms, paper_closed_form_norms

SCHEMA_VERSION = 1

DEFAULTS = {
    "k": 8,
    "m": 64,
    "alpha": 0.3,
    "rho": 0.0,
    "rho_phase": 0.0,
    "g": 1.0,
    "gamma_db": 30.0,
    "pe_target": 1e-5,
    "n_max": 10**6,
    "bits": 20000,
    "seed": 0,
    "jobs": 1,
}


def parse_grid(spec: str, cast=float) -> list:
    """Parse "start:stop:count" or a comma list into a value list."""
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"bad grid spec {spec!r}; expected start:stop:count")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ValueError(f"grid count must be >= 1 in {spec!r}")
        values = [cast(v) for v in np.linspace(start, stop, count)]
    else:
        try:
            values = [cast(v) for v in spec.split(",") if v.strip() != ""]
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad grid spec {spec!r}: {exc}") from exc
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"grid values must be finite in {spec!r}")
    return values


def load_config(path: str) -> dict:
    """Read a flat key=value config file; '#' starts a comment."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            values[key] = value
    return values


def _read_config(args, keys) -> dict:
    """The --config file's values; a key the subcommand does not read is an error."""
    if not args.config:
        return {}
    config = load_config(args.config)
    unknown = sorted(set(config) - set(keys))
    if unknown:
        raise ValueError(
            f"{args.config}: unknown config key(s) for {args.command}: {', '.join(unknown)}"
        )
    return config


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _resolve(args, config: dict, key: str, cast):
    value = getattr(args, key)
    if value is None:
        value = cast(config[key]) if key in config else DEFAULTS[key]
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {value!r}")
    return value


def _write_csv(path, command, params, header, rows, footer_comments=()):
    lines = [f"# intermod {command} schema={command}/{SCHEMA_VERSION} version={__version__}"]
    for key in sorted(params):
        lines.append(f"# {key}={_fmt(params[key])}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    lines.extend(footer_comments)
    text = "\n".join(lines) + "\n"
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _manifest(command, args, extra):
    params = {"command": command, "out": args.out or "-"}
    params.update(extra)
    return params


def cmd_weights(args) -> int:
    config = _read_config(args, ("alpha_grid", "rho_grid"))
    alpha_grid = parse_grid(args.alpha_grid or config.get("alpha_grid", "0:0.9:19"))
    rho_grid = parse_grid(args.rho_grid or config.get("rho_grid", "0:0.9:19"))
    rows = []
    for alpha in alpha_grid:
        for rho in rho_grid:
            n0, n1, xi = closed_form_norms(alpha, rho)
            _, _, xi_paper = paper_closed_form_norms(alpha, rho)
            rows.append((alpha, rho, n0, n1, xi, xi_paper))
    params = _manifest(
        "weights",
        args,
        {"alpha_grid": ";".join(_fmt(a) for a in alpha_grid),
         "rho_grid": ";".join(_fmt(r) for r in rho_grid)},
    )
    _write_csv(
        args.out,
        "weights",
        params,
        ["alpha", "rho_mag", "norm0_sq", "norm1_sq", "xi_oracle", "xi_paper_printed"],
        rows,
    )
    return 0


def cmd_theory(args) -> int:
    config = _read_config(args, ("n_grid", "snr_grid"))
    if args.pdf_points < 1:
        raise ValueError(f"pdf_points must be >= 1, got {args.pdf_points}")
    n_grid = parse_grid(args.n_grid or config.get("n_grid", "1,10,100"), cast=int)
    snr_grid = parse_grid(args.snr_grid or config.get("snr_grid", "-10:0:5"))
    rows = []
    pdf_rows = []
    for n in n_grid:
        for snr_db in snr_grid:
            sigma_n_sq = 1.0
            sigma_r_sq = db_to_linear(snr_db)
            delta = optimal_threshold(n, sigma_r_sq, sigma_n_sq)
            pe = error_probability(n, sigma_r_sq, sigma_n_sq, delta)
            rows.append((n, snr_db, sigma_r_sq, sigma_n_sq, delta, pe))
            if args.pdf_out:
                # cover both mixture components well past their tails
                scale_hi = sigma_r_sq + sigma_n_sq
                eps_max = n * scale_hi + (12.0 + 12.0 * math.sqrt(n)) * scale_hi
                eps_grid = np.linspace(0.0, eps_max, args.pdf_points)
                dens = mixture_energy_pdf(eps_grid, n, sigma_r_sq, sigma_n_sq)
                pdf_rows.extend(
                    (n, snr_db, float(e), float(d)) for e, d in zip(eps_grid, dens)
                )
    params = _manifest(
        "theory",
        args,
        {"n_grid": ";".join(str(n) for n in n_grid),
         "snr_grid": ";".join(_fmt(s) for s in snr_grid),
         "pdf_points": args.pdf_points},
    )
    _write_csv(
        args.out,
        "theory",
        params,
        ["n", "snr_db", "sigma_r_sq", "sigma_n_sq", "threshold", "pe"],
        rows,
    )
    if args.pdf_out:
        _write_csv(
            args.pdf_out,
            "theory-pdf",
            params,
            ["n", "snr_db", "epsilon", "density"],
            pdf_rows,
        )
    return 0


def cmd_ber(args) -> int:
    config = _read_config(args, ("n_grid", "snr_grid", "bits", "seed", "jobs", "alpha",
                                 "rho", "rho_phase", "g", "k", "m"))
    n_grid = parse_grid(args.n_grid or config.get("n_grid", "10,100"), cast=int)
    snr_grid = parse_grid(args.snr_grid or config.get("snr_grid", "-10:0:5"))
    bits = _resolve(args, config, "bits", int)
    seed = _resolve(args, config, "seed", int)
    jobs = _resolve(args, config, "jobs", int)
    alpha = _resolve(args, config, "alpha", float)
    rho = _resolve(args, config, "rho", float)
    rho_phase = _resolve(args, config, "rho_phase", float)
    g = _resolve(args, config, "g", float)
    k = _resolve(args, config, "k", int)
    m = _resolve(args, config, "m", int)
    if jobs < 1:
        raise ValueError("jobs must be >= 1")

    points = []
    grid = [(n, snr_db) for n in n_grid for snr_db in snr_grid]
    for idx, (n, snr_db) in enumerate(grid):
        point_seed = int(
            np.random.SeedSequence(entropy=seed, spawn_key=(idx,)).generate_state(
                1, np.uint64
            )[0]
        )
        points.append(
            ScenarioConfig(
                n_samples=n,
                snr_db=snr_db,
                n_bits=bits,
                alpha=alpha,
                rho_mag=rho,
                rho_phase=rho_phase,
                g=g,
                k_antennas=k,
                m_subcarriers=m,
                master_seed=point_seed,
            )
        )
    if jobs > 1:
        with multiprocessing.Pool(processes=jobs) as pool:
            results = pool.map(run_ber, points)
    else:
        results = [run_ber(p) for p in points]

    rows = []
    for (n, snr_db), res in zip(grid, results):
        band = 3.0 * math.sqrt(res.analytic_pe * (1.0 - res.analytic_pe) / res.n_bits)
        within = abs(res.ber - res.analytic_pe) <= band
        rows.append(
            (n, snr_db, res.n_bits, res.n_errors, res.ber, res.analytic_pe,
             res.per_point_ci95, within)
        )
    params = _manifest(
        "ber",
        args,
        {"n_grid": ";".join(str(n) for n in n_grid),
         "snr_grid": ";".join(_fmt(s) for s in snr_grid),
         "bits": bits, "seed": seed, "alpha": alpha, "rho": rho,
         "rho_phase": rho_phase, "g": g, "k": k, "m": m},
    )
    _write_csv(
        args.out,
        "ber",
        params,
        ["n", "snr_db", "n_bits", "n_errors", "ber", "analytic_pe", "ci95",
         "within_3sigma"],
        rows,
    )
    return 0


def cmd_sumrate(args) -> int:
    config = _read_config(
        args, ("rho_grid", "g_grid", "alpha_grid", "gamma_db", "pe_target", "n_max")
    )
    rho_grid = parse_grid(args.rho_grid or config.get("rho_grid", "0.1,0.5,0.9"))
    g_grid = parse_grid(args.g_grid or config.get("g_grid", "1.0"))
    if args.alpha_grid or "alpha_grid" in config:
        alpha_grid = parse_grid(args.alpha_grid or config["alpha_grid"])
    else:
        alpha_grid = [float(a) for a in default_alpha_grid()]
    gamma_db = _resolve(args, config, "gamma_db", float)
    pe_target = _resolve(args, config, "pe_target", float)
    n_max = _resolve(args, config, "n_max", int)

    rows = []
    footers = []
    for rho in rho_grid:
        for g in g_grid:
            curve = sweep_sum_rate(
                gamma_db, rho, g,
                alpha_grid=alpha_grid, pe_target=pe_target, n_max=n_max,
            )
            for pt in curve:
                rows.append(
                    (rho, g, pt.alpha, pt.n_alpha, pt.pu_rate, pt.su_rate, pt.total)
                )
            best = max(curve, key=lambda pt: pt.total)
            footers.append(
                f"# max_total rho_mag={_fmt(rho)} g={_fmt(g)} "
                f"alpha={_fmt(best.alpha)} total={_fmt(best.total)}"
            )
    params = _manifest(
        "sumrate",
        args,
        {"rho_grid": ";".join(_fmt(r) for r in rho_grid),
         "g_grid": ";".join(_fmt(g) for g in g_grid),
         "n_alpha_points": len(alpha_grid),
         "gamma_db": gamma_db, "pe_target": pe_target, "n_max": n_max},
    )
    _write_csv(
        args.out,
        "sumrate",
        params,
        ["rho_mag", "g", "alpha", "n_alpha", "pu_rate", "su_rate", "total"],
        rows,
        footer_comments=footers,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intermod",
        description="Interference-modulation analysis and simulation sweeps (CSV output)",
    )
    parser.add_argument("--version", action="version", version=f"intermod {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", help="output CSV path ('-' or omitted for stdout)")

    p_weights = sub.add_parser("weights", help="power-efficiency surface over (alpha, rho)")
    add_common(p_weights)
    p_weights.add_argument("--alpha", dest="alpha_grid", metavar="GRID",
                           help="alpha grid (default 0:0.9:19)")
    p_weights.add_argument("--rho", dest="rho_grid", metavar="GRID",
                           help="|rho| grid (default 0:0.9:19)")
    p_weights.set_defaults(func=cmd_weights)

    p_theory = sub.add_parser("theory", help="analytic P_e and threshold tables")
    add_common(p_theory)
    p_theory.add_argument("--n", dest="n_grid", metavar="GRID",
                          help="integration-length grid (default 1,10,100)")
    p_theory.add_argument("--snr-db", dest="snr_grid", metavar="GRID",
                          help="SNR grid in dB (default -10:0:5)")
    p_theory.add_argument("--pdf-out", help="also tabulate the mixture energy PDF here")
    p_theory.add_argument("--pdf-points", type=int, default=2000,
                          help="points per PDF tabulation (default 2000)")
    p_theory.set_defaults(func=cmd_theory)

    p_ber = sub.add_parser("ber", help="Monte Carlo BER vs analytic prediction")
    add_common(p_ber)
    p_ber.add_argument("--n", dest="n_grid", metavar="GRID",
                       help="integration-length grid (default 10,100)")
    p_ber.add_argument("--snr-db", dest="snr_grid", metavar="GRID",
                       help="SNR grid in dB (default -10:0:5)")
    p_ber.add_argument("--bits", type=int, help="bits per grid point (default 20000)")
    p_ber.add_argument("--alpha", type=float, help="SU power coefficient (default 0.3)")
    p_ber.add_argument("--rho", type=float, help="|rho| (default 0)")
    p_ber.add_argument("--rho-phase", dest="rho_phase", type=float,
                       help="arg(rho) in radians (default 0)")
    p_ber.add_argument("--g", type=float, help="SU/PU gain ratio (default 1)")
    p_ber.add_argument("--k", type=int, help="antenna count (default 8)")
    p_ber.add_argument("--m", type=int, help="subcarrier count (default 64)")
    p_ber.add_argument("--seed", type=int, help="master seed (default 0)")
    p_ber.add_argument("--jobs", type=int, help="parallel workers; never changes results")
    p_ber.set_defaults(func=cmd_ber)

    p_sum = sub.add_parser("sumrate", help="sum-rate curves over alpha")
    add_common(p_sum)
    p_sum.add_argument("--rho", dest="rho_grid", metavar="GRID",
                       help="|rho| per curve (default 0.1,0.5,0.9)")
    p_sum.add_argument("--g", dest="g_grid", metavar="GRID",
                       help="gain ratios per curve (default 1.0)")
    p_sum.add_argument("--alpha", dest="alpha_grid", metavar="GRID",
                       help="alpha grid (default: 200 log-spaced in [1e-4, 0.99])")
    p_sum.add_argument("--gamma-db", dest="gamma_db", type=float,
                       help="PU normal-operation SNR in dB (default 30)")
    p_sum.add_argument("--pe-target", dest="pe_target", type=float,
                       help="target error probability (default 1e-5)")
    p_sum.add_argument("--n-max", dest="n_max", type=int,
                       help="integration-length search cap (default 1e6)")
    p_sum.set_defaults(func=cmd_sumrate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: invalid-parameter: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
