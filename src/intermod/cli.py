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
An empty grid, a fractional point in an integer grid, and an integration
length N (or sumrate's n_max) outside [1, 1e6], where the detector model is
checked, are rejected.

Each subcommand's options are declared once, in its OPTIONS table: one row
gives the flag, the key, how a value is read, the default and the help
text.  The key is the argparse dest, the --config key and the manifest key,
so the table is the one place the command line's defaults live.

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
import sys

import numpy as np

from . import __version__
from .detector import (
    N_MAX,
    check_n,
    db_to_linear,
    error_probability,
    mixture_energy_pdf,
    optimal_threshold,
)
from .simulator import ScenarioConfig, run_ber_grid
from .sumrate import DEFAULT_PE_TARGET, sweep_sum_rate
from .weights import closed_form_norms, paper_closed_form_norms

# bumped when a subcommand's bytes change for one input (ber/2: stream kernel, /3: theory's P_e)
SCHEMA_VERSIONS = {"weights": 1, "theory": 1, "theory-pdf": 1, "ber": 3, "sumrate": 1}
PDF_POINTS = 2000  # theory --pdf-points default, recorded in every theory manifest


def parse_grid(spec: str, cast=float) -> list:
    """Parse "start:stop:count" or a comma list into a value list."""
    spec = spec.strip()
    parts = spec.split(":")
    if len(parts) not in (1, 3):
        raise ValueError(f"bad grid spec {spec!r}; expected start:stop:count")
    try:
        if len(parts) == 1:
            values = [cast(v) for v in spec.split(",") if v.strip() != ""]
            finite = all(math.isfinite(v) for v in values)
        else:
            start, stop, count = cast(parts[0]), cast(parts[1]), int(parts[2])
            finite = math.isfinite(stop - start)  # also false for an overflowing span
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"bad grid spec {spec!r}: {exc}") from exc
    if not finite:
        raise ValueError(f"grid values must be finite in {spec!r}")
    if len(parts) == 3:
        if count < 1:
            raise ValueError(f"grid count must be >= 1 in {spec!r}")
        points = np.linspace(start, stop, count)
        values = [cast(v) for v in points]
        # a cast that changed a point truncated it
        if any(v != p for v, p in zip(values, points)):
            raise ValueError(f"grid points must be {cast.__name__}s in {spec!r}")
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


def _n_grid(spec: str) -> list:
    """An integration-length grid: integers in the checked domain [1, N_MAX]."""
    return [check_n("n", n) for n in parse_grid(spec, cast=int)]


# (flag, key, reader, default, help) per subcommand.  A grid's reader is
# applied to the flag's text after parsing, so a bad grid exits 3; int and
# float also serve as the argparse type, so "--bits abc" exits 2.
OPTIONS = {
    "weights": (
        ("--alpha", "alpha_grid", parse_grid, "0:0.9:19", "alpha grid"),
        ("--rho", "rho_grid", parse_grid, "0:0.9:19", "|rho| grid"),
    ),
    "theory": (
        ("--n", "n_grid", _n_grid, "1,10,100", "integration-length grid"),
        ("--snr-db", "snr_grid", parse_grid, "-10:0:5", "SNR grid in dB"),
    ),
    "ber": (
        ("--n", "n_grid", _n_grid, "10,100", "integration-length grid"),
        ("--snr-db", "snr_grid", parse_grid, "-10:0:5", "SNR grid in dB"),
        ("--bits", "bits", int, 20000, "bits per grid point"),
        ("--alpha", "alpha", float, ScenarioConfig.alpha, "SU power coefficient"),
        ("--rho", "rho", float, ScenarioConfig.rho_mag, "|rho|"),
        ("--rho-phase", "rho_phase", float, ScenarioConfig.rho_phase, "arg(rho) in radians"),
        ("--g", "g", float, ScenarioConfig.g, "SU/PU gain ratio"),
        ("--k", "k", int, ScenarioConfig.k_antennas, "antenna count"),
        ("--m", "m", int, ScenarioConfig.m_subcarriers, "subcarrier count"),
        ("--seed", "seed", int, ScenarioConfig.master_seed, "master seed"),
        ("--jobs", "jobs", int, 1, "parallel workers; never changes results"),
    ),
    "sumrate": (
        ("--rho", "rho_grid", parse_grid, "0.1,0.5,0.9", "|rho| per curve"),
        ("--g", "g_grid", parse_grid, "1.0", "gain ratios per curve"),
        ("--alpha", "alpha_grid", parse_grid, None,
         "alpha grid (default: 200 log-spaced in [1e-4, 0.99])"),
        ("--gamma-db", "gamma_db", float, 30.0, "PU normal-operation SNR in dB"),
        ("--pe-target", "pe_target", float, DEFAULT_PE_TARGET, "target error probability"),
        ("--n-max", "n_max", int, N_MAX, "integration-length search cap"),
    ),
}


def _options(args) -> dict:
    """Every option of the subcommand, resolved flag > --config > default.

    The result, with the command and output path, becomes the CSV manifest.
    """
    table = OPTIONS[args.command]
    config = load_config(args.config) if args.config else {}
    unknown = sorted(set(config) - {key for _, key, _, _, _ in table})
    if unknown:
        raise ValueError(
            f"{args.config}: unknown config key(s) for {args.command}: {', '.join(unknown)}"
        )
    params = {"command": args.command, "out": args.out or "-"}
    for _, key, reader, default, _ in table:
        value = getattr(args, key)
        if value is None:
            value = config.get(key, default)
        try:
            value = None if value is None else reader(value)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from exc
        if value == []:
            raise ValueError(f"{key} is an empty grid")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{key} must be finite, got {value!r}")
        params[key] = value
    return params


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, list):
        return ";".join(_fmt(v) for v in value)
    return str(value)


def _write_csv(path, command, params, header, rows, footer_comments=()):
    schema = f"{command}/{SCHEMA_VERSIONS[command]}"
    lines = [f"# intermod {command} schema={schema} version={__version__}"]
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


def cmd_weights(args) -> int:
    """power-efficiency surface over (alpha, rho)"""
    params = _options(args)
    rows = []
    for alpha in params["alpha_grid"]:
        for rho in params["rho_grid"]:
            n0, n1, xi = closed_form_norms(alpha, rho)
            _, _, xi_paper = paper_closed_form_norms(alpha, rho)
            rows.append((alpha, rho, n0, n1, xi, xi_paper))
    _write_csv(
        args.out,
        "weights",
        params,
        ["alpha", "rho_mag", "norm0_sq", "norm1_sq", "xi_oracle", "xi_paper_printed"],
        rows,
    )
    return 0


def cmd_theory(args) -> int:
    """analytic P_e and threshold tables"""
    params = _options(args)
    if args.pdf_points is not None and not args.pdf_out:
        raise ValueError("pdf_points tabulates nothing without --pdf-out")
    pdf_points = PDF_POINTS if args.pdf_points is None else args.pdf_points
    if pdf_points < 1:
        raise ValueError(f"pdf_points must be >= 1, got {pdf_points}")
    params["pdf_points"] = pdf_points
    rows = []
    pdf_rows = []
    for n in params["n_grid"]:
        for snr_db in params["snr_grid"]:
            snr = db_to_linear(snr_db)  # sigma_r^2 in noise units, sigma_n^2 = 1
            delta = optimal_threshold(n, snr)
            rows.append((n, snr_db, snr, 1.0, delta, error_probability(n, snr, delta)))
            if args.pdf_out:
                # cover both mixture components well past their tails
                scale_hi = snr + 1.0
                eps_max = n * scale_hi + (12.0 + 12.0 * math.sqrt(n)) * scale_hi
                eps_grid = np.linspace(0.0, eps_max, pdf_points)
                dens = mixture_energy_pdf(eps_grid, n, snr)
                pdf_rows.extend(
                    (n, snr_db, float(e), float(d)) for e, d in zip(eps_grid, dens)
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
    """Monte Carlo BER vs analytic prediction"""
    params = _options(args)
    jobs = params.pop("jobs")  # never changes the output, so not in the manifest
    if params["seed"] < 0:
        raise ValueError(f"seed must be >= 0, got {params['seed']}")
    points = []
    grid = [(n, snr_db) for n in params["n_grid"] for snr_db in params["snr_grid"]]
    for idx, (n, snr_db) in enumerate(grid):
        seq = np.random.SeedSequence(entropy=params["seed"], spawn_key=(idx,))
        point_seed = int(seq.generate_state(1, np.uint64)[0])
        points.append(
            ScenarioConfig(
                n_samples=n,
                snr_db=snr_db,
                n_bits=params["bits"],
                alpha=params["alpha"],
                rho_mag=params["rho"],
                rho_phase=params["rho_phase"],
                g=params["g"],
                k_antennas=params["k"],
                m_subcarriers=params["m"],
                master_seed=point_seed,
            )
        )
    results = run_ber_grid(points, jobs)

    rows = []
    for (n, snr_db), res in zip(grid, results):
        band = 3.0 * math.sqrt(res.analytic_pe * (1.0 - res.analytic_pe) / res.n_bits)
        within = abs(res.ber - res.analytic_pe) <= band
        rows.append(
            (n, snr_db, res.n_bits, res.n_errors, res.ber, res.analytic_pe,
             res.per_point_ci95, within)
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
    """sum-rate curves over alpha"""
    params = _options(args)
    alpha_grid = params.pop("alpha_grid")  # None: sweep_sum_rate's default grid
    rows = []
    footers = []
    for rho in params["rho_grid"]:
        for g in params["g_grid"]:
            curve = sweep_sum_rate(
                params["gamma_db"], rho, g, alpha_grid=alpha_grid,
                pe_target=params["pe_target"], n_max=params["n_max"],
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
    params["n_alpha_points"] = len(curve)  # the manifest records the grid's length only
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
    for func in (cmd_weights, cmd_theory, cmd_ber, cmd_sumrate):
        command = func.__name__.removeprefix("cmd_")
        p = sub.add_parser(command, help=func.__doc__)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", help="output CSV path ('-' or omitted for stdout)")
        for flag, key, reader, default, text in OPTIONS[command]:
            scalar = reader in (int, float)
            p.add_argument(
                flag, dest=key, type=reader if scalar else None,
                metavar=None if scalar else "GRID",
                help=text if default is None else f"{text} (default {_fmt(default)})",
            )
        p.set_defaults(func=func)
    # flags only, not config keys; cmd_theory records pdf_points in the manifest itself
    theory = sub.choices["theory"]
    theory.add_argument("--pdf-out", help="also tabulate the mixture energy PDF here")
    theory.add_argument("--pdf-points", type=int,
                        help=f"points per PDF tabulation (default {PDF_POINTS})")
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
