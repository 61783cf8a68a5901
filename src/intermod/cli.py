"""Command-line front end emitting deterministic CSV sweep tables.

Subcommands:
    weights - power-efficiency surface over (alpha, rho) grids
    theory  - analytic error probability / threshold tables, optional
              energy-PDF tabulation
    ber     - Monte Carlo BER vs analytic prediction over (N, SNR) grids
    sumrate - sum-rate curves over alpha per (rho, g) combination

weights, theory and sumrate are scalar math and load no numpy; ber and
theory --pdf-out import it when they run.

Every CSV starts with '#'-prefixed manifest comment lines carrying the
resolved parameter set, so a result file is reproducible on its own.
Each CSV's schema version and columns are declared once, in CSV_FORMATS.
Floating-point values are emitted with 12 significant digits; identical
invocations produce byte-identical files.

Grid-valued flags accept either a comma list ("1,10,100") or a
start:stop:count range ("0:1:11", linearly spaced, endpoints included; a
count of 1 needs start == stop).
An empty grid, a fractional point in an integer grid, and a value or grid
point outside the domain of the library parameter it feeds (_domain.DOMAINS:
N and n_max, for one, must lie in [1, 1e6], where the detector model is
checked) are rejected before any work starts.

Each subcommand's options are declared once, in its OPTIONS table: one row
gives the flag, the key, how a value is read, the default and the help
text.  The key is the argparse dest, the --config key and the manifest key,
so the table is the one place the command line's defaults live.

Config precedence: command-line flags > config-file values > defaults.
The config file is flat "key = value" text; '#' starts a comment.  Keys the
subcommand does not read, repeated keys and non-finite numbers are rejected.

Exit status: 0 on success; 2 for usage errors; 3 for invalid parameter
values ("error: invalid-parameter: ..." on stderr); 4 for I/O failures
("error: io: ...").
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import partial

from . import __version__
from ._domain import N_MAX, check
from .detector import DEFAULT_PE_TARGET, _operating_point, mixture_energy_pdf
from .sumrate import _norms, linspace, sweep_sum_rates

# (schema version, columns) per CSV; the version is bumped when the CSV's bytes change
# for one input, and README records each bump
CSV_FORMATS = {
    "weights": (1, ("alpha", "rho_mag", "norm0_sq", "norm1_sq", "xi_oracle", "xi_paper_printed")),
    "theory": (1, ("n", "snr_db", "sigma_r_sq", "sigma_n_sq", "threshold", "pe")),
    "theory-pdf": (1, ("n", "snr_db", "epsilon", "density")),
    "ber": (9, ("n", "snr_db", "n_bits", "n_errors", "ber", "analytic_pe", "ci95",
                "within_3sigma")),
    "sumrate": (1, ("rho_mag", "g", "alpha", "n_alpha", "pu_rate", "su_rate", "total")),
}
PDF_POINTS = 2000  # theory --pdf-points default, recorded in every theory manifest


def parse_grid(spec: str, cast=float) -> list:
    """Parse "start:stop:count" or a comma list into a value list.

    The caller checks the values; a range's span must be finite to be spaced.
    """
    parts = spec.split(":")
    if len(parts) not in (1, 3):
        raise ValueError(f"bad grid spec {spec!r}; expected start:stop:count")
    try:
        if len(parts) == 1:
            return [cast(v) for v in spec.split(",") if v.strip() != ""]
        start, stop, count = cast(parts[0]), cast(parts[1]), check("count", int(parts[2]))
        start, stop = float(start), float(stop)  # an int range is spaced in doubles too
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"bad grid spec {spec!r}: {exc}") from exc
    if not math.isfinite(stop - start):  # also false for an overflowing span
        raise ValueError(f"grid values must be finite in {spec!r}")
    if count == 1 and start != stop:  # one point cannot hold both ends
        raise ValueError(f"a one-point range must start where it stops in {spec!r}")
    points = linspace(start, stop, count)
    values = [cast(v) for v in points]
    if any(v != p for v, p in zip(values, points)):  # a cast that changed a point truncated it
        raise ValueError(f"grid points must be {cast.__name__}s in {spec!r}")
    return values


def load_config(path: str) -> dict:
    """Read a flat key=value config file; '#' starts a comment and a key may appear once."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in values:
                raise ValueError(f"{path}:{lineno}: key {key!r} given twice")
            values[key] = value
    return values


def _grid(name: str, spec: str, cast=float) -> list:
    """The points of grid ``spec``, each checked as a value of the library parameter ``name``."""
    return [check(name, point) for point in parse_grid(spec, cast)]


# (flag, key, reader, default, help) per subcommand.  Every reader is applied
# to the flag's text after parsing, so "--bits abc", like a bad grid, exits 3.
# A scalar is then checked under its key, a grid point by its reader.
OPTIONS = {
    "weights": (
        ("--alpha", "alpha_grid", partial(_grid, "alpha"), "0:0.9:19", "alpha grid"),
        ("--rho", "rho_grid", partial(_grid, "rho_mag"), "0:0.9:19", "|rho| grid"),
    ),
    "theory": (
        ("--n", "n_grid", partial(_grid, "n", cast=int), "1,10,100", "integration-length grid"),
        ("--snr-db", "snr_grid", partial(_grid, "snr_db"), "-10:0:5", "SNR grid in dB"),
    ),
    "ber": (
        ("--n", "n_grid", partial(_grid, "n", cast=int), "10,100", "integration-length grid"),
        ("--snr-db", "snr_grid", partial(_grid, "snr_db"), "-10:0:5", "SNR grid in dB"),
        ("--bits", "bits", int, 20000, "bits per grid point"),
        # ScenarioConfig's default, written out so that reading it imports no numpy
        ("--seed", "seed", int, 0, "master seed"),
        ("--jobs", "jobs", int, 1, "parallel workers; never changes results"),
    ),
    "sumrate": (
        ("--rho", "rho_grid", partial(_grid, "rho_mag"), "0.1,0.5,0.9", "|rho| per curve"),
        ("--g", "g_grid", partial(_grid, "g"), "1.0", "gain ratios per curve"),
        ("--alpha", "alpha_grid", partial(_grid, "alpha"), None,
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
        params[key] = None if value is None else _read(key, reader, value)
    return params


def _read(key: str, reader, text):
    """reader(text), a grid of checked points or a scalar checked under ``key``."""
    try:
        value = reader(text)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from exc
    if value == []:
        raise ValueError(f"{key} is an empty grid")
    return value if isinstance(value, list) else check(key, value)


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


def _write_csv(path, command, params, rows, footers=()):
    version, columns = CSV_FORMATS[command]
    lines = [f"# intermod {command} schema={command}/{version} version={__version__}"]
    for key in sorted(params):
        lines.append(f"# {key}={_fmt(params[key])}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    lines.extend(footers)
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
            # both grids are checked; the closed forms and the literature's xi
            rows.append((alpha, rho, *_norms(alpha, rho, 2.0), _norms(alpha, rho, 1.0)[2]))
    _write_csv(args.out, "weights", params, rows)
    return 0


def cmd_theory(args) -> int:
    """analytic P_e and threshold tables"""
    params = _options(args)
    if args.pdf_points is not None and not args.pdf_out:
        raise ValueError("pdf_points tabulates nothing without --pdf-out")
    text = PDF_POINTS if args.pdf_points is None else args.pdf_points
    pdf_points = params["pdf_points"] = _read("pdf_points", int, text)
    rows = []
    pdf_rows = []
    for n in params["n_grid"]:
        for snr_db in params["snr_grid"]:
            snr, delta, _, pe = _operating_point(n, snr_db)  # snr is sigma_r^2, sigma_n^2 = 1
            rows.append((n, snr_db, snr, 1.0, delta, pe))
            if args.pdf_out:
                # cover both mixture components well past their tails
                scale_hi = snr + 1.0
                eps_max = n * scale_hi + (12.0 + 12.0 * math.sqrt(n)) * scale_hi
                if not math.isfinite(eps_max):
                    raise ValueError(f"snr_db={snr_db:g}: the PDF range overflows")
                eps_grid = linspace(0.0, eps_max, pdf_points)
                dens = mixture_energy_pdf(eps_grid, n, snr)
                pdf_rows.extend((n, snr_db, e, float(d)) for e, d in zip(eps_grid, dens))
    _write_csv(args.out, "theory", params, rows)
    if args.pdf_out:
        _write_csv(args.pdf_out, "theory-pdf", params, pdf_rows)
    return 0


def cmd_ber(args) -> int:
    """Monte Carlo BER vs analytic prediction"""
    # imported here, so the analytic subcommands never load numpy
    from .simulator import _grid_configs, run_ber_grid

    params = _options(args)
    jobs = params.pop("jobs")  # never changes the output, so not in the manifest
    configs = _grid_configs(params["n_grid"], params["snr_grid"], params["bits"], params["seed"])
    rows = []
    for config, res in zip(configs, run_ber_grid(configs, jobs)):
        ci95 = 1.96 * math.sqrt(res.ber * (1.0 - res.ber) / res.n_bits)
        band = 3.0 * math.sqrt(res.analytic_pe * (1.0 - res.analytic_pe) / res.n_bits)
        within = abs(res.ber - res.analytic_pe) <= band
        rows.append((config.n_samples, config.snr_db, res.n_bits, res.n_errors, res.ber,
                     res.analytic_pe, ci95, within))
    _write_csv(args.out, "ber", params, rows)
    return 0


def cmd_sumrate(args) -> int:
    """sum-rate curves over alpha"""
    params = _options(args)
    alpha_grid = params.pop("alpha_grid")  # None: sweep_sum_rates' default grid
    curves = sweep_sum_rates(
        params["gamma_db"], params["rho_grid"], params["g_grid"], alpha_grid=alpha_grid,
        pe_target=params["pe_target"], n_max=params["n_max"],
    )
    pairs = [(rho, g) for rho in params["rho_grid"] for g in params["g_grid"]]
    rows = []
    footers = []
    for (rho, g), curve in zip(pairs, curves):
        for pt in curve:
            rows.append((rho, g, pt.alpha, pt.n_alpha, pt.pu_rate, pt.su_rate, pt.total))
        best = max(curve, key=lambda pt: pt.total)
        footers.append(
            f"# max_total rho_mag={_fmt(rho)} g={_fmt(g)} "
            f"alpha={_fmt(best.alpha)} total={_fmt(best.total)}"
        )
    params["n_alpha_points"] = len(curve)  # the manifest records the grid's length only
    _write_csv(args.out, "sumrate", params, rows, footers)
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
            p.add_argument(
                flag, dest=key, metavar=None if reader in (int, float) else "GRID",
                help=text if default is None else f"{text} (default {_fmt(default)})",
            )
        p.set_defaults(func=func)
    # flags only, not config keys; cmd_theory records pdf_points in the manifest itself
    theory = sub.choices["theory"]
    theory.add_argument("--pdf-out", help="also tabulate the mixture energy PDF here")
    theory.add_argument("--pdf-points", help=f"points per PDF tabulation (default {PDF_POINTS})")
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
