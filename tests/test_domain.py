"""One domain table checks every public scalar parameter, by name.

The out-of-domain cases are generated from ``_domain.DOMAINS``: for each
parameter of each public entry point, each point of its rho, g and alpha grids,
and each CLI option, None, NaN, +-inf, the value just past each bound, both
bools, Python's and numpy's, and, for counts, a non-integral value and an
integral float.  The dB bounds are the edges of the ratio 10**(dB/10), so past
each of them this module generates the rejection that a failed conversion once
made.  The library and grid tables also pass each real parameter what is not a
double: a float32 at each finite open end, where bounds moved one double inward
round back onto the end in float32, and a Decimal, a str and arrays of an
in-domain value.  It is the one home of every such
rejection; each is timed, and a library one must make no P_e evaluation, as it
must come before any work.
"""

import dataclasses
import functools
import inspect
import math
import re
import time
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import intermod
from intermod import cli, simulator  # noqa: F401  loaded here, so no timed CLI call imports it
from intermod._domain import DOMAINS, check
from intermod.cli import main
from test_sumrate import pe_calls  # noqa: F401  a fixture: the P_e evaluations a test makes

PAIR = intermod.make_correlated_pair(4, 0.3, seed=1)

# One valid call per public entry point with a table parameter.
VALID = {
    "ScenarioConfig": dict(n_samples=10, snr_db=0.0, n_bits=10, master_seed=1),
    "build_weight_set": dict(pair=PAIR, alpha=0.3),
    "closed_form_norms": dict(alpha=0.3, rho_mag=0.5),
    "energy_pdf": dict(epsilon=1.0, n=10, scale=1.0),
    "find_n_alpha": dict(snr=1.0, pe_target=1e-3, n_max=100),
    "log_error_probability": dict(n=10, snr=1.0, threshold=15.0),
    "log_gamma_tails": dict(s=10, x=15.0),
    "make_correlated_pair": dict(k=4, rho_mag=0.3, rho_phase=0.1, seed=1),
    "mixture_energy_pdf": dict(epsilon=1.0, n=10, snr=1.0),
    "optimal_threshold": dict(n=10, snr=1.0),
    "paper_closed_form_norms": dict(alpha=0.3, rho_mag=0.5),
    "run_ber_grid": dict(configs=[], jobs=1),
    "solve_min_norm": dict(pair=PAIR, b_su=0.5, b_pu=0.5),
    # alpha = 0.3 searches, so a check made after the searches would show as evaluations
    "sweep_sum_rates": dict(gamma_db=10.0, rho_grid=[0.3, 0.5], g_grid=[1.0, 2.0],
                            alpha_grid=[0.0, 0.3], pe_target=1e-3, n_max=100),
}


def one_curve_sweep(gamma_db, rho_mag, g, alpha_grid, pe_target, n_max):
    """The one-curve form of sweep_sum_rates, whose scalars rho_mag and g keep their names."""
    return intermod.sweep_sum_rates(gamma_db, [rho_mag], [g], alpha_grid,
                                    pe_target=pe_target, n_max=n_max)[0]


# Call forms built on a public entry point, and the sum rate's SU SNR, with one valid call each;
# the one-curve sweep's grid has no alpha > 0, so its n_max is checked though no search reads it.
COMPOSED = {"sweep_sum_rate": one_curve_sweep, "su_snr": intermod.sumrate.su_snr}
COMPOSED_VALID = {
    "sweep_sum_rate": dict(gamma_db=10.0, rho_mag=0.3, g=1.0, alpha_grid=[0.0],
                           pe_target=1e-3, n_max=100),
    "su_snr": dict(alpha=0.3, rho_mag=0.5, g=1.0, gamma=1000.0),
}
# Parameters that are not scalars: vectors, channel pairs, grids, config lists.
EXEMPT_PARAMETERS = {"h_pu", "h_su", "omega0", "omega1", "pair", "epsilon",
                     "alpha_grid", "rho_grid", "g_grid", "configs"}
# Grids whose every point is checked as the named scalar parameter.
GRID_POINTS = {"rho_grid": "rho_mag", "g_grid": "g", "alpha_grid": "alpha"}
# Records the library returns, and an exception.
EXEMPT_NAMES = {"BerResult", "SumRatePoint", "IllConditionedCorrelationError"}


def out_of_domain(name):
    """None, NaN, +-inf, the value just past each finite bound, both bools, and a count that
    is not an int."""
    kind, lb, lo, hi, rb = DOMAINS[name]
    values = [None, math.nan, math.inf, -math.inf, True, False, np.True_, np.False_]  # no number
    if kind is complex:
        values += [complex(0.0, math.inf), np.complex128(complex(1.0, math.nan))]
    if lo > -math.inf:
        values.append(lo if lb == "(" else lo - 1 if kind is int else math.nextafter(lo, -math.inf))
    if hi < math.inf:
        values.append(hi if rb == ")" else hi + 1 if kind is int else math.nextafter(hi, math.inf))
    if kind is int:
        values += [lo + 0.5, float(lo)]
    return values


def not_doubles(name, inside):
    """For a real parameter, a float32 at each finite open end of its domain, and a Decimal,
    a str, a 0-d and a one-element array of ``inside``, a value in its domain."""
    kind, lb, lo, hi, rb = DOMAINS[name]
    if kind is not float:
        return []
    ends = [np.float32(end) for bracket, end in ((lb, lo), (rb, hi))
            if bracket in "()" and math.isfinite(end)]
    return ends + [Decimal(inside), str(inside), np.array(inside), np.array([inside])]


def states_why(name, value, message):
    """Whether a rejection states the table row: its interval, or "finite" where both ends
    are infinite, after "an integer" for a count that is not an int, and says so of a bool."""
    kind, lb, lo, hi, rb = DOMAINS[name]
    requirement = message.split(" must be ", 1)[1].rsplit(", got ", 1)[0]
    interval = f"in {lb}{lo}, {hi}{rb}" if math.isfinite(lo) else "finite"
    return (interval in requirement
            and requirement.startswith("an integer ") == (kind is int and type(value) is not int)
            and requirement.endswith(", not a bool") == (type(value).__name__ == "bool"))


LIBRARY_VALID = {**VALID, **COMPOSED_VALID}
LIBRARY_CASES = [
    pytest.param(entry, name, value, id=f"{entry}-{name}-{value!r}")
    for entry, kwargs in LIBRARY_VALID.items()
    for name in kwargs if name not in EXEMPT_PARAMETERS
    for value in out_of_domain(name) + not_doubles(name, kwargs[name])
]


@pytest.mark.parametrize("entry, name, value", LIBRARY_CASES)
def test_out_of_domain_value_names_its_parameter(entry, name, value, pe_calls):
    call = COMPOSED.get(entry) or getattr(intermod, entry)  # imported before the clock starts
    start = time.perf_counter()
    with pytest.raises(ValueError, match=rf"(^|\W){name} must be "):
        call(**{**LIBRARY_VALID[entry], name: value})
    assert time.perf_counter() - start < 0.1  # rejected at once
    assert pe_calls[0] == 0  # and before any search


GRID_CASES = [
    pytest.param(entry, grid, at, value, id=f"{entry}-{grid}[{at}]-{value!r}")
    for entry, kwargs in VALID.items()
    for grid in kwargs if grid in GRID_POINTS
    for at in range(len(kwargs[grid]))
    for value in out_of_domain(GRID_POINTS[grid]) + not_doubles(GRID_POINTS[grid], kwargs[grid][at])
]


@pytest.mark.parametrize("entry, grid, at, value", GRID_CASES)
def test_out_of_domain_grid_point_names_its_parameter(entry, grid, at, value, pe_calls):
    points = list(VALID[entry][grid])
    points[at] = value
    with pytest.raises(ValueError, match=rf"(^|\W){GRID_POINTS[grid]} must be "):
        getattr(intermod, entry)(**{**VALID[entry], grid: points})
    assert pe_calls[0] == 0  # rejected before any search


def test_every_public_parameter_is_in_the_table_or_exempt():
    for entry in sorted(set(intermod.__all__) - EXEMPT_NAMES):
        names = list(inspect.signature(getattr(intermod, entry)).parameters)
        assert set(names) <= set(DOMAINS) | EXEMPT_PARAMETERS, entry
        if set(names) & set(DOMAINS):
            assert list(VALID[entry]) == names, entry
    for entry, kwargs in LIBRARY_VALID.items():
        call = COMPOSED.get(entry) or getattr(intermod, entry)
        want = call(**kwargs)  # the baseline call is valid
        integers = [name for name in kwargs if name in DOMAINS and type(kwargs[name]) is int]
        for numpy_int in (np.int32, np.int64, np.uint8, np.uint64) if integers else ():
            # and so is each integer given as a numpy one, signed or unsigned, with the same
            # result: check binds it as a plain int, so a config's fields, and its link, match
            got = call(**{**kwargs, **{name: numpy_int(kwargs[name]) for name in integers}})
            assert_same(got, want, entry, numpy_int)
        for real in (np.float32, Fraction):
            # each real given as a float32 or a Fraction computes as the double of its value,
            # with no warning: check binds it as a plain float, so no float32 arithmetic runs
            given = as_real(kwargs, real)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = call(**given)
            assert_same(got, call(**as_real(given, float)), entry, real)
            assert caught == [], (entry, real)


def assert_same(got, want, *where):
    """got equals want, as values and as printed."""
    np.testing.assert_equal(*(dataclasses.asdict(result) if dataclasses.is_dataclass(result)
                              else result for result in (got, want)))
    assert repr(got) == repr(want), where


def as_real(kwargs, real):
    """kwargs with each real table parameter, and each real grid point, given as ``real``."""
    def cast(value):
        return real(value) if isinstance(value, (float, np.float32, Fraction)) else value
    return {name: [cast(point) for point in value] if name in GRID_POINTS else
            cast(value) if name in DOMAINS else value for name, value in kwargs.items()}


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_each_end_is_open_or_closed_as_stated(name):
    kind, lb, lo, hi, rb = DOMAINS[name]
    for bracket, end, inward in ((lb, lo, hi), (rb, hi, lo)):
        if math.isfinite(end):
            inside = end if bracket in "[]" else math.nextafter(end, inward)
            assert check(name, inside) == inside
    for value in out_of_domain(name):
        with pytest.raises(ValueError, match=f"^{name} must be ") as raised:
            check(name, value)
        assert states_why(name, value, str(raised.value)), str(raised.value)


def test_counts_that_size_arrays_have_ceilings():
    for name in ("k", "pdf_points", "count"):
        assert DOMAINS[name][3] < math.inf, name


def test_readme_states_every_domain():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Parameter domains", 1)[1].split("\n## ", 1)[0]
    for name, (_, _, lo, hi, _) in DOMAINS.items():
        assert f"`{name}`" in section, name
        row = next(line for line in section.splitlines()
                   if line.startswith("|") and f"`{name}`" in line)
        for end in filter(math.isfinite, (lo, hi)):  # in full, or a power of ten as 1e6
            power = f"{end:.0e}".replace("e+0", "e")
            texts = {str(end), power} if float(power) == end else {str(end)}
            assert any(re.search(rf"(?<![\d.e]){re.escape(text)}(?![\d.e])", row)
                       for text in texts), (name, end)


def option_cases():
    """(argv prefix, flag, config key, text) for every CLI option and out-of-domain text."""
    theory_pdf = ["theory", "--pdf-out", "{pdf}"]
    options = [([command], flag, key, reader)
               for command, table in cli.OPTIONS.items()
               for flag, key, reader, _, _ in table]
    options.append((theory_pdf, "--pdf-points", None, int))  # a flag, not a config key
    for prefix, flag, key, reader in options:
        grid = isinstance(reader, functools.partial)
        name = reader.args[0] if grid else key or "pdf_points"
        texts = [""] + [repr(value) for value in out_of_domain(name)]
        if grid:
            ceiling = DOMAINS["count"][3]
            texts += [f"1:2:{ceiling + 1}", "1:2:0", "1:2:1.5"]
            if reader.keywords.get("cast") is int:
                texts += [str(int(DOMAINS[name][2]) - 1), str(int(DOMAINS[name][3]) + 1)]
        for text in texts:
            yield pytest.param(prefix, flag, key, text, id=f"{' '.join(prefix[:1])}{flag}={text}")


def test_every_option_is_checked_against_the_table():
    for command, table in cli.OPTIONS.items():
        for _, key, reader, _, _ in table:
            grid = isinstance(reader, functools.partial)
            assert (reader.args[0] if grid else key) in DOMAINS, (command, key)
            assert grid or reader in (int, float), (command, key)


@pytest.mark.parametrize("prefix, flag, key, text", option_cases())
def test_out_of_domain_option_exits_3(tmp_path, capsys, prefix, flag, key, text):
    pdf = tmp_path / "pdf.csv"
    argv = [arg.format(pdf=pdf) for arg in prefix]
    routes = [[f"{flag}={text}"]]
    if key is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {text}\n")
        routes.append(["--config", str(cfg)])
    for route in routes:
        start = time.perf_counter()
        assert main(argv + route + ["--out", str(tmp_path / "out.csv")]) == 3
        assert time.perf_counter() - start < 1.0  # rejected at once
        err = capsys.readouterr().err
        assert "invalid-parameter" in err and "Traceback" not in err
        assert (key or "pdf_points") in err  # the key the text was given under
    assert not (tmp_path / "out.csv").exists() and not pdf.exists()
