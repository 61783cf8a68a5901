"""Tests of the benchmark itself: tracing arithmetic, output checks, workloads."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from checks import check_ber, check_sumrate, parse_csv
from intermod.cli import main as intermod_main
from layertrace import Tracer, merge, per_layer_metrics
from metrics import PER_LAYER, benchmark_metrics
from run import CALIB_REF_S, cli_env, speed_factors
from workloads import G_RANGE, NAMES, RHO_RANGE, WHY, make_workload

ROOT = Path(__file__).resolve().parent.parent


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def test_self_time_accounting_on_nested_calls():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    inner = tracer.wrap("detector.inner", lambda: clock.advance(2.0))

    def body():
        clock.advance(1.0)
        inner()
        inner()
        clock.advance(3.0)

    def failing():
        clock.advance(0.5)
        raise ValueError("boom")

    outer = tracer.wrap("sumrate.outer", body)
    broken = tracer.wrap("weights.broken", failing)
    clock.advance(1.0)  # CLI time before the first layer call
    outer()
    with pytest.raises(ValueError):
        broken()
    clock.advance(1.5)  # CLI time after the last one

    assert tracer.records["detector.inner"] == [(2.0, 2.0, "sumrate.outer", None)] * 2
    assert tracer.records["sumrate.outer"] == [(8.0, 4.0, None, None)]
    assert tracer.records["weights.broken"] == [(0.5, 0.5, None, None)]
    m = per_layer_metrics(merge([tracer.aggregate()]), wall_s=11.0, t0=0.0, jobs=1)
    assert m["detector.self_s"] == 4.0
    assert m["sumrate.self_s"] == 4.0
    assert m["weights.self_s"] == 0.5
    assert m["cli.self_s"] == 2.5
    layers = ("channel", "weights", "detector", "simulator", "sumrate", "cli")
    assert sum(m[f"{layer}.self_s"] for layer in layers) == m["trace.wall_s"] == 11.0


def test_per_layer_metrics_cover_the_registry():
    produced = set(per_layer_metrics(merge([]), 1.0, 0.0, 1)) | {"trace.overhead_frac"}
    assert produced == {name for name, *_ in PER_LAYER}


def _set_field(text, row, column, value):
    """Rewrite one cell of a CLI CSV, leaving everything else byte-identical."""
    lines = text.splitlines()
    data = [i for i, line in enumerate(lines) if not line.startswith("#")]
    header = lines[data[0]].split(",")
    cells = lines[data[1 + row]].split(",")
    cells[header.index(column)] = value
    lines[data[1 + row]] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _cli_csv(tmp_path, argv):
    out = tmp_path / "out.csv"
    assert intermod_main([*argv, "--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


def test_ber_check_accepts_cli_output_and_rejects_an_altered_error_count(tmp_path):
    text = _cli_csv(tmp_path, ["ber", "--n", "10,100", "--snr-db=-5,0", "--bits", "3000"])
    expect = {"n_grid": [10, 100], "snr_grid": [-5.0, 0.0], "bits": 3000}
    assert check_ber(text, **expect) == []
    _, rows = parse_csv(text)
    altered = _set_field(text, 1, "n_errors", str(int(rows[1]["n_errors"]) + 1))
    assert check_ber(altered, **expect)
    # a consistent row far outside the binomial band fails too
    far = _set_field(_set_field(text, 0, "n_errors", "3000"), 0, "ber", "1")
    assert any("expected" in p for p in check_ber(far, **expect))


def test_sumrate_check_accepts_cli_output_and_rejects_an_altered_n_alpha(tmp_path):
    text = _cli_csv(tmp_path, ["sumrate", "--gamma-db", "30", "--rho", "0.3", "--g", "1",
                               "--alpha", "0.01,0.1,0.5"])
    expect = {"rho_grid": [0.3], "g_grid": [1.0], "gamma_db": 30.0,
              "alpha_grid": [0.01, 0.1, 0.5], "pe_target": 1e-5, "n_max": 10**6}
    assert check_sumrate(text, **expect) == []
    _, rows = parse_csv(text)
    n = int(rows[1]["n_alpha"])
    assert check_sumrate(_set_field(text, 1, "n_alpha", str(n - 1)), **expect)
    # N + 1 with rates rewritten to match still fails: the oracle brackets N
    pu = float(rows[1]["pu_rate"])
    bigger = _set_field(text, 1, "n_alpha", str(n + 1))
    bigger = _set_field(bigger, 1, "su_rate", f"{1.0 / (n + 1):.12g}")
    bigger = _set_field(bigger, 1, "total", f"{pu + 1.0 / (n + 1):.12g}")
    problems = check_sumrate(bigger, **expect)
    assert len(problems) == 1 and "not the smallest" in problems[0]


@pytest.mark.parametrize("name", NAMES)
def test_workloads_are_deterministic_in_the_seed_with_equal_work(name):
    a, again, b = make_workload(name, 3), make_workload(name, 3), make_workload(name, 4)
    assert a == again
    assert a.argv != b.argv
    assert (a.kind, a.jobs, a.points, a.msamples) == (b.kind, b.jobs, b.points, b.msamples)
    if a.kind == "ber":
        assert a.expect == b.expect
    else:
        for key, (lo, hi) in (("rho_grid", RHO_RANGE), ("g_grid", G_RANGE)):
            assert len(a.expect[key]) == len(b.expect[key])
            assert all(lo <= v <= hi for v in a.expect[key] + b.expect[key])
        assert a.expect["alpha_grid"] == b.expect["alpha_grid"]


def test_benchmark_json_mirrors_the_registry():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert spec["workloads"] == [{"name": n, "why": WHY[n]} for n in NAMES]
    expected = benchmark_metrics()
    assert spec["end_to_end"] == expected["end_to_end"]
    assert spec["per_layer"] == expected["per_layer"]


def test_speed_factors_take_the_median_calibration_around_each_call():
    # calib[j] is taken just before timed call j, calib[j + 1] just after it
    calib = [CALIB_REF_S * k for k in (2, 2, 2, 9, 1, 1, 1)]
    factors = speed_factors(calib, 6)
    assert factors[0] == pytest.approx(0.5)  # window 2, 2, 2: host at half speed
    assert factors[2] == pytest.approx(0.5)  # window 2, 2, 9, 1: the outlier does not count
    assert factors[3] == pytest.approx(1 / 1.5)  # window 2, 9, 1, 1
    assert factors[5] == pytest.approx(1.0)  # window 1, 1, 1
    assert len(speed_factors(calib[:3], 6)) == 2  # a call with no calibration after it


def _loop(tmp_path, timeout, argv):
    result = tmp_path / "loop.json"
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "loop.py"), str(result), "0",
                           str(timeout), *argv], cwd=ROOT, env=cli_env(), capture_output=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(result.read_text(encoding="utf-8"))


def test_loop_times_repeated_calls_with_calibrations_around_each(tmp_path):
    data = _loop(tmp_path, 60, ["sumrate", "--gamma-db", "30", "--rho", "0.3", "--g", "1",
                                "--alpha", "0.01,0.1"])
    calls = data["calls"]
    assert len(calls) == 2 and len(data["calib_s"]) == 2  # warm-up + one timed call
    assert not any(c["error"] for c in calls)
    assert {c["csv_sha256"] for c in calls} == set(data["outputs"])
    assert len(data["outputs"]) == 1
    assert next(iter(data["outputs"].values())).startswith("# intermod sumrate")


def test_loop_counts_a_call_past_its_timeout_as_failed_and_stops(tmp_path):
    data = _loop(tmp_path, 0.05, ["sumrate", "--gamma-db", "0", "--rho", "0.5", "--g", "1"])
    assert len(data["calls"]) == 1
    assert data["calls"][0]["error"].startswith("timed out")
