"""Metric registry: names, units, direction, regression bounds, and for each
per-layer metric the end-to-end metric and workloads it should move.

BENCHMARK.json mirrors END_TO_END, PER_LAYER and the workload reasons; a
test keeps the two in step.
"""

from __future__ import annotations

BER = ("ber-sweep", "ber-point")
SUMRATE = ("sumrate-lowsnr", "sumrate-highsnr")
ALL = BER + SUMRATE

# (name, unit, better, bound as a share of the parent's median).  On a
# shared 2-vCPU VM the speed of the same code swings by up to 2x within
# seconds, with the load of other tenants.  The gated times are therefore
# taken at the reference host speed: each timed call is scaled by a fixed
# calibration kernel timed just before and after it (run.CALIBRATION).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),  # fresh interpreter importing intermod.cli, not scaled
    ("wall_ref_s", "s", "lower", 0.25),  # one CLI call (setup excluded), at reference speed
    ("cpu_ref_s", "s", "lower", 0.25),  # user + sys of the call's process tree, likewise
    ("peak_rss_mb", "MB", "lower", 0.1),  # summed over concurrently live processes
)

# Printed and recorded, but not gated: the raw times follow the host's
# speed; mc_msamples_per_s has no meaning on the sumrate workloads (and is
# bits x N / wall_s on the ber ones); failed_frac is 0 whenever the program
# is correct.
REPORTED = (
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("sweep_points_per_s", "1/s", "higher"),
    ("mc_msamples_per_s", "Msamples/s", "higher"),
    ("host_speed", "ratio", "higher"),
    ("timed_calls", "count", "higher"),  # the samples behind each median
    ("failed_frac", "ratio", "lower"),
)

_RLG = "detector.regularized_lower_gamma"
_FNA = "sumrate.find_n_alpha"

# (name, unit, better, end-to-end metric it should move, workloads)
PER_LAYER = (
    ("simulator.run_ber.calls", "count", "lower", "mc_msamples_per_s", BER),
    ("simulator.run_ber.self_s", "s", "lower", "mc_msamples_per_s", BER),
    ("simulator.msamples_per_self_s", "Msamples/s", "higher", "mc_msamples_per_s", BER),
    ("simulator.draw_efficiency", "ratio", "higher", "mc_msamples_per_s", ("ber-sweep",)),
    ("simulator.draw_efficiency_min", "ratio", "higher", "mc_msamples_per_s", ("ber-sweep",)),
    ("simulator.run_ber.max_point_s", "s", "lower", "wall_s", ("ber-point",)),
    (f"{_RLG}.calls", "count", "lower", "sweep_points_per_s", SUMRATE),
    (f"{_RLG}.self_s", "s", "lower", "sweep_points_per_s", SUMRATE),
    (f"{_RLG}.series_calls", "count", "lower", "sweep_points_per_s", ("sumrate-highsnr",)),
    (f"{_RLG}.cf_calls", "count", "lower", "sweep_points_per_s", ("sumrate-highsnr",)),
    (f"{_RLG}.large_s_calls", "count", "lower", "sweep_points_per_s", ("sumrate-lowsnr",)),
    (f"{_RLG}.large_s_self_s", "s", "lower", "sweep_points_per_s", ("sumrate-lowsnr",)),
    (f"{_RLG}.p50_us", "us", "lower", "sweep_points_per_s", ("sumrate-highsnr",)),
    (f"{_RLG}.p99_us", "us", "lower", "sweep_points_per_s", ("sumrate-lowsnr",)),
    (f"{_RLG}.max_s", "s", "lower", "sweep_points_per_s", ("sumrate-lowsnr",)),
    ("detector.error_probability.calls", "count", "lower", "sweep_points_per_s", SUMRATE),
    ("detector.error_probability.self_s", "s", "lower", "sweep_points_per_s", SUMRATE),
    ("detector.optimal_threshold.calls", "count", "lower", "sweep_points_per_s", SUMRATE),
    ("detector.optimal_threshold.self_s", "s", "lower", "sweep_points_per_s", SUMRATE),
    (f"{_FNA}.calls", "count", "lower", "sweep_points_per_s", SUMRATE),
    (f"{_FNA}.self_s", "s", "lower", "sweep_points_per_s", SUMRATE),
    (f"{_FNA}.p50_ms", "ms", "lower", "sweep_points_per_s", SUMRATE),
    (f"{_FNA}.p99_ms", "ms", "lower", "sweep_points_per_s", SUMRATE),
    (f"{_FNA}.pe_evals_per_call", "1/call", "lower", "sweep_points_per_s", SUMRATE),
    ("sumrate.unmet_frac", "ratio", "lower", "sweep_points_per_s", ("sumrate-lowsnr",)),
    ("sumrate.sweep_sum_rate.calls", "count", "lower", "sweep_points_per_s", SUMRATE),
    ("sumrate.sweep_sum_rate.self_s", "s", "lower", "sweep_points_per_s", SUMRATE),
    ("weights.build_weight_set.calls", "count", "lower", "wall_s", BER),
    ("weights.build_weight_set.self_s", "s", "lower", "wall_s", BER),
    ("weights.closed_form_norms.calls", "count", "lower", "wall_s", SUMRATE),
    ("weights.closed_form_norms.self_s", "s", "lower", "wall_s", SUMRATE),
    ("channel.make_correlated_pair.calls", "count", "lower", "wall_s", BER),
    ("channel.make_correlated_pair.self_s", "s", "lower", "wall_s", BER),
    ("channel.self_s", "s", "lower", "wall_s", ALL),
    ("weights.self_s", "s", "lower", "wall_s", ALL),
    ("detector.self_s", "s", "lower", "wall_s", ALL),
    ("simulator.self_s", "s", "lower", "wall_s", BER),
    ("sumrate.self_s", "s", "lower", "wall_s", SUMRATE),
    ("cli.self_s", "s", "lower", "wall_s", ALL),
    ("cli.parallel_efficiency", "ratio", "higher", "wall_s", ("ber-point",)),
    ("trace.wall_s", "s", "lower", "wall_s", ALL),
    ("trace.overhead_frac", "ratio", "lower", "wall_s", ALL),
)


def benchmark_metrics() -> dict:
    """The ``end_to_end`` and ``per_layer`` entries BENCHMARK.json must hold."""
    return {
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _, _ in PER_LAYER],
    }
