"""Interference-modulation link analysis library.

Beamforming-weight design for OOK-over-interference multiple access,
analytic energy-detector performance, waveform-level Monte Carlo
validation, and sum-rate optimization.
"""

__version__ = "0.1.0"

from .channel import (
    ChannelPair,
    IllConditionedCorrelationError,
    inner_product,
    make_correlated_pair,
)
from .detector import (
    energy_pdf,
    error_probability,
    log_error_probability,
    log_gamma_tails,
    mixture_energy_pdf,
    optimal_threshold,
)
from .simulator import BerResult, ScenarioConfig, run_ber
from .sumrate import SumRatePoint, default_alpha_grid, find_n_alpha, sweep_sum_rate
from .weights import (
    TargetGains,
    WeightSet,
    build_weight_set,
    closed_form_norms,
    paper_closed_form_norms,
    phase_align_targets,
    solve_min_norm,
)

__all__ = [
    "BerResult",
    "ChannelPair",
    "IllConditionedCorrelationError",
    "ScenarioConfig",
    "SumRatePoint",
    "TargetGains",
    "WeightSet",
    "build_weight_set",
    "closed_form_norms",
    "default_alpha_grid",
    "energy_pdf",
    "error_probability",
    "find_n_alpha",
    "inner_product",
    "log_error_probability",
    "log_gamma_tails",
    "make_correlated_pair",
    "mixture_energy_pdf",
    "optimal_threshold",
    "paper_closed_form_norms",
    "phase_align_targets",
    "run_ber",
    "solve_min_norm",
    "sweep_sum_rate",
]
