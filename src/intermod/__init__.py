"""Interference-modulation link analysis library.

Beamforming-weight design for OOK-over-interference multiple access,
analytic energy-detector performance, its Monte Carlo validation,
and sum-rate optimization.

Each public name is imported from its home module on first use (PEP 562),
so the scalar analytics (detector, sumrate) load without numpy, and the
vector layers (channel, weights, simulator) load it only when used.  The
simulator needs neither channel nor weights: its link is N and the SNR.
"""

import importlib

__version__ = "0.1.0"

# home module -> the public names it defines
_EXPORTS = {
    "channel": "ChannelPair IllConditionedCorrelationError make_correlated_pair",
    "detector": "energy_pdf find_n_alpha log_error_probability log_gamma_tails "
                "mixture_energy_pdf optimal_threshold",
    "simulator": "BerResult ScenarioConfig run_ber_grid",
    "sumrate": "SumRatePoint closed_form_norms default_alpha_grid paper_closed_form_norms "
               "sweep_sum_rates",
    "weights": "WeightSet build_weight_set solve_min_norm",
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_HOMES)


def __getattr__(name):
    if name in _EXPORTS:  # a layer module, bound here as if the package had imported it
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
