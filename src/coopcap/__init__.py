"""Erasure multiple-access channels whose two-sender sum capacity jumps
when a tiny-rate cooperation facilitator is added.

The pipeline: sample a 2^m x 2^m erasure pattern whose aligned blocks all
contain a good entry (channel), run the zero-error facilitator code and
the single-sender fallback on it (coding), estimate the best
no-facilitator sum rate over product inputs (capacity), and compare
against the closed-form inner/outer bounds (bounds). experiments sweeps
widths and persists records; cli exposes everything as subcommands.

The top level holds the names of that pipeline; everything else is
imported from its own module.
"""

from .bounds import cf_inner_region, cf_outer_region
from .capacity import brute_force_sum_capacity, maximize_sum_rate, sum_rate
from .channel import ConstructionParams, construct_channel
from .coding import CfCode, monte_carlo_error, verify_zero_error
from .experiments import ExperimentConfig, run_sweep

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "CfCode",
    "ConstructionParams",
    "ExperimentConfig",
    "brute_force_sum_capacity",
    "cf_inner_region",
    "cf_outer_region",
    "construct_channel",
    "maximize_sum_rate",
    "monte_carlo_error",
    "run_sweep",
    "sum_rate",
    "verify_zero_error",
]
