"""Early-exit mechanism library: ramps, placement, tuning and adjustment.

This subpackage implements the EE machinery that :mod:`repro.core` assembles
into the end-to-end Apparate system:

* :mod:`repro.exits.ramps` — ramp specifications and architectures;
* :mod:`repro.exits.placement` — cut-vertex candidate enumeration, uniform
  initial spacing and ramp-budget accounting (§3.1);
* :mod:`repro.exits.config` — the deployed EE configuration (active ramps and
  their thresholds);
* :mod:`repro.exits.evaluation` — replay-based evaluation of candidate
  configurations from recorded per-ramp observations (§3.2);
* :mod:`repro.exits.thresholds` — Algorithm 1, greedy hill-climbing threshold
  tuning with MIMD step sizes, plus a grid-search reference;
* :mod:`repro.exits.adjustment` — Algorithm 2, utility-driven adjustment of
  the active ramp set (§3.3).
"""

from repro.exits.ramps import RampSpec, RampStyle, ramp_overhead_fraction, ramp_parameter_count
from repro.exits.placement import RampCatalog, build_ramp_catalog, initial_ramp_selection
from repro.exits.config import EEConfig
from repro.exits.evaluation import ConfigEvaluation, WindowBuffer, evaluate_thresholds
from repro.exits.thresholds import ThresholdTuningResult, tune_thresholds_greedy, tune_thresholds_grid
from repro.exits.adjustment import RampAdjuster, RampUtility, AdjustmentDecision

__all__ = [
    "RampSpec",
    "RampStyle",
    "ramp_overhead_fraction",
    "ramp_parameter_count",
    "RampCatalog",
    "build_ramp_catalog",
    "initial_ramp_selection",
    "EEConfig",
    "ConfigEvaluation",
    "WindowBuffer",
    "evaluate_thresholds",
    "ThresholdTuningResult",
    "tune_thresholds_greedy",
    "tune_thresholds_grid",
    "RampAdjuster",
    "RampUtility",
    "AdjustmentDecision",
]
