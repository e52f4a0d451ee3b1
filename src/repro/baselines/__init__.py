"""Baselines the paper compares against.

* :mod:`repro.baselines.oracle` — optimal early exiting (§2.2): every input
  exits at the earliest ramp that would have produced the original model's
  prediction, with zero ramp overhead.
* :mod:`repro.baselines.static_ee` — existing EE models (BranchyNet, DeeBERT):
  always-on ramps at every feasible position with one-time threshold tuning
  (shared, per-ramp "+", or test-set-oracle "opt" variants), no runtime
  adaptation (§4.4, Table 2).
* :mod:`repro.baselines.two_layer` — two-layer inference systems (Tabi,
  FilterForward): a compressed model serves every input and low-confidence
  inputs are escalated to the base model (§4.2, Figure 16).
* :mod:`repro.baselines.free` — FREE-style generative early exiting: a single
  fixed ramp whose position/threshold are tuned once on bootstrap data
  (§4.4, Figure 18).

Each is a registered system (``optimal``, ``static_ee``, ``two_layer``,
``free``): run them with ``Experiment(...).run([...])``.
"""

from repro.baselines.oracle import (
    OracleTokenPolicy,
    optimal_exit_depths,
    optimal_latencies,
)
from repro.baselines.static_ee import StaticEEVariant, StaticEEResult
from repro.baselines.two_layer import TwoLayerSystem, TwoLayerResult
from repro.baselines.free import FreeTokenPolicy, calibrate_free_policy

__all__ = [
    "OracleTokenPolicy",
    "optimal_exit_depths",
    "optimal_latencies",
    "StaticEEVariant",
    "StaticEEResult",
    "TwoLayerSystem",
    "TwoLayerResult",
    "FreeTokenPolicy",
    "calibrate_free_policy",
]
