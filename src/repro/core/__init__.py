"""Apparate itself: the end-to-end system assembled from the substrates.

The public entry points are:

* :class:`repro.api.Experiment` — the declarative facade: one configuration,
  any set of registered systems (``vanilla``, ``apparate``, the baselines),
  cross-system reports and parameter sweeps.  Every run is a fleet (one
  replica by default), with EE control per replica or shared fleet-wide via
  :class:`repro.core.controller.FleetController`;
* :class:`repro.core.apparate.Apparate` — register a model, let the system
  prepare it with early exits, and serve workloads on a chosen platform.
"""

from repro.core.apparate import Apparate, ApparateDeployment, PreparationReport
from repro.core.controller import ApparateController, ControllerStats, FleetController
from repro.core.pipeline import ApparateClusterRunResult
from repro.core.generative import ApparateTokenPolicy, GenerativeClusterRunResult

__all__ = [
    "Apparate",
    "ApparateDeployment",
    "PreparationReport",
    "ApparateController",
    "ControllerStats",
    "FleetController",
    "ApparateClusterRunResult",
    "ApparateTokenPolicy",
    "GenerativeClusterRunResult",
]
