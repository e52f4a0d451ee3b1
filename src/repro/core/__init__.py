"""Apparate itself: the end-to-end system assembled from the substrates.

Runs start from :class:`repro.api.Experiment`, the declarative facade: one
configuration, any set of registered systems (``vanilla``, ``apparate``, the
baselines), cross-system reports and parameter sweeps.  Every run is a fleet
(one replica by default), with EE control per replica or shared fleet-wide
via :class:`repro.core.controller.FleetController`.
"""

from repro.core.controller import ApparateController, ControllerStats, FleetController
from repro.core.pipeline import ApparateClusterRunResult
from repro.core.generative import ApparateTokenPolicy, GenerativeClusterRunResult

__all__ = [
    "ApparateController",
    "ControllerStats",
    "FleetController",
    "ApparateClusterRunResult",
    "ApparateTokenPolicy",
    "GenerativeClusterRunResult",
]
