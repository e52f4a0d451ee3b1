"""The Apparate system: the public, end-to-end API (Figure 6).

Workflow (mirroring the paper's system architecture):

1. ``register`` a model along with its SLO, an accuracy constraint and a ramp
   budget ("ramp aggression").  Apparate analyzes the model graph, enumerates
   feasible ramp positions (cut vertices), sizes lightweight ramps, trains
   them on bootstrap data and deploys the EE-enabled model with evenly spaced
   ramps whose thresholds all start at 0.
2. ``serve`` a workload on a chosen serving platform (a fleet of one
   replica).  During serving the controller continuously tunes thresholds
   (accuracy preservation) and adjusts the active ramp set (latency
   optimization).

The class is a thin orchestration layer over :mod:`repro.core.pipeline`; it
exists so that the examples read like the real system's user-facing API.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.core.controller import FleetController
from repro.core.pipeline import (ApparateClusterRunResult, ApparateExecutor,
                                 Workload, build_cluster, model_stack)
from repro.exits.placement import initial_ramp_selection
from repro.exits.ramps import RampStyle
from repro.exits.training import RampTrainer, RampTrainingReport
from repro.models.zoo import ModelSpec, get_model
from repro.serving.cluster import ClusterPlatform
from repro.serving.metrics import ClusterMetrics
from repro.serving.platform import VanillaExecutor
from repro.serving.request import make_requests

__all__ = ["PreparationReport", "ApparateDeployment", "Apparate"]


@dataclass
class PreparationReport:
    """Summary of the model-preparation phase (§3.1)."""

    model_name: str
    num_candidate_ramps: int
    num_initial_ramps: int
    ramp_budget: float
    ramp_params_fraction: float
    training: Optional[RampTrainingReport] = None


@dataclass
class ApparateDeployment:
    """A registered model ready to serve workloads."""

    spec: ModelSpec
    slo_ms: float
    accuracy_constraint: float
    ramp_budget: float
    ramp_style: RampStyle
    seed: int
    preparation: PreparationReport
    _stack: tuple = field(repr=False, default=())

    def serve(self, workload: Workload, platform: str = "clockwork",
              max_batch_size: int = 16,
              drop_expired: bool = True) -> ApparateClusterRunResult:
        """Serve a workload with Apparate managing exits on one replica of
        the given platform."""
        _spec, profile, _prediction, catalog, executor = self._stack
        controllers = FleetController(self.spec, catalog, profile, 1,
                                      accuracy_constraint=self.accuracy_constraint)
        metrics = self._fleet(platform, max_batch_size, drop_expired).run(
            self._requests(workload),
            ApparateExecutor(executor, controllers.replica_controller(0)))
        return ApparateClusterRunResult(metrics=metrics, fleet=controllers)

    def serve_vanilla(self, workload: Workload, platform: str = "clockwork",
                      max_batch_size: int = 16,
                      drop_expired: bool = True) -> ClusterMetrics:
        """Serve the same workload with the original model (for comparison)."""
        _spec, _profile, _prediction, _catalog, executor = self._stack
        return self._fleet(platform, max_batch_size, drop_expired).run(
            self._requests(workload), VanillaExecutor(executor))

    def _fleet(self, platform: str, max_batch_size: int,
               drop_expired: bool) -> ClusterPlatform:
        """One replica of ``platform``: the paper's single-model setup."""
        _spec, profile, _prediction, _catalog, _executor = self._stack
        return build_cluster(platform, profile, 1,
                             max_batch_size=max_batch_size,
                             drop_expired=drop_expired)

    def _requests(self, workload: Workload):
        return make_requests(workload.trace, workload.arrival_times_ms,
                             self.slo_ms)


class Apparate:
    """Top-level system object: register models, then serve workloads."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self.deployments: Dict[str, ApparateDeployment] = {}

    def register(self, model: Union[str, ModelSpec], slo_ms: Optional[float] = None,
                 accuracy_constraint: float = 0.01, ramp_budget: float = 0.02,
                 ramp_style: RampStyle = RampStyle.LIGHTWEIGHT,
                 bootstrap_workload: Optional[Workload] = None) -> ApparateDeployment:
        """Register a model and prepare it with early exits.

        Parameters
        ----------
        model:
            Registered model name or a custom :class:`ModelSpec`.
        slo_ms:
            Response-time SLO; defaults to the model's Table 5 SLO.
        accuracy_constraint:
            Tolerable accuracy loss relative to the original model (default 1%).
        ramp_budget:
            Bound on the active ramps' impact on worst-case latency (default 2%).
        bootstrap_workload:
            Optional workload whose leading 10% is used to train/calibrate the
            ramps; when omitted, ramps deploy untrained with threshold 0 and
            are calibrated from live feedback (the paper supports both).
        """
        stack = model_stack(model, seed=self.seed, ramp_budget=ramp_budget,
                            ramp_style=ramp_style)
        spec, _profile, prediction, catalog, _executor = stack
        slo = slo_ms if slo_ms is not None else spec.default_slo_ms

        training_report: Optional[RampTrainingReport] = None
        if bootstrap_workload is not None:
            trainer = RampTrainer(spec, catalog, prediction)
            training_report = trainer.train(bootstrap_workload.trace)

        initial = initial_ramp_selection(catalog)
        ramp_params = sum(catalog.ramp(r).params for r in range(len(catalog)))
        model_params = max(spec.params_millions * 1e6, 1.0)
        preparation = PreparationReport(
            model_name=spec.name,
            num_candidate_ramps=len(catalog),
            num_initial_ramps=len(initial),
            ramp_budget=ramp_budget,
            ramp_params_fraction=ramp_params / model_params,
            training=training_report,
        )
        deployment = ApparateDeployment(
            spec=spec, slo_ms=slo, accuracy_constraint=accuracy_constraint,
            ramp_budget=ramp_budget, ramp_style=ramp_style, seed=self.seed,
            preparation=preparation, _stack=stack)
        self.deployments[spec.name] = deployment
        return deployment

    def deployment(self, model_name: str) -> ApparateDeployment:
        try:
            return self.deployments[model_name]
        except KeyError as exc:
            raise KeyError(f"model {model_name!r} has not been registered") from exc

    def registered_models(self) -> List[str]:
        return sorted(self.deployments)
