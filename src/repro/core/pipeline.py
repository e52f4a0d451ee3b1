"""Classification serving pipelines: vanilla and Apparate-managed.

These helpers glue together the substrates for one serving run: build the
model graph, latency profile and prediction model; construct a fleet of the
requested platform; and run the workload through either the vanilla
executor or the Apparate executor (which consults its controller for the
deployed EE configuration before every batch and streams feedback back
afterwards).

The ``_*_impl`` functions are what the system registry
(:mod:`repro.api.systems`) calls; ``fleet(profile)`` builds the run's
:class:`~repro.serving.cluster.ClusterPlatform` from the experiment's
:class:`~repro.api.specs.ClusterSpec` (one replica by default).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.controller import FleetController
from repro.exits.placement import RampCatalog, build_ramp_catalog
from repro.exits.ramps import RampStyle
from repro.graph.builders import build_graph_for_model
from repro.models.execution import ModelExecutor
from repro.models.latency import LatencyProfile, build_latency_profile
from repro.models.prediction import PredictionModel
from repro.models.zoo import ModelSpec, get_model
from repro.serving.autoscaler import (Autoscaler, build_autoscaler,
                                      canonical_autoscaler_name)
from repro.serving.clockwork import ClockworkPlatform
from repro.serving.cluster import ClusterPlatform, LoadBalancer, ReplicaProfile
from repro.serving.metrics import ClusterMetrics
from repro.serving.platform import BatchResult, ServingPlatform, VanillaExecutor
from repro.serving.request import Request, make_requests
from repro.serving.tfserve import TFServingPlatform
from repro.workloads.nlp import NLPWorkload
from repro.workloads.video import VideoWorkload

__all__ = ["ApparateExecutor", "ApparateClusterRunResult", "build_platform",
           "build_cluster", "model_stack"]

Workload = Union[VideoWorkload, NLPWorkload]
#: ``fleet(profile)`` builds the run's fleet on the model's latency profile.
Fleet = Callable[[LatencyProfile], ClusterPlatform]


@dataclass
class ApparateClusterRunResult:
    """Outcome of one Apparate cluster serving run."""

    metrics: ClusterMetrics
    fleet: FleetController

    def summary(self) -> Dict[str, float]:
        data = self.metrics.summary()
        data.update(self.fleet.stats_summary())
        data["active_ramps"] = float(np.mean(
            [c.config.num_active() for c in self.fleet.controllers]))
        return data


class ApparateExecutor:
    """Batch executor that serves through the deployed EE configuration.

    ``controller`` may be an :class:`ApparateController` or any object with
    the same ``deployed_config()`` / ``observe_batch()`` surface (e.g. the
    per-replica views handed out by a :class:`FleetController`).
    """

    def __init__(self, executor: ModelExecutor, controller) -> None:
        self.executor = executor
        self.controller = controller

    def __call__(self, batch: Sequence[Request], batch_start_ms: float) -> BatchResult:
        ramp_ids, depths, thresholds, overheads = self.controller.deployed_config()
        difficulties = [r.sample.raw_difficulty for r in batch]
        sharpness = [r.sample.sharpness for r in batch]
        shifts = [r.sample.confidence_shift for r in batch]
        execution = self.executor.execute_batch(difficulties, sharpness, ramp_ids, depths,
                                                thresholds, overheads,
                                                confidence_shifts=shifts)
        self.controller.observe_batch(execution)
        return BatchResult(
            gpu_time_ms=execution.gpu_time_ms,
            result_offsets_ms=[r.result_latency_ms for r in execution.results],
            exited=[r.exited for r in execution.results],
            exit_depths=[r.exit_depth for r in execution.results],
            correct=[r.final_correct for r in execution.results],
        )


# ---------------------------------------------------------------------------
# Stack construction helpers.
# ---------------------------------------------------------------------------

def model_stack(model: Union[str, ModelSpec], seed: int = 0,
                ramp_budget: float = 0.02,
                ramp_style: RampStyle = RampStyle.LIGHTWEIGHT
                ) -> Tuple[ModelSpec, LatencyProfile, PredictionModel, RampCatalog, ModelExecutor]:
    """Build the (spec, profile, prediction, catalog, executor) stack for a model."""
    spec = get_model(model) if isinstance(model, str) else model
    graph = build_graph_for_model(_graph_name(spec))
    profile = build_latency_profile(spec, graph)
    prediction = PredictionModel(spec, seed=seed)
    catalog = build_ramp_catalog(spec, graph, profile, budget_fraction=ramp_budget,
                                 style=ramp_style)
    executor = ModelExecutor(spec, profile, prediction)
    return spec, profile, prediction, catalog, executor


def _graph_name(spec: ModelSpec) -> str:
    """Map derived specs (e.g. quantized variants) back to a buildable graph."""
    name = spec.name
    if name.endswith("-int8"):
        return name.removesuffix("-int8")
    return name


def build_platform(platform: str, profile: LatencyProfile, max_batch_size: int = 16,
                   batch_timeout_ms: float = 5.0,
                   drop_expired: bool = True) -> ServingPlatform:
    """Construct a serving platform by name (``clockwork`` or ``tfserve``)."""
    platform = platform.lower()
    if platform == "clockwork":
        engine: ServingPlatform = ClockworkPlatform(
            profile, max_batch_size=max_batch_size, drop_expired=drop_expired)
    elif platform in ("tfserve", "tf-serving", "tensorflow-serving"):
        engine = TFServingPlatform(max_batch_size=max_batch_size,
                                   batch_timeout_ms=batch_timeout_ms,
                                   drop_expired=drop_expired,
                                   profile=profile)
    else:
        raise ValueError(f"unknown platform {platform!r}")
    return engine


def build_cluster(platform: str, profile: LatencyProfile, replicas: int,
                  balancer: Union[str, LoadBalancer] = "round_robin",
                  max_batch_size: int = 16, batch_timeout_ms: float = 5.0,
                  drop_expired: bool = True, seed: int = 0,
                  profiles: Optional[Sequence[Union[ReplicaProfile, float, str]]] = None,
                  autoscaler: Union[str, Autoscaler, None] = "none",
                  min_replicas: Optional[int] = None,
                  max_replicas: Optional[int] = None,
                  tenancy=None, faults=None, obs=None) -> ClusterPlatform:
    """Construct a fleet of platforms behind a load balancer.

    ``profiles`` makes the fleet heterogeneous: each replica's platform is
    built on ``profile.scaled(p.speed)`` so its batching policy and the
    work-aware balancers cost its queue in true milliseconds.  ``autoscaler``
    plus the ``min_replicas``/``max_replicas`` band make the fleet elastic;
    scaled-out replicas run base-speed platforms from a factory.  ``tenancy``
    and ``faults`` turn on multi-tenant dispatch and replica failure
    injection (see :class:`~repro.serving.cluster.ClusterPlatform`).
    """
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    resolved = [ReplicaProfile.coerce(p) for p in profiles] \
        if profiles is not None else [ReplicaProfile() for _ in range(replicas)]
    if len(resolved) != replicas:
        raise ValueError(f"got {len(resolved)} replica profiles for "
                         f"{replicas} replicas")
    fleet = [build_platform(platform, profile.scaled(p.speed),
                            max_batch_size=max_batch_size,
                            batch_timeout_ms=batch_timeout_ms,
                            drop_expired=drop_expired)
             for p in resolved]

    def replica_factory() -> ServingPlatform:
        return build_platform(platform, profile, max_batch_size=max_batch_size,
                              batch_timeout_ms=batch_timeout_ms,
                              drop_expired=drop_expired)

    return ClusterPlatform(fleet, balancer=balancer, seed=seed,
                           profiles=resolved, autoscaler=autoscaler,
                           min_replicas=min_replicas, max_replicas=max_replicas,
                           replica_factory=replica_factory,
                           tenancy=tenancy, faults=faults, obs=obs)


# ---------------------------------------------------------------------------
# Serving implementations (called through the system registry).
# ---------------------------------------------------------------------------

def _workload_requests(workload: Workload, slo_ms: float) -> List[Request]:
    return make_requests(workload.trace, workload.arrival_times_ms, slo_ms)


def _resolve_autoscaler(autoscaler: Union[str, Autoscaler, None],
                        slo_ms: float) -> Union[Autoscaler, str, None]:
    """Build a name-selected autoscaler with the run's SLO threaded in.

    ``reactive`` scales on queue depth *and* SLO headroom; the headroom
    signal needs the serving SLO, which only the run knows — so name-based
    construction (ClusterSpec / CLI) resolves here.  Instances pass through
    untouched (the caller already chose their knobs).
    """
    if autoscaler is None or isinstance(autoscaler, Autoscaler):
        return autoscaler
    key = canonical_autoscaler_name(autoscaler)
    if key == "reactive":
        return build_autoscaler(key, slo_ms=slo_ms)
    return build_autoscaler(key)


def _vanilla_cluster_impl(model: Union[str, ModelSpec], workload: Workload,
                          fleet: Fleet, slo_ms: Optional[float] = None,
                          seed: int = 0) -> ClusterMetrics:
    spec, profile, _prediction, _catalog, executor = model_stack(model, seed=seed)
    slo = slo_ms if slo_ms is not None else spec.default_slo_ms
    # The vanilla executor is stateless, so every replica can share it
    # (including replicas the autoscaler brings online mid-run).
    return fleet(profile).run(_workload_requests(workload, slo),
                              VanillaExecutor(executor))


def _apparate_cluster_impl(model: Union[str, ModelSpec], workload: Workload,
                           fleet: Fleet, fleet_mode: str = "independent",
                           sync_period: int = 64, slo_ms: Optional[float] = None,
                           accuracy_constraint: float = 0.01,
                           ramp_budget: float = 0.02,
                           ramp_style: RampStyle = RampStyle.LIGHTWEIGHT,
                           seed: int = 0, ramp_adjustment_enabled: bool = True,
                           initial_ramp_ids: Optional[Sequence[int]] = None
                           ) -> ApparateClusterRunResult:
    spec, profile, _prediction, catalog, executor = model_stack(
        model, seed=seed, ramp_budget=ramp_budget, ramp_style=ramp_style)
    slo = slo_ms if slo_ms is not None else spec.default_slo_ms
    cluster = fleet(profile)
    controllers = FleetController(spec, catalog, profile, cluster.num_replicas,
                                  mode=fleet_mode, sync_period=sync_period,
                                  ramp_adjustment_enabled=ramp_adjustment_enabled,
                                  accuracy_constraint=accuracy_constraint,
                                  initial_ramp_ids=initial_ramp_ids)
    # Executors come from a factory keyed by replica ordinal so replicas the
    # autoscaler adds mid-run get their own controller view (fresh controller
    # in independent mode, synced view of the shared one otherwise).
    metrics = cluster.run(
        _workload_requests(workload, slo),
        executor_factory=lambda i: ApparateExecutor(
            executor, controllers.replica_controller(i)))
    controllers.flush()
    return ApparateClusterRunResult(metrics=metrics, fleet=controllers)
