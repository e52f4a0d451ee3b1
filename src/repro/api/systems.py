"""Registered serving systems: every comparable system behind one interface.

Each runner adapts one of the repo's serving implementations (Apparate,
vanilla, and the paper's baselines) to the registry contract: take an
:class:`~repro.api.experiment.Experiment`, run it on the fleet its
:class:`~repro.api.specs.ClusterSpec` describes, and return a
:class:`~repro.api.result.RunResult` in the shared schema.  A runner
branches only on the model family; the fleet builders and
:func:`_fleet_details` are the only code here that reads the topology.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.api.registry import register_system
from repro.api.result import KIND_CLASSIFICATION, KIND_GENERATIVE, RunResult
from repro.baselines.free import _free_generative_cluster_impl
from repro.baselines.oracle import (_optimal_classification_impl,
                                    _optimal_generative_cluster_impl)
from repro.baselines.static_ee import StaticEEVariant, _static_ee_impl
from repro.baselines.two_layer import _two_layer_impl
from repro.core.generative import (GenerativeFleet,
                                   _generative_apparate_cluster_impl,
                                   build_disaggregated_platform,
                                   build_generative_cluster)
from repro.core.pipeline import (Fleet, _apparate_cluster_impl,
                                 _resolve_autoscaler, _vanilla_cluster_impl,
                                 build_cluster)
from repro.obs import build_recorder
from repro.serving.hf_pipelines import VanillaTokenPolicy

__all__ = ["REGISTERED_SYSTEMS"]

#: Canonical registry contents; tests assert the registry matches this set.
REGISTERED_SYSTEMS = ("apparate", "free", "optimal", "static_ee", "two_layer",
                      "vanilla")

_BOTH_KINDS = (KIND_CLASSIFICATION, KIND_GENERATIVE)
_CLASSIFY_BATCH = 16
_GENERATIVE_BATCH = 8


def _result(experiment, system: str, summary: Dict[str, float], raw: Any,
            details: Optional[Dict[str, Any]] = None, trace=None) -> RunResult:
    details = dict(details) if details else {}
    if trace is not None and trace.enabled:
        details["obs"] = trace.summary()
    return RunResult(system=system, kind=experiment.kind,
                     model=experiment.spec.name, summary=dict(summary),
                     params=experiment.describe(), details=details, raw=raw,
                     trace=trace)


def _recorder_for(experiment):
    """The live recorder for ``Experiment.trace``, or ``None`` when off.

    ``None`` (not :data:`~repro.obs.NULL_RECORDER`) keeps untraced runs on
    the exact pre-observability code path: the platforms keep their
    module-level null recorder singleton.
    """
    recorder = build_recorder(experiment.trace)
    return recorder if recorder.enabled else None


# ---------------------------------------------------------------------------
# Fleet builders: the experiment's ClusterSpec as a platform.
# ---------------------------------------------------------------------------

def _classification_fleet(experiment, obs) -> Fleet:
    """``fleet(profile)``: the experiment's classification fleet."""
    cluster = experiment.cluster

    def build(profile):
        return build_cluster(
            experiment.platform, profile, cluster.replicas,
            balancer=cluster.balancer,
            max_batch_size=experiment.batch_size(_CLASSIFY_BATCH),
            drop_expired=experiment.drop_expired, seed=experiment.seed,
            profiles=cluster.profiles,
            autoscaler=_resolve_autoscaler(cluster.autoscaler,
                                           experiment.resolved_slo_ms()),
            min_replicas=cluster.resolved_min_replicas(),
            max_replicas=cluster.resolved_max_replicas(),
            tenancy=cluster.tenants, faults=cluster.faults, obs=obs)
    return build


def _generative_fleet(experiment, obs, flush_limit: int = 8) -> GenerativeFleet:
    """``fleet(ramp_overhead)``: the experiment's generative fleet — one
    decode pool, or prefill and decode pools when ``disaggregate`` is set."""
    cluster = experiment.cluster
    common = dict(max_batch_size=experiment.batch_size(_GENERATIVE_BATCH),
                  flush_limit=flush_limit, seed=experiment.seed,
                  ttft_slo_ms=experiment.slo_ms, tenancy=cluster.tenants,
                  faults=cluster.faults, kv_capacity=cluster.kv_capacity,
                  obs=obs)
    if not cluster.disaggregate:
        return lambda ramp_overhead: build_generative_cluster(
            experiment.spec, cluster.replicas, balancer=cluster.balancer,
            ramp_overhead=ramp_overhead, profiles=cluster.profiles,
            autoscaler=cluster.autoscaler,
            min_replicas=cluster.resolved_min_replicas(),
            max_replicas=cluster.resolved_max_replicas(),
            prefill_in_slot=cluster.prefill_in_slot, **common)
    prefill_min, prefill_max = cluster.resolved_prefill_band()
    decode_min, decode_max = cluster.resolved_decode_band()

    def pool_default(value, fleet_wide):
        # Raw values (not canonical names) so balancer/autoscaler
        # *instances* reach the platform with their configuration intact.
        return value if value is not None else fleet_wide

    return lambda ramp_overhead: build_disaggregated_platform(
        experiment.spec, ramp_overhead=ramp_overhead,
        prefill_replicas=cluster.resolved_prefill_replicas(),
        decode_replicas=cluster.resolved_decode_replicas(),
        prefill_balancer=pool_default(cluster.prefill_balancer, cluster.balancer),
        decode_balancer=pool_default(cluster.decode_balancer, cluster.balancer),
        prefill_autoscaler=pool_default(cluster.prefill_autoscaler,
                                        cluster.autoscaler),
        decode_autoscaler=pool_default(cluster.decode_autoscaler,
                                       cluster.autoscaler),
        prefill_min_replicas=prefill_min, prefill_max_replicas=prefill_max,
        decode_min_replicas=decode_min, decode_max_replicas=decode_max,
        prefill_profiles=cluster.prefill_profiles,
        decode_profiles=cluster.decode_profiles, **common)


def _fleet_details(experiment, metrics) -> Dict[str, Any]:
    """Fleet extras every fleet system reports: dispatch balance plus the
    autoscaling fleet-size timeline and replica-seconds consumed (both
    pools' for a disaggregated run)."""
    details = {
        "dispatch_counts": list(metrics.dispatch_counts),
        "fleet_timeline": [[float(t), int(n)] for t, n in metrics.fleet_timeline],
        "replica_seconds": float(metrics.replica_seconds),
    }
    if hasattr(metrics, "rerouted"):
        details["rerouted"] = int(metrics.rerouted)
    if metrics.crashes or metrics.recoveries:
        details["crashes"] = int(metrics.crashes)
        details["recoveries"] = int(metrics.recoveries)
        details["requeued"] = int(metrics.requeued)
    if metrics.tenant_rollups:
        details["tenant_rollups"] = {tenant: dict(stats) for tenant, stats
                                     in metrics.tenant_rollups.items()}
    kernel = getattr(metrics, "kernel_stats", None)
    if kernel:
        details["kernel"] = dict(kernel)
    aggregate = metrics.aggregate()
    if getattr(aggregate, "kv_enabled", False):
        details["kv_cache"] = {
            "hit_rate": aggregate.kv_hit_rate(),
            "hit_tokens": int(aggregate.kv_hit_tokens),
            "miss_tokens": int(aggregate.kv_miss_tokens),
            "evictions": int(aggregate.kv_evictions),
            "evicted_tokens": int(aggregate.kv_evicted_tokens),
            "recompute_tokens": int(aggregate.kv_recompute_tokens),
        }
    if experiment.cluster.disaggregate:
        details.update({
            "prefill_dispatch_counts": list(metrics.prefill_dispatch_counts),
            "prefill_token_counts": list(metrics.prefill_token_counts),
            "prefill_fleet_timeline": [[float(t), int(n)] for t, n
                                       in metrics.prefill_fleet_timeline],
            "prefill_replica_seconds": float(metrics.prefill_replica_seconds),
        })
    return details


# ---------------------------------------------------------------------------
# Core systems.
# ---------------------------------------------------------------------------

@register_system(
    "vanilla", kinds=_BOTH_KINDS,
    description="the original model with no early exits (the paper's baseline)",
    aliases=("baseline",))
def _vanilla_system(experiment) -> RunResult:
    obs = _recorder_for(experiment)
    workload = experiment.workload_obj()
    if experiment.is_generative:
        # The vanilla policy is stateless: every replica shares it.
        policy = VanillaTokenPolicy()
        metrics = _generative_fleet(experiment, obs)(0.0).run(
            workload, lambda ordinal: policy)
    else:
        metrics = _vanilla_cluster_impl(experiment.spec, workload,
                                        _classification_fleet(experiment, obs),
                                        slo_ms=experiment.slo_ms,
                                        seed=experiment.seed)
    return _result(experiment, "vanilla", metrics.summary(), raw=metrics,
                   details=_fleet_details(experiment, metrics), trace=obs)


@register_system(
    "apparate", kinds=_BOTH_KINDS,
    description="Apparate: adaptive early exits managed at runtime (the system)")
def _apparate_system(experiment, **kw) -> RunResult:
    ee, cluster = experiment.ee, experiment.cluster
    obs = _recorder_for(experiment)
    workload = experiment.workload_obj()
    if experiment.is_generative:
        outcome = _generative_apparate_cluster_impl(
            experiment.spec, workload, _generative_fleet(experiment, obs, **kw),
            fleet_mode=cluster.fleet_mode,
            accuracy_constraint=ee.accuracy_constraint, seed=experiment.seed)
        summary = outcome.summary()
        extras = {"ramp_depth": summary.get("ramp_depth", 0.0),
                  "threshold": summary.get("threshold", 0.0)}
    else:
        outcome = _apparate_cluster_impl(
            experiment.spec, workload, _classification_fleet(experiment, obs),
            fleet_mode=cluster.fleet_mode, sync_period=cluster.sync_period,
            slo_ms=experiment.slo_ms,
            accuracy_constraint=ee.accuracy_constraint,
            ramp_budget=ee.ramp_budget, ramp_style=ee.ramp_style,
            seed=experiment.seed,
            ramp_adjustment_enabled=ee.ramp_adjustment_enabled,
            initial_ramp_ids=ee.initial_ramp_ids, **kw)
        summary = outcome.summary()
        extras = {"final_config": outcome.fleet.primary().config.describe()}
    details = _fleet_details(experiment, outcome.metrics)
    details["fleet_mode"] = cluster.fleet_mode
    details.update(extras)
    return _result(experiment, "apparate", summary, raw=outcome,
                   details=details, trace=obs)


# ---------------------------------------------------------------------------
# Paper baselines.
# ---------------------------------------------------------------------------

@register_system(
    "static_ee", kinds=(KIND_CLASSIFICATION,),
    description="BranchyNet/DeeBERT-style static early exits, one-time tuning",
    aliases=("static",))
def _static_ee_system(experiment, variant=StaticEEVariant.SHARED,
                      **kw) -> RunResult:
    obs = _recorder_for(experiment)
    variant = StaticEEVariant(variant)
    outcome = _static_ee_impl(experiment.spec, experiment.workload_obj(),
                              _classification_fleet(experiment, obs),
                              variant=variant,
                              ramp_style=experiment.ee.ramp_style,
                              slo_ms=experiment.slo_ms,
                              accuracy_constraint=experiment.ee.accuracy_constraint,
                              seed=experiment.seed, **kw)
    details = _fleet_details(experiment, outcome.metrics)
    details.update({"variant": variant.value,
                    "thresholds": list(outcome.thresholds),
                    "ramp_depths": list(outcome.ramp_depths)})
    return _result(experiment, "static_ee", outcome.summary(), raw=outcome,
                   details=details, trace=obs)


@register_system(
    "two_layer", kinds=(KIND_CLASSIFICATION,),
    description="two-layer cascade (Tabi/FilterForward): compressed model + escalation")
def _two_layer_system(experiment, **kw) -> RunResult:
    obs = _recorder_for(experiment)
    outcome = _two_layer_impl(experiment.spec, experiment.workload_obj(),
                              _classification_fleet(experiment, obs),
                              slo_ms=experiment.slo_ms,
                              accuracy_constraint=experiment.ee.accuracy_constraint,
                              seed=experiment.seed, **kw)
    return _result(experiment, "two_layer", outcome.summary(), raw=outcome,
                   trace=obs)


@register_system(
    "free", kinds=(KIND_GENERATIVE,),
    description="FREE (Bae et al.): one fixed generative ramp, no runtime adaptation")
def _free_system(experiment, **kw) -> RunResult:
    obs = _recorder_for(experiment)
    metrics = _free_generative_cluster_impl(
        experiment.spec, experiment.workload_obj(),
        _generative_fleet(experiment, obs),
        accuracy_constraint=experiment.ee.accuracy_constraint,
        seed=experiment.seed, **kw)
    return _result(experiment, "free", metrics.summary(), raw=metrics,
                   details=_fleet_details(experiment, metrics), trace=obs)


@register_system(
    "optimal", kinds=_BOTH_KINDS,
    description="optimal oracle: every input exits at its earliest correct ramp",
    aliases=("oracle",))
def _optimal_system(experiment) -> RunResult:
    obs = _recorder_for(experiment)
    workload = experiment.workload_obj()
    if experiment.is_generative:
        metrics = _optimal_generative_cluster_impl(
            experiment.spec, workload, _generative_fleet(experiment, obs),
            seed=experiment.seed)
        return _result(experiment, "optimal", metrics.summary(), raw=metrics,
                       details=_fleet_details(experiment, metrics), trace=obs)
    # Classification spans record the replayed vanilla timeline (the oracle
    # discounts its latencies analytically) — see _optimal_classification_impl.
    latencies = _optimal_classification_impl(
        experiment.spec, workload, _classification_fleet(experiment, obs),
        slo_ms=experiment.slo_ms, seed=experiment.seed)
    return _result(experiment, "optimal", _latency_summary(latencies),
                   raw=latencies, trace=obs)


def _latency_summary(latencies: np.ndarray) -> Dict[str, float]:
    """Shared-schema summary for the oracle's bare latency array."""
    arr = np.asarray(latencies, dtype=float)
    if arr.size == 0:
        return {"p25_ms": 0.0, "p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0,
                "mean_ms": 0.0, "accuracy": 1.0, "num_served": 0.0}
    return {
        "p25_ms": float(np.percentile(arr, 25)),
        "p50_ms": float(np.percentile(arr, 50)),
        "p95_ms": float(np.percentile(arr, 95)),
        "p99_ms": float(np.percentile(arr, 99)),
        "mean_ms": float(arr.mean()),
        # The oracle exits where the prediction already matches the original
        # model, so it is lossless by construction.
        "accuracy": 1.0,
        "num_served": float(arr.size),
    }
