"""Serving-platform substrate: queues, batching policies and platforms.

The paper runs Apparate on top of TensorFlow-Serving, Clockwork and
HuggingFace Pipelines without changing any platform decision (queue
management, batching, scheduling).  This subpackage provides event-driven
simulators of those platforms with the same external behaviour:

* :class:`ClockworkPlatform` — work-conserving, SLO-aware max-batch selection;
* :class:`TFServingPlatform` — ``max_batch_size`` / ``batch_timeout`` knobs;
* :class:`ContinuousBatchingEngine` — generative serving with continuous
  batching (new sequences join as others finish);
* :class:`ClusterPlatform` — a dynamic fleet of replicas behind a
  pluggable load balancer (round-robin, JSQ, least-work-left,
  power-of-two-choices, speed-weighted variants), interleaved on one global
  clock via the steppable event-loop phases.  Each member is one
  :class:`~repro.serving.fleet.ReplicaEntry` (queue, accelerator clock,
  metrics, recorder, executor); its platform is only the batching policy
  and latency model.  Membership is live pool state
  (:class:`~repro.serving.pool.PoolState`: add / drain / retire, the
  fleet-size timeline and the books) mutated by a pluggable
  :class:`Autoscaler` (``none`` / ``reactive`` / ``predictive``), and
  replicas may be heterogeneous via :class:`ReplicaProfile` speed/cost
  multipliers.
* :class:`GenerativeClusterPlatform` — the same fleet control plane driving
  continuous-batching decode replicas: token-level early exits at cluster
  scale, with balancers costed by outstanding decode work (queued tokens ×
  depth-scaled step time) and drain/retire letting in-flight sequences
  finish before a replica leaves the fleet.
* :class:`DisaggregatedPlatform` — prefill/decode disaggregation: a
  chunk-batching prefill pool and a continuous-batching decode pool on one
  global clock, connected by a handoff queue with modeled KV-transfer cost,
  each pool with its own balancer and its own autoscaler.

Platforms are agnostic to early exits: they hand formed batches to an executor
callback and collect per-request result-release times, which is exactly the
interface Apparate needs to sit on top.
"""

from repro.serving.request import Request, Response, make_requests
from repro.serving.metrics import ClusterMetrics, ServingMetrics
from repro.serving.platform import (BatchExecutorFn, ServingPlatform,
                                    VanillaExecutor)
from repro.serving.clockwork import ClockworkPlatform
from repro.serving.tfserve import TFServingPlatform
from repro.serving.hf_pipelines import ContinuousBatchingEngine, GenerativeMetrics
from repro.serving.fleet import Replica, ReplicaProfile
from repro.serving.generative_cluster import (GenerativeClusterMetrics,
                                              GenerativeClusterPlatform)
from repro.serving.disagg import DisaggregatedMetrics, DisaggregatedPlatform
from repro.serving.autoscaler import (AUTOSCALER_NAMES, Autoscaler,
                                      FixedAutoscaler, PredictiveAutoscaler,
                                      ReactiveAutoscaler, build_autoscaler)
from repro.serving.cluster import (BALANCER_NAMES, ClusterPlatform,
                                   JoinShortestQueueBalancer,
                                   LeastWorkLeftBalancer, LoadBalancer,
                                   PowerOfTwoChoicesBalancer,
                                   RoundRobinBalancer,
                                   WeightedJoinShortestQueueBalancer,
                                   WeightedRoundRobinBalancer, build_balancer)

__all__ = [
    "Request",
    "Response",
    "make_requests",
    "ServingMetrics",
    "ClusterMetrics",
    "BatchExecutorFn",
    "ServingPlatform",
    "VanillaExecutor",
    "ClockworkPlatform",
    "TFServingPlatform",
    "ContinuousBatchingEngine",
    "GenerativeMetrics",
    "ClusterPlatform",
    "GenerativeClusterPlatform",
    "GenerativeClusterMetrics",
    "DisaggregatedMetrics",
    "DisaggregatedPlatform",
    "ReplicaProfile",
    "Autoscaler",
    "FixedAutoscaler",
    "ReactiveAutoscaler",
    "PredictiveAutoscaler",
    "build_autoscaler",
    "AUTOSCALER_NAMES",
    "LoadBalancer",
    "RoundRobinBalancer",
    "WeightedRoundRobinBalancer",
    "JoinShortestQueueBalancer",
    "WeightedJoinShortestQueueBalancer",
    "LeastWorkLeftBalancer",
    "PowerOfTwoChoicesBalancer",
    "Replica",
    "build_balancer",
    "BALANCER_NAMES",
]
