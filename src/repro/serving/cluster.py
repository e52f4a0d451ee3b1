"""Fleet control plane: dynamic replica membership behind a pluggable balancer.

A :class:`ClusterPlatform` dispatches one arrival stream across a **dynamic
fleet** of replicas.  The member set is no longer a frozen constructor list:
it is one :class:`~repro.serving.pool.PoolState` of
:class:`~repro.serving.fleet.ReplicaEntry` members with an add / drain /
retire lifecycle, mutated mid-run by a pluggable
:class:`~repro.serving.autoscaler.Autoscaler` (``none`` / ``reactive`` /
``predictive``) evaluated on the global clock.  A member is one object — its
queue, accelerator clock, metrics, recorder and executor — and its
:class:`~repro.serving.platform.ServingPlatform` is only the batching policy
and latency model the phases consult, so the platform objects the cluster is
built from carry no run state.  Replicas may be heterogeneous:
each carries a :class:`~repro.serving.fleet.ReplicaProfile` (speed multiplier
+ cost weight), and the run loop scales executor results by the replica's
speed so an int8 replica genuinely finishes batches faster than its fp32
neighbour.

Every iteration of the event loop:

1. brings provisioned replicas online (scale-out completes after the
   autoscaler's ``provision_delay_ms``);
2. admits and dispatches every arrival due by ``now`` across the **active**
   members (draining replicas receive no new work);
3. asks the autoscaler for the desired fleet size, clamped to
   ``[min_replicas, max_replicas]`` — scale-in drains the newest replicas;
4. salvages doomed requests: a queued request that can no longer meet its
   deadline where it sits is re-routed **once** to the least-loaded replica
   that still can (counted as ``rerouted`` in
   :class:`~repro.serving.metrics.ClusterMetrics`);
5. steps each serving member through its platform's ``expire`` /
   ``select`` / ``dispatch`` / ``complete`` phases and retires drained
   replicas that have gone idle;
6. advances the shared clock to the earliest future event (arrival, batch
   completion, policy wake-up, or replica boot).

Balancing policies
------------------
``round_robin``
    Cycle through replicas in dispatch order.  Zero state inspection; fair in
    count but blind to queue skew and replica speed.
``weighted_round_robin``
    Smooth weighted cycling: replicas receive dispatches proportional to
    their profile speed (a 2× replica gets 2× the requests).
``join_shortest_queue``
    Route to the replica with the fewest jobs in system — queued plus the
    in-flight batch (classic JSQ).
``weighted_join_shortest_queue``
    JSQ with jobs normalized by replica speed — four jobs on a 2× replica
    weigh like two on the base hardware.
``least_work_left``
    Route to the replica with the least *expected* work: accelerator backlog
    plus queued requests translated into milliseconds via the replica's
    (speed-scaled) latency profile.  Sees through queues of unequal cost, so
    it prices heterogeneous replicas correctly out of the box.
``power_of_two_choices``
    Sample two replicas uniformly at random and pick the shorter queue —
    near-JSQ balance with O(1) state inspection (Mitzenmacher '01).
``kv_aware_least_work`` (generative platforms only)
    Least-work plus the expected recompute cost of the KV-cache thrash the
    sequence would cause on each replica — long sequences steer away from
    replicas whose cache they are about to overflow.  Identical to
    ``least_work_left`` when the cache model is disabled.
``prefix_affinity`` (generative platforms only)
    Route to the replica whose KV cache holds the longest shared prefix of
    the sequence (skipping that much re-prefill), falling back to least-work
    among replicas with equal residency.

The costing interface
---------------------
Every policy costs replicas through the uniform **resource view** of
:class:`~repro.serving.fleet.Replica`, which every pool member implements —
load signals (``jobs_in_system``, ``work_left_ms``), identity (``weight``,
``profile``) and KV-cache signals (``kv_prefix_hit_tokens``,
``kv_overflow_ms``, which read 0 on platforms without a cache model).
Single-signal policies derive from :class:`CostBalancer` and implement
``cost(view, item, now_ms)``; the round-robin family keeps its custom
rotation state but still touches replicas only through the view.
"""

from __future__ import annotations

import abc
import math
from typing import Callable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.faults import FaultSchedule, FaultSpec, coerce_faults
from repro.obs.recorder import NULL_RECORDER
from repro.serving.autoscaler import Autoscaler, build_autoscaler
from repro.serving.fleet import (DRAINING, Replica, ReplicaEntry,
                                 ReplicaProfile, coerce_profiles,
                                 replica_band)
from repro.serving.metrics import ClusterMetrics
from repro.serving.platform import (BatchExecutorFn, BatchResult,
                                    ServingPlatform)
from repro.serving.pool import FIRST_RUNNER_EVENT, WAKE, FleetRun, PoolState
from repro.serving.request import Request
from repro.tenancy import (TenancyConfig, build_request_runtime, coerce_tenancy,
                           request_rollups)

__all__ = [
    "ReplicaProfile",
    "LoadBalancer",
    "CostBalancer",
    "RoundRobinBalancer",
    "WeightedRoundRobinBalancer",
    "JoinShortestQueueBalancer",
    "WeightedJoinShortestQueueBalancer",
    "LeastWorkLeftBalancer",
    "PowerOfTwoChoicesBalancer",
    "KVAwareLeastWorkBalancer",
    "PrefixAffinityBalancer",
    "build_balancer",
    "canonical_balancer_name",
    "balancer_names",
    "BALANCER_NAMES",
    "ClusterPlatform",
    "gate_exits",
]


class LoadBalancer(abc.ABC):
    """Dispatch policy: pick the replica that receives an arriving request.

    ``replicas`` holds the currently ACTIVE members only, so a balancer
    never sees draining or retired replicas.  Membership may change
    between calls (autoscaling); stateful balancers must key any per-replica
    state by ``handle.replica_id``, which is stable for a replica's lifetime.
    """

    name: str = "abstract"

    @abc.abstractmethod
    def choose(self, request: Request, replicas: Sequence[Replica],
               now_ms: float) -> int:
        """Return the index of the replica that should serve ``request``."""

    def reset(self) -> None:
        """Clear any dispatch state before a fresh run (default: nothing)."""


class CostBalancer(LoadBalancer):
    """A balancer that routes to the replica with the minimum cost.

    Subclasses implement :meth:`cost` against the resource view (a
    :class:`~repro.serving.fleet.Replica`); ``choose`` is the shared
    argmin with the handle index as the deterministic tie-break, which is
    exactly the historical JSQ/least-work semantics.  ``cost`` may return a
    float or a tuple (compared lexicographically).
    """

    @abc.abstractmethod
    def cost(self, view: Replica, item, now_ms: float):
        """Cost of placing ``item`` on ``view`` now (lower is better)."""

    def choose(self, request, replicas: Sequence[Replica],
               now_ms: float) -> int:
        return min(range(len(replicas)),
                   key=lambda i: (self.cost(replicas[i], request, now_ms), i))


class RoundRobinBalancer(LoadBalancer):
    """Cycle through replicas in dispatch order."""

    name = "round_robin"

    def __init__(self) -> None:
        self._next = 0

    def choose(self, request: Request, replicas: Sequence[Replica],
               now_ms: float) -> int:
        index = self._next % len(replicas)
        self._next += 1
        return index

    def reset(self) -> None:
        self._next = 0


class WeightedRoundRobinBalancer(LoadBalancer):
    """Smooth weighted round robin: dispatch shares proportional to speed.

    Nginx-style smooth WRR: every replica accumulates its weight per round,
    the largest accumulator wins and is decremented by the total weight.
    Produces the evenly interleaved sequence (no burst of consecutive picks
    to the heavy replica) and tolerates membership change because the
    accumulators are keyed by stable replica ids.
    """

    name = "weighted_round_robin"

    def __init__(self) -> None:
        self._current: dict = {}

    def choose(self, request: Request, replicas: Sequence[Replica],
               now_ms: float) -> int:
        total = 0.0
        for handle in replicas:
            weight = handle.weight
            total += weight
            self._current[handle.replica_id] = \
                self._current.get(handle.replica_id, 0.0) + weight
        best = max(range(len(replicas)),
                   key=lambda i: (self._current[replicas[i].replica_id], -i))
        self._current[replicas[best].replica_id] -= total
        return best

    def reset(self) -> None:
        self._current.clear()


class JoinShortestQueueBalancer(CostBalancer):
    """Route to the replica with the fewest jobs in system (ties: lowest index)."""

    name = "join_shortest_queue"

    def cost(self, view: Replica, item, now_ms: float):
        return view.jobs_in_system(now_ms)


class WeightedJoinShortestQueueBalancer(CostBalancer):
    """JSQ with queue lengths normalized by replica speed."""

    name = "weighted_join_shortest_queue"

    def cost(self, view: Replica, item, now_ms: float):
        return view.jobs_in_system(now_ms) / view.weight


class LeastWorkLeftBalancer(CostBalancer):
    """Route to the replica with the least expected work (profile-costed)."""

    name = "least_work_left"

    def cost(self, view: Replica, item, now_ms: float):
        return view.work_left_ms(now_ms)


class KVAwareLeastWorkBalancer(CostBalancer):
    """Least-work plus the KV-cache thrash the item would cause.

    The penalty is the view's expected recompute cost of admitting the
    item's full footprint (``kv_overflow_ms``): tokens the cache would
    overflow by, priced at the replica's re-prefill rate.  A long sequence
    therefore avoids replicas it is about to thrash even when their decode
    queues are short.  With the cache model disabled the penalty reads 0 and
    the policy is exactly ``least_work_left``.
    """

    name = "kv_aware_least_work"

    def cost(self, view: Replica, item, now_ms: float):
        return view.work_left_ms(now_ms) + view.kv_overflow_ms(item, now_ms)


class PrefixAffinityBalancer(CostBalancer):
    """Route by net placement cost: queued work minus the prefill a resident
    shared prefix would save, plus the recompute the admission would thrash.

    All three terms are milliseconds from the resource view, so affinity and
    load trade off in one currency: a replica holding the item's group prefix
    is discounted by exactly the prefill it skips (``kv_prefix_hit_ms``), but
    once its queue grows past that saving the policy spills the group to the
    next-cheapest replica instead of herding the whole group onto one
    hotspot.  With the cache model off every KV term reads 0 and the policy
    is exactly ``least_work_left``.
    """

    name = "prefix_affinity"

    def cost(self, view: Replica, item, now_ms: float):
        return (view.work_left_ms(now_ms) - view.kv_prefix_hit_ms(item)
                + view.kv_overflow_ms(item, now_ms))


class PowerOfTwoChoicesBalancer(LoadBalancer):
    """Sample two replicas at random, join the shorter queue."""

    name = "power_of_two_choices"

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)

    def choose(self, request: Request, replicas: Sequence[Replica],
               now_ms: float) -> int:
        n = len(replicas)
        if n == 1:
            return 0
        first, second = self._rng.choice(n, size=2, replace=False)
        candidates = sorted((int(first), int(second)))
        return min(candidates, key=lambda i: (replicas[i].jobs_in_system(now_ms), i))

    def reset(self) -> None:
        # Restore the original seed's RNG stream so repeated run() calls on
        # one cluster object make identical choices (regression-tested).
        self._rng = np.random.default_rng(self.seed)


#: platform kinds a balancer may serve.  The load-signal policies work on
#: both; the KV-cache policies read signals only generative replicas expose.
_BOTH = ("classification", "generative")
_GENERATIVE = ("generative",)

#: canonical name -> (factory, platform kinds).
_BALANCERS = {
    "round_robin": (lambda seed: RoundRobinBalancer(), _BOTH),
    "weighted_round_robin": (lambda seed: WeightedRoundRobinBalancer(), _BOTH),
    "join_shortest_queue": (lambda seed: JoinShortestQueueBalancer(), _BOTH),
    "weighted_join_shortest_queue":
        (lambda seed: WeightedJoinShortestQueueBalancer(), _BOTH),
    "least_work_left": (lambda seed: LeastWorkLeftBalancer(), _BOTH),
    "power_of_two_choices":
        (lambda seed: PowerOfTwoChoicesBalancer(seed=seed), _BOTH),
    "kv_aware_least_work":
        (lambda seed: KVAwareLeastWorkBalancer(), _GENERATIVE),
    "prefix_affinity": (lambda seed: PrefixAffinityBalancer(), _GENERATIVE),
}

_ALIASES = {
    "rr": "round_robin",
    "wrr": "weighted_round_robin",
    "jsq": "join_shortest_queue",
    "wjsq": "weighted_join_shortest_queue",
    "lwl": "least_work_left",
    "p2c": "power_of_two_choices",
    "power_of_two": "power_of_two_choices",
    "kv_least_work": "kv_aware_least_work",
    "kvlw": "kv_aware_least_work",
    "affinity": "prefix_affinity",
}

BALANCER_NAMES = tuple(sorted(_BALANCERS))


def balancer_names(kind: Optional[str] = None) -> Tuple[str, ...]:
    """Canonical balancer names available to ``kind`` (sorted).

    ``kind`` is ``"classification"``, ``"generative"``, or ``None`` for the
    union across platforms.
    """
    if kind is None:
        return BALANCER_NAMES
    if kind not in _BOTH:
        raise ValueError(f"unknown platform kind {kind!r}; choose from {_BOTH}")
    return tuple(sorted(name for name, (_, kinds) in _BALANCERS.items()
                        if kind in kinds))


def canonical_balancer_name(name: Union[str, LoadBalancer],
                            kind: Optional[str] = None) -> str:
    """Resolve a balancer name or alias to its canonical registry key.

    Raises :class:`ValueError` enumerating the valid names for ``kind`` (or
    for every platform when ``kind`` is ``None``) when the name is unknown
    or not available on that platform kind — the single validation used by
    ``build_balancer``, the cluster spec and the CLI, so every layer reports
    the same error.
    """
    if isinstance(name, LoadBalancer):
        return name.name
    key = str(name).lower().replace("-", "_")
    key = _ALIASES.get(key, key)
    if key not in _BALANCERS:
        raise ValueError(f"unknown balancer {name!r}; "
                         f"choose from {balancer_names(kind)}")
    if kind is not None and kind not in _BALANCERS[key][1]:
        raise ValueError(f"balancer {key!r} is not available on {kind} "
                         f"platforms; choose from {balancer_names(kind)}")
    return key


def build_balancer(name: Union[str, LoadBalancer], seed: int = 0,
                   kind: Optional[str] = None) -> LoadBalancer:
    """Construct a balancer by name (see :func:`balancer_names`; short
    aliases accepted).  ``kind`` restricts the lookup to the balancers valid
    for that platform kind and shapes the error message accordingly.
    Instances pass through unchanged."""
    if isinstance(name, LoadBalancer):
        return name
    return _BALANCERS[canonical_balancer_name(name, kind)][0](seed)


def _drain_times(entry: ReplicaEntry, ahead: int) -> List[float]:
    """The member's completion-offset table, extended to cover ``ahead``.

    ``table[j]`` is how long ``j + 1`` queued jobs take once the accelerator
    is free: ``ceil((j + 1) / full)`` batches priced at the predicted time
    of ``min(j + 1, full)`` requests, or ``(j + 1) / speed`` units without a
    latency model (the ``work_left_ms`` fallback).
    ``predicted_batch_time_ms`` is a pure function of the batch size, so
    the table is built once per member and run, as far as a queue reaches.
    """
    table = entry._drain_times
    if len(table) <= ahead:
        platform = entry.platform
        full = platform.max_batch_size
        for jobs in range(len(table) + 1, ahead + 2):
            per_batch = platform.predicted_batch_time_ms(min(jobs, full))
            if per_batch is None:
                table.append(jobs / entry.profile.speed)
            else:
                table.append(per_batch * math.ceil(jobs / full))
    return table


def _one_more_eta(entry: ReplicaEntry, now_ms: float) -> float:
    """When a job joining the back of ``entry``'s queue would complete."""
    ahead = len(entry.queue)
    table = entry._drain_times
    if ahead >= len(table):
        table = _drain_times(entry, ahead)
    backlog = entry.busy_until_ms - now_ms
    return (now_ms + (backlog if backlog > 0.0 else 0.0)) + table[ahead]


def _scale_result(result: BatchResult, speed: float) -> BatchResult:
    """Apply a replica's speed multiplier to an executor's batch outcome."""
    if speed == 1.0:
        return result
    return BatchResult(
        gpu_time_ms=result.gpu_time_ms / speed,
        result_offsets_ms=[offset / speed for offset in result.result_offsets_ms],
        exited=list(result.exited),
        exit_depths=list(result.exit_depths),
        correct=list(result.correct),
    )


class ClusterPlatform:
    """A dynamic fleet of replica platforms behind one load balancer.

    The run steps every replica's batching phases (including the
    forced-progress livelock guard) on a shared clock over mutable
    membership: the autoscaler may add replicas (online after its
    provisioning delay) or drain them (they finish in-flight work, then
    retire) at any step.  A one-replica cluster is the single-model serving
    setup of the paper.

    Parameters
    ----------
    replicas:
        The initial platforms (batching policy and latency model of each
        initial member).  ``run()`` always starts from this fleet with fresh
        members, so repeated runs on one cluster object are reproducible.
    balancer:
        Dispatch policy name/instance (see :data:`BALANCER_NAMES`).
    seed:
        Seed for stochastic balancers (power-of-two-choices).
    profiles:
        Optional per-initial-replica :class:`ReplicaProfile` (or speed
        floats / ``"speed[:cost]"`` strings) for heterogeneous fleets.
    autoscaler:
        Policy name/instance (see :mod:`repro.serving.autoscaler`); the
        default ``none`` keeps the fleet fixed.
    min_replicas / max_replicas:
        Fleet-size band the autoscaler is clamped to.  Defaults freeze the
        fleet at its initial size.
    replica_factory:
        Zero-argument callable producing a fresh platform for scale-out;
        required when ``max_replicas`` exceeds the initial fleet.
        Scaled-out replicas run at base speed.
    tenancy:
        Optional :class:`~repro.tenancy.TenancyConfig` (or CLI string /
        TenantSpec sequence): requests are tagged with tenant classes and
        dispatch ranks, batch queues serve in rank order, and the run's
        metrics carry per-tenant rollups.  ``None`` (the default) is the
        single-tenant fast path.
    faults:
        Optional :class:`~repro.faults.FaultSchedule` (or CLI string /
        FaultSpec sequence): each fault crashes one replica at its
        ``crash_ms`` (queued work requeues through the balancer, in-flight
        work is salvaged) and boots a replacement ``down_ms`` later.  The
        single-pool cluster ignores the faults' ``pool`` tag.
    """

    def __init__(self, replicas: Sequence[ServingPlatform],
                 balancer: Union[str, LoadBalancer] = "round_robin",
                 seed: int = 0,
                 profiles: Optional[Sequence[Union[ReplicaProfile, float, str]]] = None,
                 autoscaler: Union[str, Autoscaler, None] = "none",
                 min_replicas: Optional[int] = None,
                 max_replicas: Optional[int] = None,
                 replica_factory: Optional[Callable[[], ServingPlatform]] = None,
                 tenancy: Union[None, str, TenancyConfig] = None,
                 faults: Union[None, str, FaultSpec, FaultSchedule] = None,
                 obs=None) -> None:
        self.platforms = list(replicas)
        if not self.platforms:
            raise ValueError("a cluster needs at least one replica")
        self.seed = int(seed)
        #: Observability recorder shared by every replica (no-op when unset).
        self.obs = obs if obs is not None else NULL_RECORDER
        self.balancer = build_balancer(balancer, seed=seed,
                                       kind="classification")
        self.autoscaler = build_autoscaler(autoscaler)
        self.tenancy = coerce_tenancy(tenancy)
        self.faults = coerce_faults(faults)

        n = len(self.platforms)
        self.profiles = coerce_profiles(profiles, n)
        self.min_replicas, self.max_replicas = replica_band(n, min_replicas,
                                                            max_replicas)
        self.replica_factory = replica_factory
        if self.max_replicas > n and replica_factory is None:
            raise ValueError(f"max_replicas={self.max_replicas} exceeds the "
                             f"initial fleet of {n}; scale-out needs a "
                             "replica_factory")

    @property
    def num_replicas(self) -> int:
        """Size of the initial fleet (the fleet ``run()`` starts from)."""
        return len(self.platforms)

    def _scale_out(self, ordinal: int) -> Tuple[ServingPlatform, ReplicaProfile]:
        """The platform and profile a scale-out boot brings online."""
        return self.replica_factory(), ReplicaProfile()

    # ------------------------------------------------------------- salvage
    def _salvage_doomed(self, serving: Sequence[ReplicaEntry],
                        active: Sequence[ReplicaEntry], now_ms: float,
                        rerouted_ids: Set[int]) -> int:
        """Re-route doomed queued requests once to a replica that can serve them.

        A request is *doomed* where it sits when the work queued ahead of it
        (plus the in-flight batch) already overruns its deadline.  Instead of
        letting the replica bury it at expiry, the dispatcher moves it (at
        most once) to the least-loaded other active replica — but only when
        that replica's expected completion still meets the deadline, so
        reroutes convert drops into goodput rather than shuffling lost causes.

        A request with ``j`` requests kept ahead of it (rerouted and expired
        ones included) completes at ``now + backlog + table[j]``, with the
        member's :func:`_drain_times` table; targets are costed the same way
        with one more job than they hold.  The doom check is that inline
        sum, and the targets' completion times are computed only once a
        doomed request turns up, then refreshed for the target of each move.
        ``serving`` is every member that may hold a queue (active and
        draining, in fleet order) and ``active`` the balancer-visible ones
        in ``index`` order; ties between targets go to the lower index.
        """
        moved = 0
        # Per active member: when one more job would complete there.
        etas: Optional[List[float]] = None
        for entry in serving:
            queue = entry.queue
            if not queue or not entry.platform.drop_expired:
                continue
            backlog = entry.busy_until_ms - now_ms
            start = now_ms + (backlog if backlog > 0.0 else 0.0)
            table = entry._drain_times
            if len(queue) > len(table):
                table = _drain_times(entry, len(queue) - 1)
            keep: List[Request] = []
            moved_here = 0
            for request in queue:
                deadline = request.deadline_ms()
                if (request.request_id in rerouted_ids
                        or now_ms > deadline
                        or start + table[len(keep)] <= deadline + 1e-9):
                    keep.append(request)
                    continue
                if etas is None:
                    etas = [_one_more_eta(h, now_ms) for h in active]
                target, best = None, 0.0
                for position, handle in enumerate(active):
                    eta = etas[position]
                    if handle is not entry and (target is None or eta < best):
                        target, best, chosen = handle, eta, position
                if target is not None and best <= deadline + 1e-9:
                    target.platform.admit(target, request)
                    if self.obs.enabled:
                        self.obs.annotate(request.request_id, rerouted=True)
                    rerouted_ids.add(request.request_id)
                    moved_here += 1
                    etas[chosen] = _one_more_eta(target, now_ms)
                else:
                    keep.append(request)
            if moved_here:
                entry.queue = keep
                moved += moved_here
                etas = None   # this member's queue shrank
        return moved

    # --------------------------------------------------------------- main loop
    def run(self, requests: Sequence[Request],
            executor_factory: Callable[[int], BatchExecutorFn]) -> ClusterMetrics:
        """Serve all requests across the (dynamic) fleet.

        ``executor_factory(ordinal)`` supplies the executor of every replica
        the run brings up: the initial fleet, scale-out boots and crash
        recoveries, with ordinals continuing past the initial fleet (a
        stateless executor is shared as ``lambda ordinal: executor``).
        Returns per-replica + fleet metrics covering every replica that
        served, including ones retired before the run ended.
        """
        pending = sorted(requests, key=lambda r: (r.arrival_ms, r.request_id))
        default_slo_ms = pending[0].slo_ms if pending else 0.0
        pending, tenant_runtime = build_request_runtime(pending, self.tenancy,
                                                        self.seed)
        start = pending[0].arrival_ms if pending else 0.0
        runner = _ClusterRun(self, pending, executor_factory, start,
                             tenant_runtime=tenant_runtime)
        pool = runner.pool
        if not pending:
            return self._collect(pool, start, start, rerouted=0)

        runner.drive()

        for entry in pool.entries:
            entry.finalize_makespan()

        last_event = max((e.last_event_ms for e in pool.entries
                          if np.isfinite(e.last_event_ms)), default=start)
        metrics = self._collect(pool, start, last_event, runner.rerouted)
        runner.stamp(metrics)
        if tenant_runtime is not None:
            metrics.tenant_rollups = request_rollups(
                metrics.aggregate().responses, tenant_runtime,
                default_slo_ms, metrics.makespan_ms)
        return metrics

    def _collect(self, pool: PoolState, start_ms: float, end_ms: float,
                 rerouted: int) -> ClusterMetrics:
        books = pool.books(end_ms)
        served_anything = any(entry.metrics.num_responses()
                              for entry in pool.entries)
        makespan = max(end_ms - start_ms, 1e-9) if served_anything else 0.0
        return ClusterMetrics(
            replicas=[entry.metrics for entry in pool.entries],
            makespan_ms=makespan, rerouted=int(rerouted), **books)


#: Event kind of a batching-policy timer (after the pool kinds); batch
#: completions are plain pool wake-ups.
_TIMER = FIRST_RUNNER_EVENT


def gate_exits(batch: Sequence[Request], result: BatchResult,
               gated_ids: Set[int]) -> BatchResult:
    """Rewrite a batch result so gated requests ran the full model.

    Exit-policy override for tenants with ``allow_exits=False``: their
    requests release at the batch's full duration with no early exit and
    the original model's answer (``correct=True``).  The batch's
    accelerator time is left as computed — the replica genuinely ran the
    ramps for its other requests.  Returns ``result`` unchanged when no
    gated request exited.
    """
    hit = [i for i, request in enumerate(batch)
           if request.request_id in gated_ids and result.exited[i]]
    if not hit:
        return result
    offsets = list(result.result_offsets_ms)
    exited = list(result.exited)
    depths = list(result.exit_depths)
    correct = list(result.correct)
    full = max(result.gpu_time_ms, max(offsets) if offsets else 0.0)
    for i in hit:
        offsets[i] = full
        exited[i] = False
        depths[i] = None
        correct[i] = True
    return BatchResult(gpu_time_ms=result.gpu_time_ms, result_offsets_ms=offsets,
                       exited=exited, exit_depths=depths, correct=correct)


class _ClusterRun(FleetRun):
    """Kernel-scheduled execution of one :meth:`ClusterPlatform.run`.

    One pool of :class:`~repro.serving.fleet.ReplicaEntry` members, each
    built in one call by ``spawn`` with the run's recorder.  The phase order
    inside :meth:`step` is
    exactly the seed rescan loop's (boots → admit → autoscale → salvage →
    expire/select/serve → retire); the difference is purely *which replicas*
    the serving phase touches — the dirty set (queue changed, batch
    completed, policy timer fired) instead of the whole fleet — and how the
    clock advances (event heap instead of a collect-and-min over every
    replica's wake time).
    """

    def __init__(self, cluster: ClusterPlatform, pending: List[Request],
                 factory: Callable[[int], BatchExecutorFn], start_ms: float,
                 tenant_runtime=None) -> None:
        super().__init__(pending, start_ms, cluster.obs, tenant_runtime)
        self.cluster = cluster
        #: ``expire``/salvage are global no-ops unless some member drops on
        #: SLO expiry; tracked as members join so the common fleet skips
        #: both phases.
        self._drop_expired = False

        def spawn(replica_id: int, platform: ServingPlatform,
                  profile: ReplicaProfile, now_ms: float) -> ReplicaEntry:
            if platform.drop_expired:
                self._drop_expired = True
            return ReplicaEntry(replica_id, platform, factory(replica_id),
                                profile, now_ms, self.obs)

        self.pool = PoolState(self, "serve", cluster.balancer,
                              cluster.autoscaler,
                              (cluster.min_replicas, cluster.max_replicas),
                              spawn, cluster._scale_out,
                              zip(cluster.platforms, cluster.profiles),
                              runtime=tenant_runtime)
        self.pools = (self.pool,)
        self.rerouted = 0
        self.rerouted_ids: Set[int] = set()
        #: tenancy exit gating (queue ordering rides on Request.rank).
        self._gated_ids: Set[int] = (tenant_runtime.no_exit_ids
                                     if tenant_runtime is not None else set())
        self.arm_faults(cluster.faults, lambda fault: self.pool)
        self._exhausted = self.num_items == 0

    def trace_arrival(self, request: Request, entry, pool) -> None:
        # ``platform.admit`` opened the span; only the tenant tag is left.
        runtime = self.tenant_runtime
        if runtime is not None:
            self.obs.annotate(request.request_id,
                              tenant=runtime.tenant_of.get(request.request_id))

    def on_event(self, event) -> None:
        if event.kind == _TIMER:
            entry = event.payload
            entry._wake_event = None
            self.pool.wake(entry)
        else:
            super().on_event(event)

    # ------------------------------------------------------------------- pass
    def step(self, now: float) -> bool:
        cluster = self.cluster
        pool = self.pool
        wake = pool.wake

        # Phase 1: admit + dispatch everything that has arrived by now.
        self.admit_arrivals(pool, now)
        if self.next_arrival >= self.num_items and not self._exhausted:
            # The livelock guard switches from "wait for the next arrival" to
            # "force progress" the moment the trace runs out; re-consult every
            # replica still holding work so it can take that branch now.
            self._exhausted = True
            for entry in pool.serving:
                if entry.queue:
                    wake(entry)

        # Phase 2: autoscaler decision on the global clock.
        pool.scale(now)
        active = pool.active

        # Phase 3: cluster-level drop salvage.  One active replica is enough
        # when draining replicas still hold queues — their doomed requests
        # can move to it.
        if self._drop_expired and active and (
                len(active) > 1
                or any(e.status == DRAINING and e.queue
                       for e in pool.serving)):
            moved = cluster._salvage_doomed(pool.serving, active, now,
                                            self.rerouted_ids)
            if moved:
                self.rerouted += moved
                # Queues changed out from under armed timers and idle
                # replicas; re-consult everything that holds or awaited work.
                for entry in pool.serving:
                    if entry.queue or entry._wake_event is not None:
                        wake(entry)

        # Expiry pre-scan: the seed loop ran ``expire`` on every idle queued
        # replica at every visited timestamp, not only the changed ones.
        if self._drop_expired:
            for entry in pool.serving:
                if entry.queue and entry.idle_at(now):
                    before = len(entry.queue)
                    entry.platform.expire(entry, now)
                    if len(entry.queue) != before:
                        wake(entry)

        next_arrival_ms = (self.arrival_times[self.next_arrival]
                           if self.next_arrival < self.num_items else np.inf)
        events = self.events
        progressed = False

        # Phase 4 per dirty replica: select, serve (when idle).
        for entry in pool.drain_dirty():
            platform = entry.platform
            if not entry.idle_at(now):
                continue  # its completion event is already scheduled
            timer = entry._wake_event
            if not entry.queue:
                if timer is not None:
                    events.cancel(timer)
                    entry._wake_event = None
                continue
            batch, wake_up = platform.select(entry, now)
            if not batch:
                target = min(wake_up, next_arrival_ms)
                if not np.isfinite(target) or target <= now + 1e-9:
                    batch = platform.force_batch(entry)
                else:
                    if timer is not None:
                        if not timer.cancelled and timer.time_ms == wake_up:
                            continue  # already armed for this wake-up
                        events.cancel(timer)
                    entry._wake_event = events.push(wake_up, _TIMER, entry)
                    continue
            if timer is not None:
                events.cancel(timer)
                entry._wake_event = None
            platform.dispatch(entry, batch)
            result = entry.executor(batch, now)
            if self._gated_ids:
                result = gate_exits(batch, result, self._gated_ids)
            result = _scale_result(result, entry.profile.speed)
            platform.complete(entry, batch, result, now)
            if entry.busy_until_ms > now + 1e-9:
                events.push(entry.busy_until_ms, WAKE, (pool, entry))
            else:
                wake(entry)  # instant batch: re-serve this timestamp
            progressed = True

        # Phase 5: drained replicas that have gone idle leave the fleet.
        pool.retire_idle(now)
        return progressed
