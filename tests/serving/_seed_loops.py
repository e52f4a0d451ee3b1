"""Reference event loops: the pre-kernel "rescan and advance" schedulers.

These are copies of the three platform ``run()`` bodies as they stood
before the port to :mod:`repro.serving.kernel` — the O(replicas)
per-timestamp rescans ending in the shared "collect wake times, filter
finite, ``now = min(future)``" tail.  They are the test suite's oracle: the
kernel equivalence suite (``tests/serving/test_kernel_equivalence.py``)
runs every scenario through both schedulers and asserts **bit-identical**
metrics, and ``benchmarks/test_simspeed.py`` races the kernel against the
classification loop.

``seed_platform_run`` and ``seed_engine_run`` are the two single-replica
loops (``ServingPlatform.run`` and ``ContinuousBatchingEngine.run`` as they
stood before every run became a fleet); the one-replica equivalence tests
hold a fleet of one to them.  One known divergence is the loop's, not the
kernel's: ``seed_platform_run`` advances ``now += gpu_time_ms``, so above
capacity its clock drifts by rounding and a request whose deadline equals a
later arrival instant can be dropped where the kernel serves it.

They are driven through the public platform objects (and reuse their
batching policies, latency models and scale-out hardware), so configuration
handling cannot drift; only the *scheduling* differs.  The classification
member they step is the oracle's own too: ``ReplicaState``,
``ReplicaHandle`` and ``ReplicaEntry`` are the member trio as it stood
before the state, the resource view and the lifecycle became one live
:class:`~repro.serving.fleet.ReplicaEntry`, and ``seed_admit``,
``seed_expire``, ``seed_select``, ``seed_force_batch``, ``seed_dispatch``
and ``seed_complete`` are the ``ServingPlatform`` phases as they stood then,
as functions over ``(platform, state)`` that take the fleet's recorder
(the platform no longer carries one); ``seed_collect`` is the cluster's
rollup over those members.  The membership they schedule over is the
oracle's own: ``BaseFleet`` and its
``FleetState``, ``GenerativeFleetState`` and ``PrefillFleetState`` are the
fleet classes as they stood before membership, the fleet-size timeline and
book-closing moved into :class:`~repro.serving.pool.PoolState`, plus a
``books(end_ms)`` built from their own ``finalize``, ``replica_seconds`` and
``active_replica_ms``.  The platforms' rollups close these fleets' books
with the old formulas, so the equivalence suite also holds the pool's
membership and books to them.
``seed_cluster_run`` salvages doomed requests with its own copy of the
pre-inline salvage scan, ``seed_salvage_doomed`` (with
``_completion_eta_ms``), so the equivalence suite also holds the kernel's
salvage phase to it.

Do not use these for real runs — they are the slow path by design — and do
not "fix" them to match kernel behaviour: when the two disagree, the kernel
is wrong.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.baselines.free import FreeTokenPolicy, calibrate_free_policy
from repro.baselines.oracle import OracleTokenPolicy
from repro.core.generative import ApparateTokenPolicy, generative_ramp_depths
from repro.exits.ramps import RampStyle, ramp_overhead_fraction
from repro.generative.decoding import (DecodeTimingModel, KVCacheAccountant,
                                       PrefillModel)
from repro.models.prediction import PredictionModel
from repro.obs.recorder import NULL_RECORDER
from repro.serving.cluster import ClusterPlatform, _scale_result
from repro.serving.disagg import PrefillReplicaEntry
from repro.serving.fleet import (ACTIVE, DRAINING, RETIRED, Replica,
                                 ReplicaProfile)
from repro.serving.generative_cluster import (GenerativeClusterMetrics,
                                              GenerativeClusterPlatform,
                                              GenerativeReplicaEntry,
                                              PolicyFactory, decode_rollup)
from repro.serving.hf_pipelines import (ContinuousBatchingEngine,
                                        GenerativeMetrics, TokenExitPolicy,
                                        VanillaTokenPolicy)
from repro.serving.metrics import ClusterMetrics, ServingMetrics
from repro.serving.platform import (BatchExecutorFn, BatchResult,
                                    ServingPlatform)
from repro.serving.request import Request

__all__ = ["seed_cluster_run", "seed_generative_run", "seed_disagg_run",
           "seed_platform_run", "seed_engine_run", "seed_engine_system",
           "seed_salvage_doomed", "BaseFleet", "FleetState",
           "GenerativeFleetState", "PrefillFleetState", "ReplicaState",
           "ReplicaHandle", "ReplicaEntry", "seed_admit", "seed_expire",
           "seed_select", "seed_force_batch", "seed_dispatch",
           "seed_complete", "seed_collect"]


# ------------------------------------------------ frozen classification member

@dataclass
class ReplicaState:
    """Mutable serving state of one replica's queue and accelerator.

    The fleet runner owns one per replica and steps them on a shared clock.
    ``responded_ids`` guards the conservation invariant: every request is
    answered (served or dropped) exactly once.
    """

    queue: List[Request] = field(default_factory=list)
    metrics: ServingMetrics = field(default_factory=ServingMetrics)
    #: time at which the accelerator finishes its current batch.
    busy_until_ms: float = -np.inf
    #: arrival time of the first request routed to this replica.
    first_arrival_ms: Optional[float] = None
    #: time of the last completion or drop on this replica.
    last_event_ms: float = -np.inf
    #: size of the batch currently occupying the accelerator (until busy_until_ms).
    serving_batch_size: int = 0
    responded_ids: Set[int] = field(default_factory=set)
    #: replica ordinal stamped onto recorded spans.
    obs_replica: int = 0

    def queue_length(self) -> int:
        return len(self.queue)

    def idle_at(self, now_ms: float) -> bool:
        return self.busy_until_ms <= now_ms + 1e-9

    def finalize_makespan(self) -> None:
        """Stamp the replica's metrics with its observed wall-clock span."""
        if self.first_arrival_ms is None or not np.isfinite(self.last_event_ms):
            return
        self.metrics.makespan_ms = max(self.last_event_ms - self.first_arrival_ms, 1e-9)


class ReplicaHandle(Replica):
    """The :class:`Replica` view of one classification platform replica.

    Load is read off the platform's :class:`ReplicaState` and capacity off
    its latency model; :class:`ReplicaEntry` extends it into a fleet member.
    """

    def __init__(self, index: int, platform: ServingPlatform, state: ReplicaState,
                 profile: Optional[ReplicaProfile] = None,
                 replica_id: Optional[int] = None) -> None:
        self.index = index
        self.platform = platform
        self.state = state
        self.profile = profile if profile is not None else ReplicaProfile()
        self.replica_id = replica_id if replica_id is not None else index

    @property
    def max_batch_size(self) -> int:
        return self.platform.max_batch_size

    def predicted_batch_time_ms(self, batch_size: int) -> Optional[float]:
        return self.platform.predicted_batch_time_ms(batch_size)

    def queue_length(self) -> int:
        return self.state.queue_length()

    def jobs_in_system(self, now_ms: float) -> int:
        """Waiting requests plus the batch currently on the accelerator.

        This is the classic JSQ load signal: a replica that just drained its
        queue into a 16-request batch is *not* empty — ignoring the in-flight
        batch would funnel every arrival to whichever replica dispatched last.
        """
        in_flight = self.state.serving_batch_size if not self.state.idle_at(now_ms) else 0
        return self.state.queue_length() + in_flight

    def backlog_ms(self, now_ms: float) -> float:
        """Remaining accelerator time of the in-flight batch."""
        return max(0.0, self.state.busy_until_ms - now_ms)

    def work_left_ms(self, now_ms: float) -> float:
        """Expected milliseconds until this replica would drain its queue.

        Queued requests are costed with the platform's latency model (batched
        at ``max_batch_size``); platforms without a profile fall back to one
        unit per request, which degrades gracefully to queue-length ordering.
        A heterogeneous replica's platform carries a speed-scaled latency
        profile (see :meth:`~repro.models.latency.LatencyProfile.scaled`), so
        the same milliseconds compare correctly across mixed-speed fleets.
        """
        work = self.backlog_ms(now_ms)
        queued = self.queue_length()
        if queued == 0:
            return work
        full = self.platform.max_batch_size
        per_batch = self.platform.predicted_batch_time_ms(min(queued, full))
        if per_batch is None:
            return work + float(queued) / self.profile.speed
        return work + per_batch * math.ceil(queued / full)


class ReplicaEntry(ReplicaHandle):
    """One classification fleet member: its own handle plus executor and
    lifecycle."""

    def __init__(self, replica_id: int, platform: ServingPlatform,
                 executor: BatchExecutorFn, profile: ReplicaProfile,
                 state: ReplicaState, added_ms: float = 0.0) -> None:
        super().__init__(0, platform, state, profile, replica_id)
        self.executor = executor
        self.status = ACTIVE
        self.added_ms = added_ms
        self.retired_ms: Optional[float] = None
        #: requests the balancer originally routed here (reroutes not included).
        self.dispatched = 0
        #: kernel-scheduler bookkeeping: dirty flag + armed policy wake-up event.
        self._kdirty = False
        self._wake_event = None
        #: salvage completion-offset table (``cluster._drain_times``).
        self._drain_times: List[float] = []

    @property
    def hardware(self) -> ServingPlatform:
        return self.platform

    @property
    def queue(self) -> list:
        return self.state.queue

    @queue.setter
    def queue(self, value: list) -> None:
        self.state.queue = value

    def enqueue(self, item, runtime=None) -> None:
        # Tenant ranks ride on Request.rank; the platform opens the span.
        # (The oracle routes through no pool, so no recorder is at hand.)
        seed_admit(self.platform, self.state, item, NULL_RECORDER)

    @staticmethod
    def item_id(item) -> int:
        return item.request_id

    def has_work(self, now_ms: float) -> bool:
        # Results are recorded at dispatch, so only queued requests remain.
        return bool(self.state.queue)

    def busy_units(self, now_ms: float) -> int:
        return 0 if self.state.idle_at(now_ms) else 1

    def is_idle(self, now_ms: float) -> bool:
        """No queued work and the accelerator is free (retirement condition)."""
        return not self.state.queue and self.state.idle_at(now_ms)


def seed_admit(platform: ServingPlatform, state: ReplicaState,
               request: Request, obs) -> None:
    """Phase 1: a request arrives (or is routed here) and joins the queue."""
    if state.first_arrival_ms is None or request.arrival_ms < state.first_arrival_ms:
        state.first_arrival_ms = request.arrival_ms
    state.queue.append(request)
    if obs.enabled:
        # Idempotent: a crash-requeued request keeps its original span
        # and is annotated with the reroute by the cluster runner.
        obs.admit(request.request_id, request.arrival_ms, pool="serve",
                  replica=state.obs_replica)


def seed_expire(platform: ServingPlatform, state: ReplicaState, now_ms: float,
                obs) -> None:
    """Phase 2: drop queued requests whose SLO already expired.

    Each dropped request is recorded exactly once (``responded_ids``) and
    removed from the queue, so it can never also be served.
    """
    if not platform.drop_expired:
        return
    still_valid: List[Request] = []
    for request in state.queue:
        if now_ms > request.deadline_ms():
            if request.request_id in state.responded_ids:
                continue
            state.responded_ids.add(request.request_id)
            state.metrics.record_drop(request, now_ms)
            state.last_event_ms = max(state.last_event_ms, now_ms)
            if obs.enabled:
                obs.phase(request.request_id, "queue", request.arrival_ms,
                          now_ms, replica=state.obs_replica)
                obs.close(request.request_id, now_ms, outcome="dropped")
        else:
            still_valid.append(request)
    state.queue = still_valid


def seed_select(platform: ServingPlatform, state: ReplicaState,
                now_ms: float) -> Tuple[List[Request], float]:
    """Phase 3: ask the batching policy what to serve (or when to wake)."""
    return platform.select_batch(state.queue, now_ms)


def seed_force_batch(platform: ServingPlatform,
                     state: ReplicaState) -> List[Request]:
    """Livelock guard: nothing left to wait for, serve what we have."""
    return state.queue[: platform.max_batch_size]


def seed_dispatch(platform: ServingPlatform, state: ReplicaState,
                  batch: Sequence[Request]) -> None:
    """Phase 4: move a selected batch out of the queue onto the accelerator."""
    batch_ids = {r.request_id for r in batch}
    state.queue = [r for r in state.queue if r.request_id not in batch_ids]


def seed_complete(platform: ServingPlatform, state: ReplicaState,
                  batch: Sequence[Request], result: BatchResult,
                  start_ms: float, obs) -> None:
    """Phase 5: record the executor's outcome for one batch."""
    state.metrics.add_batch(result.gpu_time_ms)
    responded = state.responded_ids
    for request in batch:
        request_id = request.request_id
        if request_id in responded:
            raise RuntimeError(
                f"request {request_id} answered twice (conservation violation)")
        responded.add(request_id)
    state.metrics.record_batch(batch, result, start_ms)
    state.busy_until_ms = start_ms + result.gpu_time_ms
    state.serving_batch_size = len(batch)
    state.last_event_ms = max(state.last_event_ms, state.busy_until_ms)
    if obs.enabled:
        # Span timestamps are exactly the values record_batch stored:
        # queue = arrival → batch start, serve = start → release, so the
        # closed span reconciles bit-for-bit with the metrics columns.
        replica = state.obs_replica
        batch_size = len(batch)
        for i, request in enumerate(batch):
            request_id = request.request_id
            release = start_ms + result.result_offsets_ms[i]
            obs.phase(request_id, "queue", request.arrival_ms, start_ms,
                      replica=replica)
            obs.phase(request_id, "serve", start_ms, release,
                      replica=replica)
            obs.close(request_id, release, outcome="served",
                      exited=bool(result.exited[i]),
                      batch_size=batch_size)


def seed_collect(fleet: "FleetState", start_ms: float, end_ms: float,
                 rerouted: int) -> ClusterMetrics:
    """``ClusterPlatform._collect`` over a frozen fleet's members."""
    books = fleet.books(end_ms)
    served_anything = any(entry.state.metrics.num_responses()
                          for entry in fleet.entries)
    makespan = max(end_ms - start_ms, 1e-9) if served_anything else 0.0
    return ClusterMetrics(
        replicas=[entry.state.metrics for entry in fleet.entries],
        makespan_ms=makespan, rerouted=int(rerouted), **books)


class BaseFleet:
    """Shared lifecycle machinery of a dynamic replica membership.

    Entries are :class:`Replica` members; the classification fleet
    (:class:`FleetState`), the generative decode fleet and the prefill fleet
    all build on this so the ACTIVE → DRAINING → RETIRED semantics, the
    fleet-size timeline and the replica-seconds accounting are defined
    exactly once.
    """

    #: Gauge name of the members' summed ``busy_units`` (pool gauge sampler).
    busy_gauge = "busy_replicas"

    def __init__(self) -> None:
        self.entries: List = []
        self._next_id = 0
        #: (time_ms, active_count) — recorded whenever membership changes.
        self.timeline: List[Tuple[float, int]] = []
        #: Observability recorder + the pool tag stamped on fleet gauges.
        #: Installed by the runner; the default no-op keeps runs untouched.
        self.obs = NULL_RECORDER
        self.obs_pool = "serve"

    def next_ordinal(self) -> int:
        """Ordinal the next-added replica will receive (stable, monotonic)."""
        return self._next_id

    # ------------------------------------------------------------------ views
    def active(self) -> List:
        return [e for e in self.entries if e.status == ACTIVE]

    def serving(self) -> List:
        """Members that still hold or may produce work (active + draining)."""
        return [e for e in self.entries if e.status != RETIRED]

    def num_active(self) -> int:
        return sum(1 for e in self.entries if e.status == ACTIVE)

    # -------------------------------------------------------------- lifecycle
    def _register(self, entry, now_ms: float):
        """Record a freshly built entry as a live ACTIVE member."""
        self._next_id += 1
        self.entries.append(entry)
        self._mark(now_ms)
        return entry

    def drain(self, entry, now_ms: float) -> None:
        """Stop dispatching to ``entry``; it finishes queued/in-flight work."""
        if entry.status == ACTIVE:
            entry.status = DRAINING
            self._mark(now_ms)

    def retire_idle(self, now_ms: float) -> None:
        """Retire draining replicas that have finished all of their work."""
        for entry in self.entries:
            if entry.status == DRAINING and entry.is_idle(now_ms):
                entry.status = RETIRED
                entry.retired_ms = now_ms

    def finalize(self, end_ms: float) -> None:
        """Close the books at the end of a run (retire every member)."""
        for entry in self.entries:
            if entry.status != RETIRED:
                entry.status = RETIRED
                entry.retired_ms = end_ms

    # -------------------------------------------------------------- accounting
    def replica_seconds(self, end_ms: float) -> float:
        """Cost-weighted replica-seconds consumed by the whole fleet."""
        return sum(e.profile.cost_weight * e.active_ms(end_ms)
                   for e in self.entries) / 1000.0

    def active_replica_ms(self, end_ms: float) -> float:
        """Unweighted provisioned milliseconds (for utilization rollups)."""
        return sum(e.active_ms(end_ms) for e in self.entries)

    def _mark(self, now_ms: float) -> None:
        count = self.num_active()
        if self.obs.enabled:
            # Event-driven fleet-size series: a point at every membership
            # transition (the gauge superset of the ad-hoc ``timeline``).
            self.obs.gauge(now_ms, "fleet_size", count, pool=self.obs_pool)
        if self.timeline and abs(self.timeline[-1][0] - now_ms) <= 1e-9:
            self.timeline[-1] = (now_ms, count)
            return
        if self.timeline and self.timeline[-1][1] == count:
            return
        self.timeline.append((now_ms, count))

    # ------------------------------------------------ oracle's closing books
    def books(self, end_ms: float) -> Dict[str, object]:
        """``PoolState.books`` from the frozen fleet's own accounting: the
        rollup fields the platforms' collectors read."""
        self.finalize(end_ms)
        return dict(dispatch_counts=[e.dispatched for e in self.entries],
                    fleet_timeline=list(self.timeline),
                    replica_seconds=self.replica_seconds(end_ms),
                    replica_active_ms=self.active_replica_ms(end_ms),
                    replica_uptimes_ms=[e.active_ms(end_ms)
                                        for e in self.entries])


class FleetState(BaseFleet):
    """Live replica membership with an add / drain / retire lifecycle.

    The cluster event loop owns one of these per run.  Balancers only ever see
    the ACTIVE members; DRAINING members keep serving their queues; RETIRED
    members are kept for metrics so rollups span the whole run.
    """

    def add(self, platform: ServingPlatform, executor: BatchExecutorFn,
            profile: ReplicaProfile, now_ms: float) -> ReplicaEntry:
        """Bring a new replica online (dispatchable from the next arrival)."""
        state = ReplicaState()
        # Every add path (initial fleet, autoscale boot, crash recovery)
        # funnels through here, so spans carry the replica's stable id
        # without per-call-site wiring (the phases take the fleet's recorder).
        state.obs_replica = self._next_id
        entry = ReplicaEntry(replica_id=self._next_id, platform=platform,
                             executor=executor, profile=profile, state=state,
                             added_ms=now_ms)
        return self._register(entry, now_ms)


class GenerativeFleetState(BaseFleet):
    """Dynamic decode-replica membership (ACTIVE → DRAINING → RETIRED)."""

    busy_gauge = "busy_slots"

    def add(self, engine: ContinuousBatchingEngine, policy: TokenExitPolicy,
            profile: ReplicaProfile, mean_tokens: float, now_ms: float,
            kv: Optional[KVCacheAccountant] = None) -> GenerativeReplicaEntry:
        entry = GenerativeReplicaEntry(replica_id=self._next_id, engine=engine,
                                       policy=policy, profile=profile,
                                       mean_tokens=mean_tokens, added_ms=now_ms,
                                       kv=kv)
        # Every add path (initial fleet, autoscale boot, crash recovery)
        # funnels here, so new replicas always see the run's recorder.
        entry.obs = self.obs
        entry.obs_pool = self.obs_pool
        return self._register(entry, now_ms)


class PrefillFleetState(BaseFleet):
    """Dynamic prefill-replica membership (ACTIVE → DRAINING → RETIRED)."""

    def add(self, model: PrefillModel, profile: ReplicaProfile,
            prefill_batch: int, mean_prompt_tokens: float,
            now_ms: float) -> PrefillReplicaEntry:
        entry = PrefillReplicaEntry(replica_id=self._next_id, model=model,
                                    profile=profile,
                                    prefill_batch=prefill_batch,
                                    mean_prompt_tokens=mean_prompt_tokens,
                                    added_ms=now_ms)
        return self._register(entry, now_ms)


def seed_platform_run(platform: ServingPlatform, requests: Sequence[Request],
                      executor: BatchExecutorFn) -> ServingMetrics:
    """The single-replica ``ServingPlatform.run`` loop, verbatim."""
    self = platform
    obs = NULL_RECORDER
    state = ReplicaState()
    pending = sorted(requests, key=lambda r: (r.arrival_ms, r.request_id))
    num_requests = len(pending)
    if num_requests == 0:
        return state.metrics

    next_arrival = 0
    now = pending[0].arrival_ms

    while next_arrival < num_requests or state.queue:
        # Admit everything that has arrived by now.
        while next_arrival < num_requests and pending[next_arrival].arrival_ms <= now + 1e-9:
            seed_admit(self, state, pending[next_arrival], obs)
            next_arrival += 1

        if not state.queue:
            now = pending[next_arrival].arrival_ms
            continue

        seed_expire(self, state, now, obs)
        if not state.queue:
            continue

        batch, wake_up = seed_select(self, state, now)
        if not batch:
            # The policy wants to wait for more requests (or a timeout).
            next_event = pending[next_arrival].arrival_ms if next_arrival < num_requests else np.inf
            target = min(wake_up, next_event)
            if not np.isfinite(target) or target <= now + 1e-9:
                # Nothing left to wait for: force progress with what we have.
                batch = seed_force_batch(self, state)
            else:
                now = target
                continue

        seed_dispatch(self, state, batch)
        result = executor(batch, now)
        seed_complete(self, state, batch, result, now, obs)
        now += result.gpu_time_ms

    first_arrival = pending[0].arrival_ms
    state.metrics.makespan_ms = max(now - first_arrival, 1e-9)
    return state.metrics


def seed_engine_run(engine: ContinuousBatchingEngine, workload,
                    policy: TokenExitPolicy,
                    ttft_slo_ms: Optional[float] = None) -> GenerativeMetrics:
    """The single-replica ``ContinuousBatchingEngine.run`` loop, verbatim
    (its span hooks aside); ``ttft_slo_ms`` was the engine's own knob."""
    self = engine
    metrics = GenerativeMetrics()
    queue = sorted(workload.sequences, key=lambda s: (s.arrival_ms, s.sequence_id))
    if not queue:
        return metrics

    slot_free_ms = [queue[0].arrival_ms] * self.max_batch_size
    first_arrival = queue[0].arrival_ms
    last_completion = first_arrival

    for sample in queue:
        slot = int(np.argmin(slot_free_ms))
        slot_start = max(sample.arrival_ms, slot_free_ms[slot])
        start = slot_start
        if self.prefill is not None:
            busy = sum(1 for t in slot_free_ms if t > start + 1e-9)
            start += self.prefill.inslot_prefill_ms(sample.prompt_tokens,
                                                    busy)
        if ttft_slo_ms is not None \
                and start - sample.arrival_ms > ttft_slo_ms:
            metrics.shed_sequence_ids.append(sample.sequence_id)
            continue
        metrics.queueing_delays_ms[sample.sequence_id] = start - sample.arrival_ms
        completion = self.decode_stream(sample, start, policy, metrics)
        slot_free_ms[slot] = completion
        last_completion = max(last_completion, completion)

    metrics.makespan_ms = max(last_completion - first_arrival, 1e-9)
    return metrics


def seed_engine_system(system: str, spec, workload, max_batch_size: int = 8,
                       seed: int = 0):
    """The ``(engine, policy)`` pair the pre-fleet single-replica impl of a
    generative ``system`` served ``workload`` with."""
    prediction = PredictionModel(spec, seed=seed)
    depths = generative_ramp_depths(spec, seed=seed)
    decode_head = ramp_overhead_fraction(spec, RampStyle.DECODE_HEAD)
    if system == "vanilla":
        policy, overhead = VanillaTokenPolicy(), 0.0
    elif system == "apparate":
        policy, overhead = ApparateTokenPolicy(prediction, depths), decode_head
    elif system == "free":
        depth, threshold = calibrate_free_policy(prediction, workload, depths)
        policy = FreeTokenPolicy(prediction=prediction, ramp_depth=depth,
                                 threshold=threshold)
        overhead = decode_head
    else:
        policy, overhead = OracleTokenPolicy(prediction, depths), 0.0
    engine = ContinuousBatchingEngine(
        DecodeTimingModel(spec, ramp_overhead_fraction=overhead),
        max_batch_size=max_batch_size)
    return engine, policy


def _completion_eta_ms(handle: ReplicaHandle, jobs_ahead: int,
                       now_ms: float) -> float:
    """When a request with ``jobs_ahead - 1`` queued jobs in front of it
    (itself included in the count) would finish on ``handle``."""
    full = handle.platform.max_batch_size
    per_batch = handle.platform.predicted_batch_time_ms(min(jobs_ahead, full))
    if per_batch is None:
        # No latency model: fall back to one unit per request (same
        # degradation as work_left_ms), scaled by replica speed.
        return now_ms + handle.backlog_ms(now_ms) \
            + jobs_ahead / handle.profile.speed
    return now_ms + handle.backlog_ms(now_ms) \
        + per_batch * math.ceil(jobs_ahead / full)


def seed_salvage_doomed(cluster: ClusterPlatform, fleet: FleetState,
                        active: List[ReplicaEntry], now_ms: float,
                        rerouted_ids: Set[int]) -> int:
    """``ClusterPlatform._salvage_doomed`` as it stood before the inline
    doom check, verbatim: every visit prices the request with
    ``_completion_eta_ms`` and every doomed request re-costs each target."""
    self = cluster
    moved = 0
    for entry in fleet.serving():
        if not entry.platform.drop_expired or not entry.state.queue:
            continue
        keep: List[Request] = []
        moved_here = 0
        for request in entry.state.queue:
            deadline = request.deadline_ms()
            if (request.request_id in rerouted_ids
                    or now_ms > deadline
                    or _completion_eta_ms(entry, len(keep) + 1, now_ms)
                    <= deadline + 1e-9):
                keep.append(request)
                continue
            candidates = [h for h in active if h is not entry]
            if not candidates:
                keep.append(request)
                continue
            target = min(candidates,
                         key=lambda h: (_completion_eta_ms(
                             h, h.queue_length() + 1, now_ms), h.index))
            if _completion_eta_ms(target, target.queue_length() + 1,
                                  now_ms) <= deadline + 1e-9:
                seed_admit(target.platform, target.state, request, fleet.obs)
                if self.obs.enabled:
                    self.obs.annotate(request.request_id, rerouted=True)
                rerouted_ids.add(request.request_id)
                moved_here += 1
            else:
                keep.append(request)
        if moved_here:
            entry.state.queue = keep
            moved += moved_here
    return moved


def seed_cluster_run(cluster: ClusterPlatform, requests: Sequence[Request],
                     executor_factory: Callable[[int], BatchExecutorFn]
                     ) -> ClusterMetrics:
    """The pre-kernel ``ClusterPlatform.run`` loop, verbatim."""
    self = cluster
    factory = executor_factory
    self.balancer.reset()
    self.autoscaler.reset()
    self.autoscaler.set_bounds(self.min_replicas, self.max_replicas)

    pending = sorted(requests, key=lambda r: (r.arrival_ms, r.request_id))
    num_requests = len(pending)
    start = pending[0].arrival_ms if pending else 0.0

    fleet = FleetState()
    for platform, profile in zip(self.platforms, self.profiles):
        fleet.add(platform, factory(fleet.next_ordinal()), profile, start)

    if num_requests == 0:
        return seed_collect(fleet, start, start, rerouted=0)

    next_arrival = 0
    now = start
    rerouted = 0
    rerouted_ids: Set[int] = set()
    boot_times: List[float] = []   # scheduled scale-out completions

    while next_arrival < num_requests or any(e.state.queue for e in fleet.serving()):
        # Phase 0: provisioning completes — bring booted replicas online.
        if boot_times:
            due = sum(1 for t in boot_times if t <= now + 1e-9)
            if due:
                boot_times = [t for t in boot_times if t > now + 1e-9]
                for _ in range(due):
                    fleet.add(self.replica_factory(),
                              factory(fleet.next_ordinal()),
                              ReplicaProfile(), now)

        active = fleet.active()
        for position, entry in enumerate(active):
            entry.index = position
        handles = active

        # Phase 1: admit + dispatch everything that has arrived by now.
        admitted = 0
        while (next_arrival < num_requests
               and pending[next_arrival].arrival_ms <= now + 1e-9):
            request = pending[next_arrival]
            index = int(self.balancer.choose(request, handles, now))
            if not 0 <= index < len(active):
                raise ValueError(f"balancer {self.balancer.name!r} chose replica "
                                 f"{index} of {len(active)}")
            entry = active[index]
            seed_admit(entry.platform, entry.state, request, fleet.obs)
            entry.dispatched += 1
            next_arrival += 1
            admitted += 1
        if admitted:
            self.autoscaler.observe_admitted(admitted, now)

        # Phase 2: autoscaler decision on the global clock.
        desired = int(self.autoscaler.desired_replicas(now, handles))
        desired = max(self.min_replicas, min(self.max_replicas, desired))
        provisioned = len(active) + len(boot_times)
        if desired > provisioned:
            delay = max(float(self.autoscaler.provision_delay_ms), 1e-6)
            boot_times.extend([now + delay] * (desired - provisioned))
        elif desired < len(active):
            boot_times.clear()
            for entry in sorted(active,
                                key=lambda e: -e.replica_id)[:len(active) - desired]:
                fleet.drain(entry, now)
            active = fleet.active()
            for position, entry in enumerate(active):
                entry.index = position
            handles = active

        # Phase 3: cluster-level drop salvage.
        if handles and (len(handles) > 1
                        or any(e.status == DRAINING and e.state.queue
                               for e in fleet.entries)):
            rerouted += seed_salvage_doomed(self, fleet, active, now,
                                            rerouted_ids)

        next_arrival_ms = (pending[next_arrival].arrival_ms
                           if next_arrival < num_requests else np.inf)
        wake_times: List[float] = []
        progressed = False

        # Phase 4 per serving replica: expire, select, serve (when idle).
        for entry in fleet.serving():
            platform, state = entry.platform, entry.state
            if not state.idle_at(now):
                wake_times.append(state.busy_until_ms)
                continue
            if not state.queue:
                continue
            seed_expire(platform, state, now, fleet.obs)
            if not state.queue:
                continue
            batch, wake_up = seed_select(platform, state, now)
            if not batch:
                target = min(wake_up, next_arrival_ms)
                if not np.isfinite(target) or target <= now + 1e-9:
                    batch = seed_force_batch(platform, state)
                else:
                    wake_times.append(wake_up)
                    continue
            seed_dispatch(platform, state, batch)
            result = _scale_result(entry.executor(batch, now),
                                   entry.profile.speed)
            seed_complete(platform, state, batch, result, now, fleet.obs)
            wake_times.append(state.busy_until_ms)
            progressed = True

        # Phase 5: drained replicas that have gone idle leave the fleet.
        fleet.retire_idle(now)

        if progressed:
            continue

        # Advance the global clock to the earliest future event.
        if next_arrival < num_requests:
            wake_times.append(next_arrival_ms)
        wake_times.extend(boot_times)
        future = [t for t in wake_times if np.isfinite(t) and t > now + 1e-9]
        if not future:
            break  # nothing can happen anymore (all queues drained)
        now = min(future)

    for entry in fleet.entries:
        entry.state.finalize_makespan()

    last_event = max((e.state.last_event_ms for e in fleet.entries
                      if np.isfinite(e.state.last_event_ms)), default=start)
    return seed_collect(fleet, start, last_event, rerouted)


def seed_generative_run(cluster: GenerativeClusterPlatform, workload,
                        policy_factory: PolicyFactory) -> GenerativeClusterMetrics:
    """The pre-kernel ``GenerativeClusterPlatform.run`` loop, verbatim."""
    self = cluster
    self.balancer.reset()
    self.autoscaler.reset()
    self.autoscaler.set_bounds(self.min_replicas, self.max_replicas)

    pending = sorted(workload.sequences,
                     key=lambda s: (s.arrival_ms, s.sequence_id))
    num_sequences = len(pending)
    start = pending[0].arrival_ms if pending else 0.0
    mean_tokens = workload.mean_output_length() or 1.0

    fleet = GenerativeFleetState()
    for engine, profile in zip(self.engines, self.profiles):
        fleet.add(engine, policy_factory(fleet.next_ordinal()), profile,
                  mean_tokens, start)

    if num_sequences == 0:
        return GenerativeClusterMetrics(**decode_rollup(fleet, start, start))

    next_arrival = 0
    now = start
    boot_times: List[float] = []   # scheduled scale-out completions

    while (next_arrival < num_sequences
           or any(e.queue or e.busy_slots(now) for e in fleet.serving())):
        # Phase 0: provisioning completes — bring booted replicas online.
        if boot_times:
            due = sum(1 for t in boot_times if t <= now + 1e-9)
            if due:
                boot_times = [t for t in boot_times if t > now + 1e-9]
                for _ in range(due):
                    fleet.add(self.engines[0],
                              policy_factory(fleet.next_ordinal()),
                              ReplicaProfile(), mean_tokens, now)

        active = fleet.active()
        for position, entry in enumerate(active):
            entry.index = position
        handles = active

        # Phase 1: admit + dispatch every sequence that has arrived by now.
        admitted = 0
        while (next_arrival < num_sequences
               and pending[next_arrival].arrival_ms <= now + 1e-9):
            sample = pending[next_arrival]
            index = int(self.balancer.choose(sample, handles, now))
            if not 0 <= index < len(active):
                raise ValueError(f"balancer {self.balancer.name!r} chose "
                                 f"replica {index} of {len(active)}")
            entry = active[index]
            entry.queue.append(sample)
            entry.dispatched += 1
            next_arrival += 1
            admitted += 1
        if admitted:
            self.autoscaler.observe_admitted(admitted, now)

        # Phase 2: autoscaler decision on the global clock.
        desired = int(self.autoscaler.desired_replicas(now, handles))
        desired = max(self.min_replicas, min(self.max_replicas, desired))
        provisioned = len(active) + len(boot_times)
        if desired > provisioned:
            delay = max(float(self.autoscaler.provision_delay_ms), 1e-6)
            boot_times.extend([now + delay] * (desired - provisioned))
        elif desired < len(active):
            boot_times.clear()
            for entry in sorted(active,
                                key=lambda e: -e.replica_id)[:len(active) - desired]:
                fleet.drain(entry, now)
            active = fleet.active()
            for position, entry in enumerate(active):
                entry.index = position
            handles = active

        # Phase 3 per serving replica: free decode slots claim queue heads.
        progressed = False
        for entry in fleet.serving():
            if entry.claim_streams(now, self.ttft_slo_ms):
                progressed = True

        # Phase 4: drained replicas that have gone idle leave the fleet.
        fleet.retire_idle(now)

        if progressed:
            continue

        # Advance the global clock to the earliest future event.
        wake_times: List[float] = list(boot_times)
        if next_arrival < num_sequences:
            wake_times.append(pending[next_arrival].arrival_ms)
        for entry in fleet.serving():
            wake_times.extend(t for t in entry.slots if t > now + 1e-9)
        future = [t for t in wake_times if np.isfinite(t) and t > now + 1e-9]
        if not future:
            break   # nothing can happen anymore
        now = min(future)

    end = max((e.last_completion_ms for e in fleet.entries
               if np.isfinite(e.last_completion_ms)), default=start)
    return GenerativeClusterMetrics(**decode_rollup(fleet, start, end))


def seed_disagg_run(platform, workload, policy_factory: PolicyFactory):
    """The pre-kernel ``DisaggregatedPlatform.run`` loop, verbatim."""
    from repro.generative.sequences import SequenceSample

    self = platform
    self.prefill_balancer.reset()
    self.decode_balancer.reset()
    self.prefill_autoscaler.reset()
    self.decode_autoscaler.reset()
    self.prefill_autoscaler.set_bounds(self.prefill_min, self.prefill_max)
    self.decode_autoscaler.set_bounds(self.decode_min, self.decode_max)

    pending = sorted(workload.sequences,
                     key=lambda s: (s.arrival_ms, s.sequence_id))
    num_sequences = len(pending)
    start = pending[0].arrival_ms if pending else 0.0
    mean_tokens = workload.mean_output_length() or 1.0
    mean_prompt = getattr(workload, "mean_prompt_length", lambda: 0.0)() or 1.0

    prefill_fleet = PrefillFleetState()
    for profile in self.prefill_profiles:
        prefill_fleet.add(self.prefill_model, profile, self.prefill_batch,
                          mean_prompt, start)
    decode_fleet = GenerativeFleetState()
    for engine, profile in zip(self.decode_engines, self.decode_profiles):
        decode_fleet.add(engine, policy_factory(decode_fleet.next_ordinal()),
                         profile, mean_tokens, start)

    if num_sequences == 0:
        return self._collect(prefill_fleet, decode_fleet, {}, {}, start, start)

    #: (ready_ms, sequence_id, sample) — KV transfer complete, decodeable.
    handoff: List[Tuple[float, int, SequenceSample]] = []
    prefill_delays: Dict[int, float] = {}
    transfer_delays: Dict[int, float] = {}
    prefill_boots: List[float] = []
    decode_boots: List[float] = []
    next_arrival = 0
    now = start

    def pool_scaling(fleet, autoscaler, handles, boots, low, high):
        """Shared per-pool autoscaler application (boot or drain)."""
        active = fleet.active()
        desired = int(autoscaler.desired_replicas(now, handles))
        desired = max(low, min(high, desired))
        provisioned = len(active) + len(boots)
        if desired > provisioned:
            delay = max(float(autoscaler.provision_delay_ms), 1e-6)
            boots.extend([now + delay] * (desired - provisioned))
        elif desired < len(active):
            boots.clear()
            for entry in sorted(active,
                                key=lambda e: -e.replica_id)[:len(active) - desired]:
                fleet.drain(entry, now)

    def add_prefill(fleet, now):
        model, profile = self._scale_out_prefill(fleet.next_ordinal())
        fleet.add(model, profile, self.prefill_batch, mean_prompt, now)

    def add_decode(fleet, now):
        engine, profile = self._scale_out_decode(fleet.next_ordinal())
        fleet.add(engine, policy_factory(fleet.next_ordinal()), profile,
                  mean_tokens, now)

    while (next_arrival < num_sequences
           or any(e.queue or e.in_flight for e in prefill_fleet.serving())
           or handoff
           or any(e.queue or e.busy_slots(now) for e in decode_fleet.serving())):
        # Phase 0: provisioning completes in either pool.
        for boots, fleet, add_fn in (
                (prefill_boots, prefill_fleet, add_prefill),
                (decode_boots, decode_fleet, add_decode)):
            due = sum(1 for t in boots if t <= now + 1e-9)
            if due:
                boots[:] = [t for t in boots if t > now + 1e-9]
                for _ in range(due):
                    add_fn(fleet, now)

        prefill_active = prefill_fleet.active()
        for position, entry in enumerate(prefill_active):
            entry.index = position
        prefill_handles = prefill_active

        # Phase 1: admit arrivals into the prefill pool.
        admitted = 0
        while (next_arrival < num_sequences
               and pending[next_arrival].arrival_ms <= now + 1e-9):
            sample = pending[next_arrival]
            index = int(self.prefill_balancer.choose(sample, prefill_handles,
                                                     now))
            if not 0 <= index < len(prefill_active):
                raise ValueError(f"balancer {self.prefill_balancer.name!r} "
                                 f"chose prefill replica {index} of "
                                 f"{len(prefill_active)}")
            entry = prefill_active[index]
            entry.queue.append(sample)
            entry.dispatched += 1
            next_arrival += 1
            admitted += 1
        if admitted:
            self.prefill_autoscaler.observe_admitted(admitted, now)

        # Phase 2: the prefill pool's own autoscaler.
        pool_scaling(prefill_fleet, self.prefill_autoscaler,
                     prefill_handles, prefill_boots, self.prefill_min,
                     self.prefill_max)

        # Phase 3: prefill progress — finish due chunk-batches and start new.
        progressed = False
        for entry in prefill_fleet.serving():
            if entry.in_flight and entry.busy_until_ms <= now + 1e-9:
                done = entry.busy_until_ms
                for sample in entry.in_flight:
                    transfer = entry.model.transfer_ms(sample.prompt_tokens)
                    prefill_delays[sample.sequence_id] = done - sample.arrival_ms
                    transfer_delays[sample.sequence_id] = transfer
                    heapq.heappush(handoff, (done + transfer,
                                             sample.sequence_id, sample))
                entry.prefilled += len(entry.in_flight)
                entry.prefilled_tokens += sum(s.prompt_tokens
                                              for s in entry.in_flight)
                entry.in_flight = []
                progressed = True
            if entry.is_free(now) and entry.queue:
                batch = entry.queue[:entry.prefill_batch]
                del entry.queue[:len(batch)]
                tokens = sum(s.prompt_tokens for s in batch)
                duration = entry.model.batch_prefill_ms(tokens) / entry.profile.speed
                entry.in_flight = batch
                entry.busy_until_ms = now + duration
                entry.last_completion_ms = max(entry.last_completion_ms,
                                               now + duration)
                progressed = True

        # Phase 4: handoff — transferred sequences dispatch to decode.
        decode_active = decode_fleet.active()
        for position, entry in enumerate(decode_active):
            entry.index = position
        decode_handles = decode_active
        moved = 0
        while handoff and handoff[0][0] <= now + 1e-9:
            _, _, sample = heapq.heappop(handoff)
            index = int(self.decode_balancer.choose(sample, decode_handles,
                                                    now))
            if not 0 <= index < len(decode_active):
                raise ValueError(f"balancer {self.decode_balancer.name!r} "
                                 f"chose decode replica {index} of "
                                 f"{len(decode_active)}")
            entry = decode_active[index]
            entry.queue.append(sample)
            entry.dispatched += 1
            moved += 1
        if moved:
            self.decode_autoscaler.observe_admitted(moved, now)
            progressed = True

        # Phase 5: the decode pool's own autoscaler.
        pool_scaling(decode_fleet, self.decode_autoscaler, decode_handles,
                     decode_boots, self.decode_min, self.decode_max)

        # Phase 6: free decode slots claim queue heads.
        for entry in decode_fleet.serving():
            if entry.claim_streams(now, self.ttft_slo_ms):
                progressed = True

        # Phase 7: drained replicas that have gone idle leave their pool.
        prefill_fleet.retire_idle(now)
        decode_fleet.retire_idle(now)

        if progressed:
            continue

        # Phase 8: advance the shared clock to the earliest future event.
        wake: List[float] = list(prefill_boots) + list(decode_boots)
        if next_arrival < num_sequences:
            wake.append(pending[next_arrival].arrival_ms)
        for entry in prefill_fleet.serving():
            if entry.in_flight:
                wake.append(entry.busy_until_ms)
        if handoff:
            wake.append(handoff[0][0])
        for entry in decode_fleet.serving():
            wake.extend(t for t in entry.slots if t > now + 1e-9)
        future = [t for t in wake if np.isfinite(t) and t > now + 1e-9]
        if not future:
            break   # nothing can happen anymore
        now = min(future)

    end = max((e.last_completion_ms for e in decode_fleet.entries
               if np.isfinite(e.last_completion_ms)), default=start)
    return self._collect(prefill_fleet, decode_fleet, prefill_delays,
                         transfer_delays, start, end)
