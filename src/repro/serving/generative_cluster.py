"""Generative fleet control plane: token-level early exits at cluster scale.

This module closes the last capability gap of the reproduction: the
continuous-batching generative engine (:mod:`repro.serving.hf_pipelines`)
previously only ran on a single replica, so the paper's token-level
latency/goodput story could not be examined under the fleet dynamics
(balancing, autoscaling, drain/retire) that PR 3 built for classification.

:class:`GenerativeClusterPlatform` dispatches one stream of generative
*sequences* across a dynamic fleet of decode replicas on a shared global
clock:

* each replica models the accelerator as ``max_batch_size`` concurrent decode
  slots; an admitted sequence waits in the replica's queue for a free slot and
  is then decoded as its own stream — per-token exits, deferred tails and
  forced flushes follow §3.4 exactly
  (:meth:`~repro.serving.hf_pipelines.ContinuousBatchingEngine.decode_stream`),
  and a one-replica fleet is the paper's single-engine setup;
* the pluggable :class:`~repro.serving.cluster.LoadBalancer` policies operate
  unchanged, but are costed by outstanding **decode work** — queued tokens ×
  the replica's depth-scaled expected step time — rather than request count,
  so ``least_work_left`` sees through a queue of short SQuAD answers standing
  behind one long CNN/DailyMail summary;
* the pluggable :class:`~repro.serving.autoscaler.Autoscaler` policies are
  evaluated on the global clock; scale-out boots replicas after the
  provisioning delay and scale-in *drains* them — a draining replica finishes
  its queued and in-flight sequences (no token is ever abandoned mid-stream),
  takes no new dispatches, then retires;
* replicas may be heterogeneous: a :class:`~repro.serving.fleet.ReplicaProfile`
  speed multiplier divides every decode-step duration.

:class:`GenerativeClusterMetrics` mirrors the classification
:class:`~repro.serving.metrics.ClusterMetrics` rollups at token granularity:
fleet TPT percentiles (including the queueing-inclusive per-token p99 that
dominates under load), deferred-flush counts, the fleet-size timeline and
cost-weighted replica-seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.faults import FaultSchedule, FaultSpec, coerce_faults
from repro.generative.decoding import (KVCacheAccountant, PrefillModel,
                                       kv_bytes_per_token)
from repro.obs.recorder import NULL_RECORDER
from repro.serving.autoscaler import Autoscaler, build_autoscaler
from repro.serving.cluster import LoadBalancer, build_balancer
from repro.serving.fleet import (ACTIVE, Replica, ReplicaProfile,
                                 coerce_profiles, replica_band)
from repro.serving.hf_pipelines import (ContinuousBatchingEngine,
                                        GenerativeMetrics, TokenExitPolicy,
                                        VanillaTokenPolicy)
from repro.serving.kernel import SimPlatform
from repro.serving.metrics import FleetMetrics
from repro.serving.pool import EVICT, WAKE, FleetRun, PoolState
from repro.tenancy import (TenancyConfig, TenantRuntime, build_sequence_runtime,
                           coerce_tenancy, sequence_rollups)

#: shared stateless policy used to pin a tenant's sequences to the full model
#: (exit-policy override ``allow_exits=False``).
_NO_EXIT_POLICY = VanillaTokenPolicy()

__all__ = ["GenerativeReplicaEntry", "GenerativeClusterMetrics",
           "GenerativeClusterPlatform", "PolicyFactory"]

#: Per-ordinal token-exit-policy source for one run.  Called once per replica
#: (ordinals continue past the initial fleet when the autoscaler scales out);
#: returning a shared object gives fleet-wide ("shared") EE control, fresh
#: objects give per-replica ("independent") control.
PolicyFactory = Callable[[int], TokenExitPolicy]


@dataclass
class GenerativeReplicaEntry(Replica):
    """One decode replica of the fleet: engine, policy, slots and lifecycle.

    Its own :class:`~repro.serving.fleet.Replica` handle: every balancer
    (round-robin, JSQ, least-work-left, power-of-two, weighted variants, the
    KV-aware policies) and autoscaler runs unchanged on decode pools — the
    *cost model* underneath is token-level.
    """

    replica_id: int
    engine: ContinuousBatchingEngine
    policy: TokenExitPolicy
    profile: ReplicaProfile
    mean_tokens: float
    #: per-slot completion time of the stream it is decoding (-inf = free).
    slots: List[float] = field(default_factory=list)
    queue: List = field(default_factory=list)
    metrics: GenerativeMetrics = field(default_factory=GenerativeMetrics)
    status: str = ACTIVE
    added_ms: float = 0.0
    retired_ms: Optional[float] = None
    #: sequences the balancer routed here.
    dispatched: int = 0
    last_completion_ms: float = -np.inf
    #: released-token accounting feeding the depth-scaled work estimate.
    released_tokens: int = 0
    released_exits: int = 0
    #: KV-cache accountant (``None`` disables the cache model entirely).
    kv: Optional[KVCacheAccountant] = None
    #: sequence id -> decode slot it occupies; lets an eviction charge the
    #: victim's recompute as an extension of its slot occupancy.
    kv_slot_of: Dict[int, int] = field(default_factory=dict, repr=False,
                                       compare=False)
    #: span hooks (the shared no-op recorder unless the run installs one)
    #: and the pool tag stamped onto this replica's spans/gauges.
    obs: object = field(default=NULL_RECORDER, repr=False, compare=False)
    obs_pool: str = field(default="serve", repr=False, compare=False)
    #: kernel-scheduler bookkeeping: dirty flag + per-slot armed event times.
    _kdirty: bool = field(default=False, repr=False, compare=False)
    _slot_armed: Dict[int, float] = field(default_factory=dict, repr=False,
                                          compare=False)
    _kv_evict_pending: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.slots:
            self.slots = [-np.inf] * self.engine.max_batch_size

    @property
    def hardware(self) -> ContinuousBatchingEngine:
        return self.engine

    # ------------------------------------------------------------------ slots
    def busy_slots(self, now_ms: float) -> int:
        return sum(1 for t in self.slots if t > now_ms + 1e-9)

    busy_units = busy_slots

    def free_slot_index(self, now_ms: float) -> Optional[int]:
        for index, t in enumerate(self.slots):
            if t <= now_ms + 1e-9:
                return index
        return None

    def next_free_slot_ms(self) -> float:
        return min(self.slots)

    def has_work(self, now_ms: float) -> bool:
        return bool(self.queue) or self.busy_slots(now_ms) > 0

    def is_idle(self, now_ms: float) -> bool:
        return not self.queue and self.busy_slots(now_ms) == 0

    # ---------------------------------------------------------- resource view
    def jobs_in_system(self, now_ms: float) -> int:
        """Queued sequences plus the streams decoding in occupied slots."""
        return len(self.queue) + self.busy_slots(now_ms)

    def backlog_ms(self, now_ms: float) -> float:
        """Remaining decode time of the stream occupying the *soonest-free*
        slot — when the replica could next start a queued sequence."""
        return max(0.0, self.next_free_slot_ms() - now_ms)

    def work_left_ms(self, now_ms: float) -> float:
        """Outstanding decode work in expected milliseconds.

        In-flight streams contribute their remaining slot occupancy; queued
        sequences contribute ``tokens × depth-scaled step time`` at the
        replica's speed.  This is what makes ``least_work_left`` price decode
        replicas correctly: ten queued 12-token answers are cheaper than two
        60-token summaries even though JSQ counts them as five times the load.
        """
        work = sum(max(0.0, t - now_ms) for t in self.slots)
        if not self.queue:
            return work
        token_ms = self.expected_token_ms()
        queued_tokens = sum(s.num_tokens for s in self.queue)
        # Queued work drains across all slots in parallel.
        return work + queued_tokens * token_ms / self.engine.max_batch_size

    @property
    def max_batch_size(self) -> int:
        """Decode slots: the sequences this replica serves at once."""
        return self.engine.max_batch_size

    def predicted_batch_time_ms(self, batch_size: int) -> float:
        """Expected time to turn every slot over once: mean sequence length
        × depth-scaled step time (the autoscalers' capacity signal)."""
        return self.mean_tokens * self.expected_token_ms()

    # ------------------------------------------------------------- work model
    def expected_token_ms(self) -> float:
        """Depth-scaled expected decode-step time per token on this replica.

        A full step costs ``full_step + ramp_overhead``; a token that exits at
        the policy's current ramp depth only pays the head portion.  The two
        are blended by this replica's *observed* exit rate so the estimate
        adapts with the policy (and stays exactly ``full_step`` for vanilla).
        Deterministic: depends only on the run's own history.
        """
        timing = self.engine.timing
        overhead = timing.ramp_overhead_ms(1)
        full = timing.full_step_ms(1) + overhead
        depth = getattr(self.policy, "ramp_depth", None)
        threshold = getattr(self.policy, "threshold", 0.0)
        if depth is None or self.released_tokens == 0:
            return full / self.profile.speed
        exit_rate = self.released_exits / self.released_tokens
        if threshold is not None and float(threshold) <= 0.0:
            exit_rate = 0.0
        partial = timing.partial_step_ms(1, float(depth)) + overhead
        return (exit_rate * partial + (1.0 - exit_rate) * full) / self.profile.speed

    def record_stream(self, num_tokens: int, num_exited: int) -> None:
        self.released_tokens += int(num_tokens)
        self.released_exits += int(num_exited)

    # ------------------------------------------------------------ slot claims
    def claim_streams(self, now_ms: float, ttft_slo_ms: Optional[float],
                      tenant_runtime: Optional["TenantRuntime"] = None) -> bool:
        """Free decode slots claim queue heads and run the stream decode.

        This is the one slot-claim loop shared by the monolithic cluster and
        the disaggregated decode pool (whose engines simply carry no in-slot
        prefill model).  Returns whether anything changed at this timestamp.

        The TTFT deadline check runs on the time decode *would start* — for
        a monolithic engine that includes the prompt's in-slot prefill,
        stretched by contention with the busy decode slots — so a sequence
        that provably cannot make its SLO is shed before any compute is
        spent on it, and the shed decision is consistent with the TTFT the
        sequence would have recorded.

        ``tenant_runtime`` (optional) applies per-tenant overrides: a
        sequence whose tenant pins a TTFT SLO sheds against that value
        (``None`` disables shedding for the tenant), and a sequence whose
        tenant forbids exits decodes under the shared vanilla policy.
        """
        progressed = False
        while self.queue:
            slot = self.free_slot_index(now_ms)
            if slot is None:
                break
            sample = self.queue.pop(0)
            kv = self.kv
            hit = kv.prefix_hit_tokens(sample) if kv is not None else 0
            decode_start = now_ms
            if self.engine.prefill is not None:
                # Monolithic in-slot prefill: the prompt's chunks contend
                # with the decode streams already in flight.  Shared-prefix
                # tokens already resident in the KV cache skip their share
                # of the prefill (``hit`` is 0 with the cache disabled).
                decode_start = now_ms + self.engine.prefill.inslot_prefill_ms(
                    sample.prompt_tokens - hit,
                    self.busy_slots(now_ms)) / self.profile.speed
            ttft_limit = ttft_slo_ms
            policy = self.policy
            if tenant_runtime is not None:
                ttft_limit = tenant_runtime.ttft_of.get(sample.sequence_id,
                                                        ttft_slo_ms)
                if sample.sequence_id in tenant_runtime.no_exit_ids:
                    policy = _NO_EXIT_POLICY
            obs = self.obs
            if ttft_limit is not None \
                    and decode_start - sample.arrival_ms > ttft_limit:
                self.metrics.shed_sequence_ids.append(sample.sequence_id)
                if obs.enabled:
                    sid = sample.sequence_id
                    prev = obs.last_phase_end(sid)
                    obs.phase(sid, "queue",
                              sample.arrival_ms if prev is None else prev,
                              now_ms, pool=self.obs_pool,
                              replica=self.replica_id)
                    obs.close(sid, now_ms, outcome="shed")
                progressed = True
                continue
            # Queueing spans arrival -> first decode step, so TTFT rolls up
            # every pipeline stage the sequence crossed.
            self.metrics.queueing_delays_ms[sample.sequence_id] = \
                decode_start - sample.arrival_ms
            exited = self.metrics.exited
            before = len(exited)
            completion = self.engine.decode_stream(
                sample, decode_start, policy, self.metrics,
                speed=self.profile.speed)
            released = len(exited) - before
            num_exited = exited[before:].count(True)
            self.record_stream(released, num_exited)
            self.slots[slot] = completion
            if kv is not None:
                kv.admit(sample, completion)
                self.kv_slot_of[int(sample.sequence_id)] = slot
            self.last_completion_ms = max(self.last_completion_ms, completion)
            if obs.enabled:
                # The span reuses the exact floats the metrics recorded:
                # queue ends (and decode starts) at ``decode_start``, whose
                # distance from arrival *is* queueing_delays_ms.
                sid = sample.sequence_id
                pool_name = self.obs_pool
                replica = self.replica_id
                prev = obs.last_phase_end(sid)
                queue_start = sample.arrival_ms if prev is None else prev
                if self.engine.prefill is not None and decode_start != now_ms:
                    obs.phase(sid, "queue", queue_start, now_ms,
                              pool=pool_name, replica=replica)
                    obs.phase(sid, "prefill", now_ms, decode_start,
                              pool=pool_name, replica=replica)
                else:
                    obs.phase(sid, "queue", queue_start, decode_start,
                              pool=pool_name, replica=replica)
                obs.phase(sid, "decode", decode_start, completion,
                          pool=pool_name, replica=replica)
                if hit:
                    obs.annotate(sid, kv_hit_tokens=int(hit))
                obs.close(sid, completion, outcome="served",
                          tokens=released, exited_tokens=num_exited)
            progressed = True
        return progressed


@dataclass
class GenerativeClusterMetrics(FleetMetrics):
    """Per-replica token metrics plus fleet-wide rollups for one cluster run.

    ``replicas`` holds one :class:`GenerativeMetrics` per replica that ever
    decoded and ``makespan_ms`` runs from the first arrival to the last token
    release; see :func:`repro.tenancy.rollup.sequence_rollups` for the
    tenant rollups' keys.
    """

    replica_metrics = GenerativeMetrics

    def total_tokens(self) -> int:
        return self.aggregate().num_tokens()

    def summary(self) -> Dict[str, float]:
        """Fleet rollup: aggregate token stats plus cluster-only metrics."""
        data = self.aggregate().summary()
        data.update({
            "num_replicas": float(self.num_replicas()),
            "peak_replicas": float(self.peak_replicas()),
            "dispatch_imbalance": self.dispatch_imbalance(),
            "replica_seconds": float(self.replica_seconds),
        })
        return self.add_crash_keys(data)


class GenerativeClusterPlatform:
    """A dynamic fleet of continuous-batching decode replicas.

    The event loop mirrors :class:`~repro.serving.cluster.ClusterPlatform`
    phase for phase — boot, admit/dispatch, autoscale, serve, retire, advance
    the shared clock — with the classification replica step replaced by slot
    claiming: a free decode slot claims the replica's queue head and runs the
    engine's stream decode.

    Parameters
    ----------
    engines:
        Per-initial-replica :class:`ContinuousBatchingEngine`.  Engines are
        stateless (all mutable state lives in the run's fleet entries), so
        one engine may be shared by every replica.
    balancer / seed:
        Dispatch policy name/instance and the seed for stochastic balancers.
    profiles:
        Optional per-initial-replica :class:`ReplicaProfile` (or speed floats
        / ``"speed[:cost]"`` strings) for heterogeneous fleets.
    autoscaler / min_replicas / max_replicas:
        Elasticity, exactly as in the classification cluster.  Scaled-out
        replicas reuse the first engine's configuration (engines are
        stateless) and run at base speed.
    kv_capacity:
        Fleet-default per-replica KV-cache budget in bytes (a replica
        profile's ``kv_capacity_bytes`` overrides it).  ``None`` (the
        default) disables the cache model entirely and the run is
        bit-identical to pre-cache behaviour; with a budget set, each
        replica runs a :class:`~repro.generative.decoding.KVCacheAccountant`
        — admissions claim footprint, over-capacity occupancy triggers LRU
        eviction as a kernel event, and an evicted running sequence pays a
        re-prefill recompute as an extension of its decode slot.
    """

    def __init__(self, engines: Sequence[ContinuousBatchingEngine],
                 balancer: Union[str, LoadBalancer] = "round_robin",
                 seed: int = 0,
                 profiles: Optional[Sequence[Union[ReplicaProfile, float, str]]] = None,
                 autoscaler: Union[str, Autoscaler, None] = "none",
                 min_replicas: Optional[int] = None,
                 max_replicas: Optional[int] = None,
                 ttft_slo_ms: Optional[float] = None,
                 tenancy: Union[None, str, TenancyConfig] = None,
                 faults: Union[None, str, FaultSpec, FaultSchedule] = None,
                 kv_capacity: Optional[float] = None,
                 obs=None) -> None:
        self.engines = list(engines)
        if not self.engines:
            raise ValueError("a generative cluster needs at least one replica")
        #: Observability recorder shared by every replica (no-op when unset).
        self.obs = obs if obs is not None else NULL_RECORDER
        if ttft_slo_ms is not None and ttft_slo_ms <= 0:
            raise ValueError(f"ttft_slo_ms must be positive, got {ttft_slo_ms}")
        self.ttft_slo_ms = None if ttft_slo_ms is None else float(ttft_slo_ms)
        if kv_capacity is not None and not (
                float(kv_capacity) > 0.0 and np.isfinite(kv_capacity)):
            raise ValueError(f"kv_capacity must be positive and finite bytes, "
                             f"got {kv_capacity}")
        self.kv_capacity = None if kv_capacity is None else float(kv_capacity)
        self.seed = int(seed)
        self.balancer = build_balancer(balancer, seed=seed, kind="generative")
        self.autoscaler = build_autoscaler(autoscaler)
        self.tenancy = coerce_tenancy(tenancy)
        self.faults = coerce_faults(faults)

        n = len(self.engines)
        self.profiles = coerce_profiles(profiles, n)
        self.min_replicas, self.max_replicas = replica_band(n, min_replicas,
                                                            max_replicas)

    @property
    def num_replicas(self) -> int:
        """Size of the initial fleet (the fleet ``run()`` starts from)."""
        return len(self.engines)

    # --------------------------------------------------------------- main loop
    def run(self, workload, policy_factory: PolicyFactory) -> GenerativeClusterMetrics:
        """Serve every sequence in ``workload`` across the (dynamic) fleet.

        ``policy_factory(ordinal)`` supplies each replica's token-exit policy
        for this run (fresh state per run keeps repeated ``run()`` calls on
        one cluster object bit-identical); returning one shared object gives
        fleet-wide EE control.  Returns per-replica + fleet token metrics
        covering every replica that decoded, including ones retired mid-run.
        """
        pending = sorted(workload.sequences,
                         key=lambda s: (s.arrival_ms, s.sequence_id))
        tenant_runtime = build_sequence_runtime(pending, self.tenancy, self.seed)
        start = pending[0].arrival_ms if pending else 0.0
        mean_tokens = workload.mean_output_length() or 1.0
        runner = _GenerativeRun(self, pending, policy_factory, mean_tokens,
                                start, tenant_runtime=tenant_runtime)
        pool = runner.pool
        if not pending:
            return GenerativeClusterMetrics(**decode_rollup(pool, start, start))

        runner.drive()

        end = max((e.last_completion_ms for e in pool.entries
                   if np.isfinite(e.last_completion_ms)), default=start)
        metrics = GenerativeClusterMetrics(**decode_rollup(pool, start, end))
        runner.stamp(metrics)
        if tenant_runtime is not None:
            metrics.tenant_rollups = sequence_rollups(metrics.aggregate(),
                                                      tenant_runtime)
        return metrics

    def _scale_out(self, ordinal: int) -> Tuple[ContinuousBatchingEngine,
                                                ReplicaProfile]:
        """The engine and profile a scale-out boot brings online (engines
        are stateless, so every boot reuses the first one)."""
        return self.engines[0], ReplicaProfile()


def decode_rollup(pool: PoolState, start_ms: float,
                  end_ms: float) -> Dict[str, object]:
    """Close a decode pool's books at ``end_ms``.

    Stamps every member's token metrics with its makespan and KV-cache
    counters and returns the :class:`GenerativeClusterMetrics` fields the
    pool fills (a disaggregated run's decode pool fills the same ones).
    """
    books = pool.books(end_ms)
    for entry in pool.entries:
        metrics = entry.metrics
        if metrics.num_tokens():
            metrics.makespan_ms = max(entry.last_completion_ms - start_ms, 1e-9)
        kv = entry.kv
        if kv is not None:
            metrics.kv_enabled = True
            metrics.kv_hit_tokens = kv.hit_tokens
            metrics.kv_miss_tokens = kv.miss_tokens
            metrics.kv_evictions = kv.evictions
            metrics.kv_evicted_tokens = kv.evicted_tokens
            metrics.kv_recompute_tokens = kv.recompute_tokens
    decoded_anything = any(entry.metrics.num_tokens() for entry in pool.entries)
    return dict(
        replicas=[entry.metrics for entry in pool.entries],
        makespan_ms=max(end_ms - start_ms, 1e-9) if decoded_anything else 0.0,
        **books)


def kv_accountant(engine: ContinuousBatchingEngine, profile: ReplicaProfile,
                  capacity: Optional[float],
                  prefill: Optional[PrefillModel] = None
                  ) -> Optional[KVCacheAccountant]:
    """A fresh KV-cache accountant for one decode replica.

    ``None`` (no cache model) unless the profile's ``kv_capacity_bytes`` or
    the pool-wide ``capacity`` sets a budget.  Evicted context is recomputed
    at ``prefill``'s chunked rate scaled by the replica's speed; without one
    it is the engine's own in-slot prefill model or, for an engine without
    one, a default :class:`PrefillModel` over the same timing spec.
    """
    if profile.kv_capacity_bytes is not None:
        capacity = profile.kv_capacity_bytes
    if capacity is None:
        return None
    if prefill is None:
        prefill = engine.prefill
    if prefill is None:
        prefill = PrefillModel(engine.timing.spec)
    recompute = prefill.chunk_time_ms() / prefill.tokens_per_chunk \
        / profile.speed
    return KVCacheAccountant(capacity, kv_bytes_per_token(engine.timing.spec),
                             recompute_ms_per_token=recompute)


class DecodePool(PoolState):
    """A pool of continuous-batching decode replicas.

    The monolithic generative fleet is one of these; a disaggregated fleet
    feeds one from its prefill pool.  Every member — initial, scaled out or
    recovered from a crash — gets a fresh token-exit policy from
    ``policy_factory`` and a fresh :func:`kv_accountant` (a crash loses the
    cache along with the queued work).  A member's freed decode slots fire
    :data:`~repro.serving.pool.WAKE` events and its KV overflow an
    :data:`~repro.serving.pool.EVICT` event; :class:`FleetRun` dispatches
    both, so runners never see them.
    """

    busy_gauge = "busy_slots"

    def __init__(self, sim: SimPlatform, name: str, balancer: LoadBalancer,
                 autoscaler: Autoscaler, band: Tuple[int, int], scale_out,
                 initial, policy_factory: PolicyFactory, mean_tokens: float,
                 kv_capacity: Optional[float], prefill: Optional[PrefillModel],
                 ttft_slo_ms: Optional[float],
                 runtime: Optional[TenantRuntime]) -> None:
        self.policy_factory = policy_factory
        self.mean_tokens = mean_tokens
        self.kv_capacity = kv_capacity
        self.prefill = prefill
        self.ttft_slo_ms = ttft_slo_ms
        super().__init__(sim, name, balancer, autoscaler, band, self._spawn,
                         scale_out, initial, runtime=runtime)

    def _spawn(self, replica_id: int, engine: ContinuousBatchingEngine,
               profile: ReplicaProfile, now_ms: float) -> GenerativeReplicaEntry:
        return GenerativeReplicaEntry(
            replica_id=replica_id, engine=engine,
            policy=self.policy_factory(replica_id), profile=profile,
            mean_tokens=self.mean_tokens, added_ms=now_ms,
            kv=kv_accountant(engine, profile, self.kv_capacity, self.prefill),
            obs=self.sim.obs, obs_pool=self.name)

    def serve(self, now_ms: float) -> bool:
        """The slot phase; returns whether anything progressed.

        Free decode slots of the dirty members claim their queue heads and
        run the stream decode (deadline shedding included), then each
        member's slot-free events are armed and any KV overflow schedules an
        eviction.  A member with queued work and a free slot is always
        dirty: claims leave either an empty queue or no free slot, slots
        only free through their slot event, and routing wakes its target.
        """
        progressed = False
        ttft_slo_ms = self.ttft_slo_ms
        runtime = self.runtime
        for entry in self.drain_dirty():
            if entry.claim_streams(now_ms, ttft_slo_ms, runtime):
                progressed = True
            self._arm_slots(entry, now_ms)
            kv = entry.kv
            if kv is not None and not entry._kv_evict_pending \
                    and kv.needs_eviction():
                # Deferred to a same-timestamp event (rather than evicting
                # inline) so eviction observes the timestamp's full admission
                # state; ``_kv_evict_pending`` dedupes, and ``needs_eviction``
                # requires an evictable non-MRU resident, so one
                # oversubscribing sequence cannot re-arm the event forever.
                entry._kv_evict_pending = True
                self.sim.events.push(now_ms, EVICT, (self, entry))
        return progressed

    def evict(self, entry: GenerativeReplicaEntry, now_ms: float) -> None:
        """Fire one member's deferred KV-eviction event.

        Evicts LRU residents until occupancy fits; a still-running victim's
        recompute charge extends its decode-slot occupancy (the slot
        re-prefills the evicted context before the stream can finish), so
        the freed-slot event is re-armed at the later time.
        """
        entry._kv_evict_pending = False
        kv = entry.kv
        if kv is None:
            return
        obs = entry.obs
        for seq_id, recompute_ms in kv.evict_to_fit(now_ms):
            if obs.enabled:
                obs.annotate(seq_id, kv_evicted=True)
            slot = entry.kv_slot_of.pop(seq_id, None)
            if slot is None or recompute_ms <= 0.0:
                continue
            if entry.slots[slot] > now_ms + 1e-9:
                entry.slots[slot] += recompute_ms
                entry.last_completion_ms = max(entry.last_completion_ms,
                                               entry.slots[slot])
                if obs.enabled:
                    obs.annotate(seq_id, kv_recompute_ms=recompute_ms)
        self._arm_slots(entry, now_ms)
        self.wake(entry)

    def _arm_slots(self, entry: GenerativeReplicaEntry, now_ms: float) -> None:
        """Register a slot-free wake-up per occupied decode slot.

        ``_slot_armed`` remembers the completion time last armed per slot so
        an unchanged slot is never double-registered.  Events never need
        cancelling: a slot with a live future event is occupied, and claims
        only ever take slots whose time has passed, so a stale record in
        ``_slot_armed`` can never collide with a pending event.
        """
        armed = entry._slot_armed
        for index, t in enumerate(entry.slots):
            if t > now_ms + 1e-9 and armed.get(index) != t:
                armed[index] = t
                self.sim.events.push(t, WAKE, (self, entry))


class _GenerativeRun(FleetRun):
    """Kernel-scheduled execution of one :meth:`GenerativeClusterPlatform.run`.

    One decode pool.  Same phase order as the seed rescan loop (boots →
    admit → autoscale → slot claims → retire); the slot-claim phase touches
    only the replicas whose queue changed or whose decode slot freed, and
    the clock advances through the event heap (slot completions, boots)
    plus the arrival cursor.
    """

    def __init__(self, cluster: GenerativeClusterPlatform, pending: List,
                 policy_factory: PolicyFactory, mean_tokens: float,
                 start_ms: float,
                 tenant_runtime: Optional[TenantRuntime] = None) -> None:
        super().__init__(pending, start_ms, cluster.obs, tenant_runtime)
        self.pool = DecodePool(self, "serve", cluster.balancer,
                               cluster.autoscaler,
                               (cluster.min_replicas, cluster.max_replicas),
                               cluster._scale_out,
                               zip(cluster.engines, cluster.profiles),
                               policy_factory, mean_tokens,
                               cluster.kv_capacity, None, cluster.ttft_slo_ms,
                               tenant_runtime)
        self.pools = (self.pool,)
        self.arm_faults(cluster.faults, lambda fault: self.pool)

    def step(self, now: float) -> bool:
        pool = self.pool
        # Phase 1: admit + dispatch every sequence that has arrived by now.
        self.admit_arrivals(pool, now)
        # Phase 2: autoscaler decision on the global clock.
        pool.scale(now)
        # Phase 3 per dirty replica: free decode slots claim queue heads.
        progressed = pool.serve(now)
        # Phase 4: drained replicas that have gone idle leave the fleet.
        pool.retire_idle(now)
        return progressed
