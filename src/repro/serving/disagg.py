"""Prefill/decode disaggregated generative serving with independent pools.

Production LLM fleets split the two generative phases onto separate machine
pools (DistServe, Splitwise): **prefill** is compute-bound and batch-friendly
— a prompt's tokens are processed in parallel chunks — while **decode** is
memory-bound and TPT-critical — one token per step per stream.  Running both
on one replica makes them interfere: a prompt's prefill chunks steal compute
from every decode stream in flight, so time-to-first-token and decode cadence
degrade together under prompt-heavy load.

:class:`DisaggregatedPlatform` runs two replica pools
(:class:`~repro.serving.pool.PoolState`) on one shared global clock:

* a **prefill pool** of chunk-batch replicas — each takes up to
  ``prefill_batch`` queued prompts and runs their chunks back to back
  (:meth:`~repro.generative.decoding.PrefillModel.batch_prefill_ms`);
* a **decode pool** — exactly the pool the monolithic generative cluster
  runs (:class:`~repro.serving.generative_cluster.DecodePool`, with its
  slot loop and KV evictions);
* a **handoff queue** between them: a prefilled sequence becomes eligible for
  decode dispatch only after its KV cache has been shipped across the
  interconnect (bytes grow with prompt tokens × layer depth, see
  :meth:`~repro.generative.decoding.PrefillModel.transfer_ms`).

Each pool has its *own* balancer and its *own* autoscaler evaluated on the
global clock, so the two pools size independently: the prefill scaler sees
queued prompt chunks (prompt-token pressure), the decode scaler sees
outstanding decode work — under a diurnal prompt-heavy cycle the pools grow
and shrink on different schedules, which a monolithic fleet cannot express.

:class:`DisaggregatedMetrics` extends the generative cluster rollups (whose
base fields describe the decode pool) with the prefill pool's fleet timeline
/ replica-seconds and the per-sequence prefill and KV-transfer delays; the
aggregate token stream's TTFT is inclusive of queueing + prefill + transfer
because each sequence's recorded queueing delay spans arrival → first decode
step.
"""

from __future__ import annotations

import copy
import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.faults import FaultSchedule, FaultSpec, coerce_faults
from repro.generative.decoding import PrefillModel
from repro.generative.sequences import SequenceSample
from repro.obs.recorder import NULL_RECORDER
from repro.serving.autoscaler import Autoscaler, build_autoscaler
from repro.serving.cluster import LoadBalancer, build_balancer
from repro.serving.fleet import (ACTIVE, BaseFleet, Replica, ReplicaProfile,
                                 coerce_profiles, replica_band)
from repro.serving.generative_cluster import (DecodePool,
                                              GenerativeClusterMetrics,
                                              GenerativeFleetState,
                                              PolicyFactory, decode_rollup)
from repro.serving.hf_pipelines import ContinuousBatchingEngine
from repro.serving.pool import WAKE, FleetRun, PoolState
from repro.tenancy import (TenancyConfig, TenantRuntime, build_sequence_runtime,
                           coerce_tenancy, sequence_rollups)

__all__ = ["PrefillReplicaEntry", "PrefillFleetState",
           "DisaggregatedMetrics", "DisaggregatedPlatform"]


@dataclass
class PrefillReplicaEntry(Replica):
    """One prefill replica: chunk-batch processor with fleet lifecycle.

    Its own :class:`~repro.serving.fleet.Replica` handle.  Load is expressed
    in *pending prefill chunks* — queued prompt tokens divided into chunk
    units, plus the chunk-batch on the accelerator — so JSQ balances by
    prompt length rather than prompt count, and the reactive autoscaler's
    "jobs in system" watermark scales with queued prompt tokens, which is
    exactly the signal the prefill pool must grow on.  Prefill replicas hold
    no decode-side KV residency, so the KV-aware balancers degrade to
    least-work here.
    """

    replica_id: int
    model: PrefillModel
    profile: ReplicaProfile
    prefill_batch: int
    mean_prompt_tokens: float
    queue: List[SequenceSample] = field(default_factory=list)
    #: the chunk-batch on the accelerator (empty when free).
    in_flight: List[SequenceSample] = field(default_factory=list)
    busy_until_ms: float = -np.inf
    status: str = ACTIVE
    added_ms: float = 0.0
    retired_ms: Optional[float] = None
    #: sequences the balancer routed here.
    dispatched: int = 0
    #: sequences / prompt tokens this replica finished prefilling.
    prefilled: int = 0
    prefilled_tokens: int = 0
    last_completion_ms: float = -np.inf
    #: kernel-scheduler bookkeeping: dirty flag for the prefill dirty list.
    _kdirty: bool = field(default=False, repr=False, compare=False)

    @property
    def hardware(self) -> PrefillModel:
        return self.model

    def is_free(self, now_ms: float) -> bool:
        return not self.in_flight and self.busy_until_ms <= now_ms + 1e-9

    def is_idle(self, now_ms: float) -> bool:
        """No queued prompts and nothing on the accelerator (retirement)."""
        return not self.queue and self.is_free(now_ms)

    def has_work(self, now_ms: float) -> bool:
        return bool(self.queue) or bool(self.in_flight)

    def busy_units(self, now_ms: float) -> int:
        return 0 if self.is_free(now_ms) else 1

    # ---------------------------------------------------------- resource view
    def queue_length(self) -> int:
        return len(self.queue)

    def jobs_in_system(self, now_ms: float) -> float:
        """Pending prefill chunks: queued prompt chunks + the in-flight batch."""
        chunks = sum(self.model.num_chunks(s.prompt_tokens) for s in self.queue)
        if self.busy_until_ms > now_ms + 1e-9:
            chunks += (self.busy_until_ms - now_ms) / max(
                self.model.chunk_time_ms() / self.profile.speed, 1e-9)
        return float(chunks)

    def backlog_ms(self, now_ms: float) -> float:
        """Remaining accelerator time of the in-flight chunk-batch."""
        return max(0.0, self.busy_until_ms - now_ms)

    def work_left_ms(self, now_ms: float) -> float:
        """Expected milliseconds until this replica would drain its queue."""
        work = self.backlog_ms(now_ms)
        queued_tokens = sum(s.prompt_tokens for s in self.queue)
        if queued_tokens <= 0:
            return work
        return work + self.model.batch_prefill_ms(queued_tokens) / self.profile.speed

    @property
    def max_batch_size(self) -> int:
        """Prompts per chunk-batch."""
        return self.prefill_batch

    def predicted_batch_time_ms(self, batch_size: int) -> float:
        """One chunk-batch of ``batch_size`` prompts at the workload's mean
        prompt length (the autoscalers' capacity signal)."""
        tokens = int(round(batch_size * max(self.mean_prompt_tokens, 1.0)))
        return self.model.batch_prefill_ms(tokens) / self.profile.speed


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


@dataclass
class DisaggregatedMetrics(GenerativeClusterMetrics):
    """Two-pool rollup of one disaggregated run.

    The inherited :class:`GenerativeClusterMetrics` fields describe the
    **decode pool** (that is where tokens are produced); the ``prefill_*``
    fields describe the prefill pool, and the per-sequence delay maps record
    the pipeline stages every sequence crossed: ``prefill_delays_ms`` spans
    arrival → prefill completion (queueing included), ``transfer_delays_ms``
    is the KV-cache shipping time prefill → decode replica.
    """

    prefill_dispatch_counts: List[int] = field(default_factory=list)
    prefill_counts: List[int] = field(default_factory=list)
    #: prompt tokens prefilled per replica, aligned with ``prefill_counts``.
    prefill_token_counts: List[int] = field(default_factory=list)
    prefill_fleet_timeline: List[Tuple[float, int]] = field(default_factory=list)
    prefill_replica_seconds: float = 0.0
    prefill_active_ms: float = 0.0
    prefill_uptimes_ms: List[float] = field(default_factory=list)
    prefill_delays_ms: Dict[int, float] = field(default_factory=dict)
    transfer_delays_ms: Dict[int, float] = field(default_factory=dict)

    def num_prefill_replicas(self) -> int:
        return len(self.prefill_uptimes_ms)

    def prefill_peak_replicas(self) -> int:
        """Largest number of simultaneously active prefill replicas."""
        if not self.prefill_fleet_timeline:
            return self.num_prefill_replicas()
        return max(count for _, count in self.prefill_fleet_timeline)

    @staticmethod
    def _finite_mean(values) -> float:
        """Mean over the finite entries only (empty / all-NaN -> 0.0).

        Mirrors :func:`repro.utils.stats.summarize_latencies`: a sentinel
        NaN/inf recorded for a sequence that never completed its stage must
        not poison the summary that feeds ``RunReport.to_json()``.
        """
        arr = np.asarray(list(values), dtype=float)
        arr = arr[np.isfinite(arr)]
        if arr.size == 0:
            return 0.0
        return float(arr.mean())

    def mean_prefill_delay_ms(self) -> float:
        return self._finite_mean(self.prefill_delays_ms.values())

    def mean_transfer_ms(self) -> float:
        return self._finite_mean(self.transfer_delays_ms.values())

    def summary(self) -> Dict[str, float]:
        data = super().summary()
        data.update({
            "prefill_replicas": float(self.num_prefill_replicas()),
            "prefill_peak_replicas": float(self.prefill_peak_replicas()),
            "prefill_replica_seconds": float(self.prefill_replica_seconds),
            "prefill_delay_mean_ms": self.mean_prefill_delay_ms(),
            "transfer_ms_mean": self.mean_transfer_ms(),
        })
        return data


class DisaggregatedPlatform:
    """Two independently balanced and autoscaled pools on one global clock.

    Parameters
    ----------
    prefill_model:
        Chunked-prefill / KV-transfer cost model shared by every prefill
        replica (including ones the prefill autoscaler boots mid-run).
    decode_engines:
        Per-initial-decode-replica :class:`ContinuousBatchingEngine`.  Decode
        engines should carry no in-slot prefill model — prompts reaching the
        decode pool are already prefilled.
    prefill_replicas / prefill_batch:
        Initial prefill pool size and the maximum prompts per chunk-batch.
    prefill_balancer / decode_balancer / seed:
        Per-pool dispatch policies; stochastic balancers draw from seeds
        ``seed`` (prefill) and ``seed + 1`` (decode) so repeated ``run()``
        calls on one platform object stay bit-identical.
    prefill_autoscaler / decode_autoscaler (+ per-pool min/max):
        Independent elasticity.  The prefill scaler reads queued prompt
        chunks, the decode scaler outstanding decode work, so the pools size
        independently under shifting prompt/decode pressure.
    prefill_profiles / decode_profiles:
        Optional per-initial-replica heterogeneity, as in the clusters.
    ttft_slo_ms:
        Optional deadline shedding: a sequence whose wait already exceeds
        the TTFT SLO when a decode slot frees up is shed (counted per decode
        replica in ``shed_sequence_ids``), mirroring the classification
        fleet's drop path at sequence granularity.
    tenancy:
        Optional multi-tenant config (spec string, :class:`TenancyConfig` or
        tenant list).  Sequences are tagged and ranked at ``run()`` time;
        both pools' queues are kept rank-sorted, so weighted-fair / strict
        priority shapes prefill order and decode slot claims alike.
        Per-tenant TTFT-SLO and exit-policy overrides apply in the decode
        pool's slot-claim loop.
    faults:
        Optional crash/recovery schedule (spec string, :class:`FaultSpec`
        or :class:`FaultSchedule`).  Each fault names its target pool: a
        ``pool="prefill"`` crash force-retires a prefill replica (its
        in-flight chunk-batch is salvaged, queued prompts requeue through
        the prefill balancer), a ``pool="decode"`` crash retires a decode
        replica (in-flight streams salvage, queued sequences requeue).
        The crashed hardware boots back ``down_ms`` later.
    kv_capacity:
        Pool-default per-decode-replica KV-cache budget in bytes (a decode
        profile's ``kv_capacity_bytes`` overrides it).  ``None`` disables
        the cache model; with a budget, each decode replica runs a
        :class:`~repro.generative.decoding.KVCacheAccountant` — residency,
        prefix hits, LRU eviction as a kernel event, recompute charged as a
        decode-slot extension — priced against the platform's prefill model.
    """

    def __init__(self, prefill_model: PrefillModel,
                 decode_engines: Sequence[ContinuousBatchingEngine],
                 prefill_replicas: int = 1,
                 prefill_batch: int = 4,
                 prefill_balancer: Union[str, LoadBalancer] = "round_robin",
                 decode_balancer: Union[str, LoadBalancer] = "round_robin",
                 seed: int = 0,
                 prefill_profiles: Optional[Sequence] = None,
                 decode_profiles: Optional[Sequence] = None,
                 prefill_autoscaler: Union[str, Autoscaler, None] = "none",
                 decode_autoscaler: Union[str, Autoscaler, None] = "none",
                 prefill_min_replicas: Optional[int] = None,
                 prefill_max_replicas: Optional[int] = None,
                 decode_min_replicas: Optional[int] = None,
                 decode_max_replicas: Optional[int] = None,
                 ttft_slo_ms: Optional[float] = None,
                 tenancy: Union[None, str, TenancyConfig] = None,
                 faults: Union[None, str, FaultSpec, FaultSchedule] = None,
                 kv_capacity: Optional[float] = None,
                 obs=None) -> None:
        self.prefill_model = prefill_model
        self.decode_engines = list(decode_engines)
        if not self.decode_engines:
            raise ValueError("a disaggregated platform needs at least one "
                             "decode replica")
        #: Observability recorder shared by both pools (no-op when unset).
        self.obs = obs if obs is not None else NULL_RECORDER
        if int(prefill_replicas) < 1:
            raise ValueError(f"prefill_replicas must be >= 1, "
                             f"got {prefill_replicas}")
        if int(prefill_batch) < 1:
            raise ValueError(f"prefill_batch must be >= 1, got {prefill_batch}")
        if ttft_slo_ms is not None and ttft_slo_ms <= 0:
            raise ValueError(f"ttft_slo_ms must be positive, got {ttft_slo_ms}")
        self.num_prefill = int(prefill_replicas)
        self.prefill_batch = int(prefill_batch)
        self.ttft_slo_ms = None if ttft_slo_ms is None else float(ttft_slo_ms)
        if kv_capacity is not None and not (
                float(kv_capacity) > 0.0 and np.isfinite(kv_capacity)):
            raise ValueError(f"kv_capacity must be positive and finite bytes, "
                             f"got {kv_capacity}")
        self.kv_capacity = None if kv_capacity is None else float(kv_capacity)
        self.seed = int(seed)
        self.tenancy = coerce_tenancy(tenancy)
        self.faults = coerce_faults(faults)

        self.prefill_balancer = build_balancer(prefill_balancer, seed=seed,
                                               kind="generative")
        self.decode_balancer = build_balancer(decode_balancer, seed=seed + 1,
                                              kind="generative")
        self.prefill_autoscaler = build_autoscaler(prefill_autoscaler)
        self.decode_autoscaler = build_autoscaler(decode_autoscaler)
        # One *instance* passed for both pools (e.g. a fleet-wide default
        # threaded down from ClusterSpec) must not be aliased: a shared
        # balancer would run one dispatch cursor/RNG stream across pools and
        # a shared autoscaler would corrupt its cooldown/EWMA state by
        # observing both pools' admissions.  Clone the decode-side copy.
        if self.decode_balancer is self.prefill_balancer:
            self.decode_balancer = copy.deepcopy(self.prefill_balancer)
        if self.decode_autoscaler is self.prefill_autoscaler:
            self.decode_autoscaler = copy.deepcopy(self.prefill_autoscaler)

        self.prefill_profiles = coerce_profiles(
            prefill_profiles, self.num_prefill, "prefill")
        self.decode_profiles = coerce_profiles(
            decode_profiles, len(self.decode_engines), "decode")

        self.prefill_min, self.prefill_max = replica_band(
            self.num_prefill, prefill_min_replicas, prefill_max_replicas,
            "prefill")
        self.decode_min, self.decode_max = replica_band(
            len(self.decode_engines), decode_min_replicas,
            decode_max_replicas, "decode")

    @property
    def num_decode(self) -> int:
        """Size of the initial decode pool."""
        return len(self.decode_engines)

    # --------------------------------------------------------------- main loop
    def run(self, workload, policy_factory: PolicyFactory) -> DisaggregatedMetrics:
        """Serve every sequence through prefill → handoff → decode.

        ``policy_factory(ordinal)`` supplies the token-exit policy of each
        *decode* replica (prefill replicas produce no tokens).  All mutable
        state lives in run-local fleets, so repeated calls on one platform
        object are bit-identical.
        """
        pending = sorted(workload.sequences,
                         key=lambda s: (s.arrival_ms, s.sequence_id))
        tenant_runtime = build_sequence_runtime(pending, self.tenancy, self.seed)
        start = pending[0].arrival_ms if pending else 0.0
        mean_tokens = workload.mean_output_length() or 1.0
        mean_prompt = getattr(workload, "mean_prompt_length", lambda: 0.0)() or 1.0
        runner = _DisaggRun(self, pending, policy_factory, mean_tokens,
                            mean_prompt, start, tenant_runtime=tenant_runtime)
        prefill_fleet = runner.ppool.fleet
        decode_fleet = runner.dpool.fleet
        if not pending:
            return self._collect(prefill_fleet, decode_fleet, {}, {}, start, start)

        runner.drive()

        end = max((e.last_completion_ms for e in decode_fleet.entries
                   if np.isfinite(e.last_completion_ms)), default=start)
        metrics = self._collect(prefill_fleet, decode_fleet,
                                runner.prefill_delays, runner.transfer_delays,
                                start, end)
        runner.stamp(metrics)
        if tenant_runtime is not None:
            metrics.tenant_rollups = sequence_rollups(metrics.aggregate(),
                                                      tenant_runtime)
        return metrics

    # ----------------------------------------------------------- scale-out add
    # Scaled-out replicas cycle the configured profile band by fleet ordinal,
    # so an elastic heterogeneous pool keeps its configured speed mix instead
    # of silently booting base-speed hardware.
    def _scale_out_prefill(self, ordinal: int) -> Tuple[PrefillModel,
                                                        ReplicaProfile]:
        profiles = self.prefill_profiles
        return self.prefill_model, profiles[ordinal % len(profiles)]

    def _scale_out_decode(self, ordinal: int) -> Tuple[ContinuousBatchingEngine,
                                                       ReplicaProfile]:
        profiles = self.decode_profiles
        return self.decode_engines[0], profiles[ordinal % len(profiles)]

    # ------------------------------------------------------------------ collect
    def _collect(self, prefill_fleet: PrefillFleetState,
                 decode_fleet: GenerativeFleetState,
                 prefill_delays: Dict[int, float],
                 transfer_delays: Dict[int, float],
                 start_ms: float, end_ms: float) -> DisaggregatedMetrics:
        prefill_end = max(end_ms, max(
            (e.last_completion_ms for e in prefill_fleet.entries
             if np.isfinite(e.last_completion_ms)), default=start_ms))
        prefill_fleet.finalize(prefill_end)
        return DisaggregatedMetrics(
            **decode_rollup(decode_fleet, start_ms, end_ms),
            prefill_dispatch_counts=[e.dispatched
                                     for e in prefill_fleet.entries],
            prefill_counts=[e.prefilled for e in prefill_fleet.entries],
            prefill_token_counts=[e.prefilled_tokens
                                  for e in prefill_fleet.entries],
            prefill_fleet_timeline=list(prefill_fleet.timeline),
            prefill_replica_seconds=prefill_fleet.replica_seconds(prefill_end),
            prefill_active_ms=prefill_fleet.active_replica_ms(prefill_end),
            prefill_uptimes_ms=[e.active_ms(prefill_end)
                                for e in prefill_fleet.entries],
            prefill_delays_ms=dict(prefill_delays),
            transfer_delays_ms=dict(transfer_delays),
        )


# --------------------------------------------------------------------- kernel
class _DisaggRun(FleetRun):
    """Kernel-scheduled port of the disaggregated pass/advance loop.

    A prefill pool feeding a decode pool through the KV handoff queue.
    Same phase order per pass as the monolithic runners, once per pool:
    admit arrivals into prefill, scale the prefill pool, progress prefill
    chunk-batches (completions feed the handoff heap), route due handoffs
    into decode, scale the decode pool, run the decode slot loop, retire
    idle drained replicas in both pools.  Each pool keeps its own dirty set
    so a pass touches only the replicas whose state changed; prefill
    completions and decode slot frees live on the shared heap, the arrival
    cursor and the handoff head are the external candidates.
    """

    def __init__(self, platform: DisaggregatedPlatform,
                 pending: List[SequenceSample], policy_factory: PolicyFactory,
                 mean_tokens: float, mean_prompt: float, start_ms: float,
                 tenant_runtime: Optional[TenantRuntime] = None) -> None:
        super().__init__(pending, start_ms, platform.obs, tenant_runtime)
        prefill_fleet = PrefillFleetState()

        def spawn_prefill(model: PrefillModel, profile: ReplicaProfile,
                          now_ms: float) -> PrefillReplicaEntry:
            return prefill_fleet.add(model, profile, platform.prefill_batch,
                                     mean_prompt, now_ms)

        self.ppool = PoolState(self, prefill_fleet, "prefill",
                               platform.prefill_balancer,
                               platform.prefill_autoscaler,
                               (platform.prefill_min, platform.prefill_max),
                               spawn_prefill, platform._scale_out_prefill,
                               ((platform.prefill_model, profile)
                                for profile in platform.prefill_profiles),
                               runtime=tenant_runtime)
        self.dpool = DecodePool(self, "decode", platform.decode_balancer,
                                platform.decode_autoscaler,
                                (platform.decode_min, platform.decode_max),
                                platform._scale_out_decode,
                                zip(platform.decode_engines,
                                    platform.decode_profiles),
                                policy_factory, mean_tokens,
                                platform.kv_capacity, platform.prefill_model,
                                platform.ttft_slo_ms, tenant_runtime)
        self.pools = (self.ppool, self.dpool)
        #: (ready_ms, sequence_id, sample) — KV transfer complete, decodeable.
        self.handoff: List[Tuple[float, int, SequenceSample]] = []
        self.prefill_delays: Dict[int, float] = {}
        self.transfer_delays: Dict[int, float] = {}
        self.arm_faults(platform.faults,
                        lambda fault: (self.ppool if fault.pool == "prefill"
                                       else self.dpool))

    # ------------------------------------------------------------------ gauges
    def sample_gauges(self, now_ms: float) -> None:
        self.ppool.sample_gauges(now_ms)
        self.dpool.sample_gauges(now_ms)
        self.obs.gauge(now_ms, "handoff_pending", len(self.handoff),
                       pool="decode")
        self.sample_tenant_backlog(now_ms)

    # --------------------------------------------------------- kernel contract
    def done(self, now_ms: float) -> bool:
        return not self.handoff and super().done(now_ms)

    def next_external_ms(self, now_ms: float) -> Optional[float]:
        candidate = super().next_external_ms(now_ms)
        if self.handoff and (candidate is None or self.handoff[0][0] < candidate):
            candidate = self.handoff[0][0]
        return candidate

    # ------------------------------------------------------------------- pass
    def step(self, now: float) -> bool:
        ppool = self.ppool
        dpool = self.dpool

        # Phase 1: admit arrivals into the prefill pool.
        self.admit_arrivals(ppool, now)

        # Phase 2: the prefill pool's own autoscaler (queued prompt chunks
        # drive its load signal).
        ppool.scale(now)

        # Phase 3: prefill progress — finish due chunk-batches (pushing
        # their sequences into the handoff queue with the KV-transfer
        # delay) and start new ones on free replicas.
        progressed = self._serve_prefill(now)

        # Phase 4: handoff — transferred sequences route to the decode pool
        # through its own balancer.
        handoff = self.handoff
        moved = 0
        while handoff and handoff[0][0] <= now + 1e-9:
            _, _, sample = heapq.heappop(handoff)
            dpool.route(sample, now).dispatched += 1
            moved += 1
        if moved:
            dpool.autoscaler.observe_admitted(moved, now)
            progressed = True

        # Phase 5: the decode pool's own autoscaler (outstanding decode
        # work drives its load signal, as in the monolithic cluster).
        dpool.scale(now)

        # Phase 6: free decode slots claim queue heads and run the slot
        # loop shared with the monolithic cluster (the decode engines
        # carry no in-slot prefill model — prompts arrive prefilled —
        # and doomed sequences are shed against the TTFT SLO).  The
        # recorded queueing delay spans arrival → first decode step, so
        # the aggregate TTFT includes prefill + transfer + both waits.
        if dpool.serve(now):
            progressed = True

        # Phase 7: drained replicas that have gone idle leave their pool.
        ppool.retire_idle(now)
        dpool.retire_idle(now)
        return progressed

    def _serve_prefill(self, now: float) -> bool:
        progressed = False
        handoff = self.handoff
        prefill_delays = self.prefill_delays
        transfer_delays = self.transfer_delays
        obs = self.obs
        ppool = self.ppool
        for entry in ppool.drain_dirty():
            if entry.in_flight and entry.busy_until_ms <= now + 1e-9:
                done = entry.busy_until_ms
                for sample in entry.in_flight:
                    transfer = entry.model.transfer_ms(sample.prompt_tokens)
                    prefill_delays[sample.sequence_id] = done - sample.arrival_ms
                    transfer_delays[sample.sequence_id] = transfer
                    heapq.heappush(handoff, (done + transfer,
                                             sample.sequence_id, sample))
                    if obs.enabled:
                        # The transfer ends exactly where the handoff entry
                        # becomes decodeable (same float as the heap key).
                        obs.phase(sample.sequence_id, "kv_transfer", done,
                                  done + transfer, pool="prefill",
                                  replica=entry.replica_id)
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
                if obs.enabled:
                    # ``busy_until_ms`` is the float later recorded into
                    # prefill_delays, so the span ends bit-exactly there.
                    batch_end = entry.busy_until_ms
                    replica = entry.replica_id
                    for sample in batch:
                        obs.phase(sample.sequence_id, "prefill_wait",
                                  sample.arrival_ms, now, pool="prefill",
                                  replica=replica)
                        obs.phase(sample.sequence_id, "prefill", now,
                                  batch_end, pool="prefill", replica=replica)
                if entry.busy_until_ms > now + 1e-9:
                    self.events.push(entry.busy_until_ms, WAKE,
                                     (ppool, entry))
                else:
                    # Degenerate zero-cost chunk: complete it in the next
                    # pass at this same timestamp instead of scheduling.
                    ppool.wake(entry)
                progressed = True
        return progressed
