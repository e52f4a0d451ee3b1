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
helper methods: executor resolution, scale-out hardware, salvage,
collection), so configuration handling cannot drift; only the *scheduling*
differs.

Do not use these for real runs — they are the slow path by design — and do
not "fix" them to match kernel behaviour: when the two disagree, the kernel
is wrong.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.baselines.free import FreeTokenPolicy, calibrate_free_policy
from repro.baselines.oracle import OracleTokenPolicy
from repro.core.generative import ApparateTokenPolicy, generative_ramp_depths
from repro.exits.ramps import RampStyle, ramp_overhead_fraction
from repro.generative.decoding import DecodeTimingModel
from repro.models.prediction import PredictionModel
from repro.serving.cluster import ClusterPlatform, _scale_result
from repro.serving.fleet import DRAINING, FleetState
from repro.serving.generative_cluster import (GenerativeClusterMetrics,
                                              GenerativeClusterPlatform,
                                              GenerativeFleetState,
                                              PolicyFactory)
from repro.serving.hf_pipelines import (ContinuousBatchingEngine,
                                        GenerativeMetrics, TokenExitPolicy,
                                        VanillaTokenPolicy)
from repro.serving.metrics import ClusterMetrics, ServingMetrics
from repro.serving.platform import BatchExecutorFn, ServingPlatform
from repro.serving.request import Request

__all__ = ["seed_cluster_run", "seed_generative_run", "seed_disagg_run",
           "seed_platform_run", "seed_engine_run", "seed_engine_system"]


def seed_platform_run(platform: ServingPlatform, requests: Sequence[Request],
                      executor: BatchExecutorFn) -> ServingMetrics:
    """The single-replica ``ServingPlatform.run`` loop, verbatim."""
    self = platform
    state = self.new_state()
    pending = sorted(requests, key=lambda r: (r.arrival_ms, r.request_id))
    num_requests = len(pending)
    if num_requests == 0:
        return state.metrics

    next_arrival = 0
    now = pending[0].arrival_ms

    while next_arrival < num_requests or state.queue:
        # Admit everything that has arrived by now.
        while next_arrival < num_requests and pending[next_arrival].arrival_ms <= now + 1e-9:
            self.admit(state, pending[next_arrival])
            next_arrival += 1

        if not state.queue:
            now = pending[next_arrival].arrival_ms
            continue

        self.expire(state, now)
        if not state.queue:
            continue

        batch, wake_up = self.select(state, now)
        if not batch:
            # The policy wants to wait for more requests (or a timeout).
            next_event = pending[next_arrival].arrival_ms if next_arrival < num_requests else np.inf
            target = min(wake_up, next_event)
            if not np.isfinite(target) or target <= now + 1e-9:
                # Nothing left to wait for: force progress with what we have.
                batch = self.force_batch(state)
            else:
                now = target
                continue

        self.dispatch(state, batch)
        result = executor(batch, now)
        self.complete(state, batch, result, now)
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


def seed_cluster_run(cluster: ClusterPlatform, requests: Sequence[Request],
                     executors: Union[BatchExecutorFn,
                                      Sequence[BatchExecutorFn], None] = None,
                     executor_factory: Optional[Callable[[int], BatchExecutorFn]]
                     = None) -> ClusterMetrics:
    """The pre-kernel ``ClusterPlatform.run`` loop, verbatim."""
    self = cluster
    factory = self._executor_factory(executors, executor_factory)
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
        return self._collect(fleet, start, start, rerouted=0)

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
                              self.scale_out_profile, now)

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
            entry.platform.admit(entry.state, request)
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
            rerouted += self._salvage_doomed(fleet, active, now,
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
            platform.expire(state, now)
            if not state.queue:
                continue
            batch, wake_up = platform.select(state, now)
            if not batch:
                target = min(wake_up, next_arrival_ms)
                if not np.isfinite(target) or target <= now + 1e-9:
                    batch = platform.force_batch(state)
                else:
                    wake_times.append(wake_up)
                    continue
            platform.dispatch(state, batch)
            result = _scale_result(entry.executor(batch, now),
                                   entry.profile.speed)
            platform.complete(state, batch, result, now)
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
    return self._collect(fleet, start, last_event, rerouted)


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
        return self._collect(fleet, start, start)

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
                              self.scale_out_profile, mean_tokens, now)

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
    return self._collect(fleet, start, end)


def seed_disagg_run(platform, workload, policy_factory: PolicyFactory):
    """The pre-kernel ``DisaggregatedPlatform.run`` loop, verbatim."""
    from repro.generative.sequences import SequenceSample
    from repro.serving.disagg import PrefillFleetState

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
