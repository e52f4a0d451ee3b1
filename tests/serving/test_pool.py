"""Shared pool operations (:mod:`repro.serving.pool`).

Every fleet runner routes, crashes and recovers through one
:class:`~repro.serving.pool.PoolState`, and every pool member implements the
one :class:`~repro.serving.fleet.Replica` protocol.  These tests pin that
contract across the classification pool, the generative decode pool and the
prefill pool; the kernel-equivalence, fault-injection and span-conservation
suites pin the runs built on it.
"""

import numpy as np
import pytest

from repro.generative.decoding import DecodeTimingModel, PrefillModel
from repro.generative.sequences import GenerativeWorkload, SequenceSample
from repro.models.zoo import get_model
from repro.serving.cluster import ClusterPlatform, RoundRobinBalancer
from repro.serving.disagg import DisaggregatedPlatform, PrefillFleetState
from repro.serving.fleet import FleetState, Replica, ReplicaProfile
from repro.serving.generative_cluster import (GenerativeClusterPlatform,
                                              GenerativeFleetState)
from repro.serving.hf_pipelines import (ContinuousBatchingEngine,
                                        VanillaTokenPolicy)
from repro.serving.platform import BatchResult
from repro.serving.request import Request
from repro.serving.tfserve import TFServingPlatform
from repro.workloads.difficulty import InputSample

SPEC = get_model("t5-large")


def _request(i, arrival_ms):
    sample = InputSample(index=i, raw_difficulty=0.3, sharpness=0.05,
                         confidence_shift=0.0)
    return Request(request_id=i, arrival_ms=float(arrival_ms), sample=sample,
                   slo_ms=10_000.0)


def _sequence(i, arrival_ms, tokens=6, prompt=64):
    return SequenceSample(sequence_id=i, arrival_ms=float(arrival_ms),
                          token_difficulty=np.full(tokens, 0.25),
                          token_sharpness=np.full(tokens, 0.05),
                          prompt_tokens=prompt)


def _executor(batch, batch_start_ms):
    return BatchResult(gpu_time_ms=8.0, result_offsets_ms=[8.0] * len(batch))


def _engine():
    return ContinuousBatchingEngine(DecodeTimingModel(SPEC), max_batch_size=2)


def _vanilla(ordinal):
    return VanillaTokenPolicy()


def _classification_member():
    platform = TFServingPlatform(max_batch_size=4)
    entry = FleetState().add(platform, _executor, ReplicaProfile(), 0.0)
    return entry, platform, _request(7, 0.0), 7


def _decode_member():
    engine = _engine()
    entry = GenerativeFleetState().add(engine, VanillaTokenPolicy(),
                                       ReplicaProfile(), 6.0, 0.0)
    return entry, engine, _sequence(7, 0.0), 7


def _prefill_member():
    model = PrefillModel(SPEC)
    entry = PrefillFleetState().add(model, ReplicaProfile(), 2, 64.0, 0.0)
    return entry, model, _sequence(7, 0.0), 7


@pytest.mark.parametrize("make", [_classification_member, _decode_member,
                                  _prefill_member],
                         ids=["classification", "decode", "prefill"])
def test_every_member_type_implements_the_replica_protocol(make):
    entry, hardware, item, item_id = make()
    assert isinstance(entry, Replica)
    assert entry.hardware is hardware
    # An empty, idle member: every load signal reads zero, no KV residency.
    assert entry.queue_length() == 0
    assert entry.jobs_in_system(0.0) == 0
    assert entry.backlog_ms(0.0) == 0.0
    assert entry.work_left_ms(0.0) == 0.0
    assert entry.busy_units(0.0) == 0
    assert not entry.has_work(0.0) and entry.is_idle(0.0)
    assert entry.kv_prefix_hit_tokens(item) == 0
    assert entry.kv_prefix_hit_ms(item) == 0.0
    assert entry.kv_overflow_ms(item, 0.0) == 0.0
    assert entry.max_batch_size >= 1
    assert entry.weight == entry.profile.speed
    # The pool hooks: enqueue, the item's id, and a crash's orphan hand-off.
    entry.enqueue(item)
    assert entry.queue_length() == 1 and entry.jobs_in_system(0.0) == 1
    assert entry.has_work(0.0) and not entry.is_idle(0.0)
    assert entry.work_left_ms(0.0) > 0.0
    assert entry.item_id(item) == item_id
    assert [entry.item_id(i) for i in entry.take_queue()] == [item_id]
    assert entry.queue_length() == 0 and not entry.has_work(0.0)


class _BrokenBalancer(RoundRobinBalancer):
    def choose(self, request, replicas, now_ms):
        return 99


def _run_classification(**pools):
    platforms = [TFServingPlatform(max_batch_size=4) for _ in range(2)]
    cluster = ClusterPlatform(platforms, **pools)
    return cluster.run([_request(i, 5.0 * i) for i in range(40)], _executor)


def _generative_workload(n=40):
    return GenerativeWorkload(name="pool", sequences=[
        _sequence(i, 5.0 * i) for i in range(n)])


def _run_generative(**pools):
    cluster = GenerativeClusterPlatform([_engine(), _engine()], **pools)
    return cluster.run(_generative_workload(), _vanilla)


def _run_disagg(**pools):
    platform = DisaggregatedPlatform(PrefillModel(SPEC),
                                     [_engine(), _engine()],
                                     prefill_replicas=2, **pools)
    return platform.run(_generative_workload(), _vanilla)


@pytest.mark.parametrize("run, balancer_key, pool", [
    (_run_classification, "balancer", "serve"),
    (_run_generative, "balancer", "serve"),
    (_run_disagg, "prefill_balancer", "prefill"),
    (_run_disagg, "decode_balancer", "decode"),
])
def test_out_of_range_choice_is_rejected_naming_the_pool(run, balancer_key,
                                                         pool):
    with pytest.raises(ValueError, match=f"chose replica 99 of 2 in the "
                                         f"{pool} pool"):
        run(**{balancer_key: _BrokenBalancer()})


@pytest.mark.parametrize("run, profiles_key, faults, rollup", [
    (_run_classification, "profiles", "60:40",
     lambda m: (m.replica_uptimes_ms, m.replica_seconds)),
    (_run_generative, "profiles", "60:40",
     lambda m: (m.replica_uptimes_ms, m.replica_seconds)),
    (_run_disagg, "prefill_profiles", "60:40:prefill",
     lambda m: (m.prefill_uptimes_ms, m.prefill_replica_seconds)),
    (_run_disagg, "decode_profiles", "60:40:decode",
     lambda m: (m.replica_uptimes_ms, m.replica_seconds)),
], ids=["classification", "generative", "prefill", "decode"])
def test_recovery_reboots_the_crashed_hardware_and_profile(
        run, profiles_key, faults, rollup):
    # The oldest replica (cost weight 3) crashes; its replacement must come
    # back with the same profile, so the pool bills 3 + 1 + 3 weights.
    profiles = [ReplicaProfile(cost_weight=3.0), ReplicaProfile()]
    metrics = run(**{profiles_key: profiles}, faults=faults)
    assert metrics.crashes == 1 and metrics.recoveries == 1
    uptimes, replica_seconds = rollup(metrics)
    assert len(uptimes) == 3
    expected = sum(w * u for w, u in zip((3.0, 1.0, 3.0), uptimes)) / 1000.0
    assert replica_seconds == pytest.approx(expected)
