"""Shared pool operations (:mod:`repro.serving.pool`).

Every fleet runner routes, crashes and recovers through one
:class:`~repro.serving.pool.PoolState`, which also owns the pool's members,
its fleet-size timeline and its books, and every pool member implements the
one :class:`~repro.serving.fleet.Replica` protocol.  These tests pin that
contract across the classification pool, the generative decode pool and the
prefill pool, and hold a live pool's membership and books to the frozen
fleet classes of ``tests/serving/_seed_loops.py``; the kernel-equivalence,
fault-injection and span-conservation suites pin the runs built on it.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.generative.decoding import DecodeTimingModel, PrefillModel
from repro.generative.sequences import GenerativeWorkload, SequenceSample
from repro.models.zoo import get_model
from repro.obs.recorder import TraceRecorder
from repro.serving.autoscaler import Autoscaler
from repro.serving.cluster import (ClusterPlatform, RoundRobinBalancer,
                                   _ClusterRun)
from repro.serving.disagg import DisaggregatedPlatform, _DisaggRun
from repro.serving.fleet import Replica, ReplicaProfile
from repro.serving.generative_cluster import (GenerativeClusterPlatform,
                                              _GenerativeRun)
from repro.serving.hf_pipelines import (ContinuousBatchingEngine,
                                        VanillaTokenPolicy)
from repro.serving.platform import BatchResult
from repro.serving.request import Request
from repro.serving.tfserve import TFServingPlatform
from repro.workloads.difficulty import InputSample
from tests.serving._seed_loops import FleetState

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
    run = _ClusterRun(ClusterPlatform([platform]), [],
                      lambda ordinal: _executor, 0.0)
    (entry,) = run.pool.entries
    return entry, platform, _request(7, 0.0), 7


def _decode_member():
    engine = _engine()
    run = _GenerativeRun(GenerativeClusterPlatform([engine]), [], _vanilla,
                         6.0, 0.0)
    (entry,) = run.pool.entries
    return entry, engine, _sequence(7, 0.0), 7


def _prefill_member():
    model = PrefillModel(SPEC)
    run = _DisaggRun(DisaggregatedPlatform(model, [_engine()],
                                           prefill_batch=2),
                     [], _vanilla, 6.0, 64.0, 0.0)
    (entry,) = run.ppool.entries
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
    return cluster.run([_request(i, 5.0 * i) for i in range(40)],
                       lambda ordinal: _executor)


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


# ------------------------------------------------ membership and the books

class _Scripted(Autoscaler):
    """Proposes whatever the property sets as ``target``."""

    name = "scripted"

    def __init__(self):
        self.target = 1

    def desired_replicas(self, now_ms, replicas):
        return self.target


_COST = st.sampled_from([0.5, 1.0, 2.0, 3.0])
#: Clock steps: repeated timestamps, steps inside and just past the 1e-9
#: same-timestamp merge of the timeline, and ordinary ones.
_STEP = st.one_of(st.sampled_from([0.0, 5e-10, 1e-9, 2e-9]),
                  st.floats(0.0, 50.0))
_OP = st.tuples(st.sampled_from(["scale", "boot", "crash", "recover",
                                 "busy", "retire"]),
                st.integers(1, 8), _STEP, st.floats(0.5, 100.0))


def _members(entries):
    return [(e.replica_id, e.status, e.retired_ms) for e in entries]


@settings(max_examples=300, deadline=None)
@given(costs=st.lists(_COST, min_size=1, max_size=5),
       ops=st.lists(_OP, max_size=30), end_step=_STEP)
def test_pool_membership_and_books_match_the_frozen_fleet(costs, ops,
                                                          end_step):
    """One random sequence of pool operations on a live pool and on the
    frozen ``FleetState``: boots, multi-member scale-ins at one timestamp,
    crashes and recoveries, busy and idle draining members at retirement,
    repeated timestamps.  Members, timelines, ``fleet_size`` gauge points
    and the closed books must match exactly."""
    profiles = [ReplicaProfile(cost_weight=c) for c in costs]
    autoscaler = _Scripted()
    live_obs = TraceRecorder()
    cluster = ClusterPlatform([TFServingPlatform() for _ in costs],
                              profiles=profiles, autoscaler=autoscaler,
                              min_replicas=1, max_replicas=8,
                              replica_factory=TFServingPlatform,
                              obs=live_obs)
    pool = _ClusterRun(cluster, [], lambda ordinal: _executor, 0.0).pool
    fleet = FleetState()
    fleet.obs = TraceRecorder()
    for profile in profiles:
        fleet.add(TFServingPlatform(), _executor, profile, 0.0)
    stock = []

    now = 0.0
    for op, target, step, span in ops:
        now += step
        if op == "scale":
            autoscaler.target = target
            pool.scale(now)
            active = fleet.active()
            if target < len(active):
                for entry in sorted(active, key=lambda e: -e.replica_id)[
                        :len(active) - target]:
                    fleet.drain(entry, now)
        elif op == "boot" and pool.boots:
            pool.boot(pool.boots[0], now)
            fleet.add(TFServingPlatform(), _executor, ReplicaProfile(), now)
        elif op == "crash":
            pool.crash(SimpleNamespace(down_ms=span), now)
            active = fleet.active()
            if len(active) >= 2:
                victim = min(active, key=lambda e: e.replica_id)
                fleet.drain(victim, now)
                stock.append((victim.platform, victim.profile))
        elif op == "recover" and stock:
            pool.recover(now)
            platform, profile = stock.pop(0)
            fleet.add(platform, _executor, profile, now)
        elif op == "busy":
            # Member ``target - 1`` holds its accelerator until
            # ``now + span``: a busy draining member must not retire.
            if target <= len(pool.entries):
                pool.entries[target - 1].busy_until_ms = now + span
            if target <= len(fleet.entries):
                fleet.entries[target - 1].state.busy_until_ms = now + span
        elif op == "retire":
            pool.retire_idle(now)
            fleet.retire_idle(now)
        assert _members(pool.entries) == _members(fleet.entries)
        assert pool.timeline == fleet.timeline
        assert [e.replica_id for e in pool.active] == \
            [e.replica_id for e in fleet.active()]
        assert [e.replica_id for e in pool.serving] == \
            [e.replica_id for e in fleet.serving()]

    end = now + end_step
    assert pool.books(end) == fleet.books(end)
    assert _members(pool.entries) == _members(fleet.entries)
    assert [g for g in live_obs.gauges if g[1] == "fleet_size"] == \
        fleet.obs.gauges
