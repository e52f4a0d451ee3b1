"""Tests for the multi-replica cluster platform and its load balancers."""

import numpy as np
import pytest

from repro.core.controller import ApparateController
from repro.core.pipeline import ApparateExecutor, build_platform
from repro.serving.cluster import (BALANCER_NAMES, ClusterPlatform,
                                   JoinShortestQueueBalancer,
                                   LeastWorkLeftBalancer,
                                   PowerOfTwoChoicesBalancer,
                                   RoundRobinBalancer, balancer_names,
                                   build_balancer)
from repro.serving.fleet import ReplicaEntry, ReplicaProfile
from repro.serving.platform import BatchResult, ServingPlatform, VanillaExecutor
from repro.serving.request import Request, make_requests
from repro.serving.tfserve import TFServingPlatform
from repro.workloads.difficulty import DifficultyTrace, InputSample
from repro.workloads.video import make_video_workload
from tests.serving._seed_loops import seed_platform_run


def sample(i):
    return InputSample(index=i, raw_difficulty=0.3, sharpness=0.05,
                       confidence_shift=0.0)


def make_request(request_id, arrival_ms, slo_ms=1000.0):
    return Request(request_id=request_id, arrival_ms=arrival_ms,
                   sample=sample(request_id), slo_ms=slo_ms)


def fixed_time_executor(gpu_time_ms=8.0):
    def executor(batch, batch_start_ms):
        return BatchResult(gpu_time_ms=gpu_time_ms,
                           result_offsets_ms=[gpu_time_ms] * len(batch))
    return executor


def fixed_time_factory(gpu_time_ms=8.0):
    """Every replica shares one stateless fixed-time executor."""
    executor = fixed_time_executor(gpu_time_ms)
    return lambda ordinal: executor


def make_cluster(n, balancer, max_batch_size=4, batch_timeout_ms=0.0, seed=0):
    replicas = [TFServingPlatform(max_batch_size=max_batch_size,
                                  batch_timeout_ms=batch_timeout_ms)
                for _ in range(n)]
    return ClusterPlatform(replicas, balancer=balancer, seed=seed)


def paced(n, gap_ms=1.0):
    return [make_request(i, i * gap_ms) for i in range(n)]


# ------------------------------------------------------------------- balancers

def test_build_balancer_names_and_aliases():
    for name in BALANCER_NAMES:
        assert build_balancer(name).name == name
    assert build_balancer("jsq").name == "join_shortest_queue"
    assert build_balancer("p2c").name == "power_of_two_choices"
    assert build_balancer("rr").name == "round_robin"
    assert build_balancer("lwl").name == "least_work_left"
    with pytest.raises(ValueError):
        build_balancer("random-nonsense")


def test_build_balancer_passes_instances_through():
    balancer = RoundRobinBalancer()
    assert build_balancer(balancer) is balancer


def _handles(platforms):
    return [ReplicaEntry(i, p, None, ReplicaProfile())
            for i, p in enumerate(platforms)]


def test_round_robin_cycles():
    platforms = [TFServingPlatform(max_batch_size=4) for _ in range(3)]
    handles = _handles(platforms)
    balancer = RoundRobinBalancer()
    request = make_request(0, 0.0)
    picks = [balancer.choose(request, handles, 0.0) for _ in range(6)]
    assert picks == [0, 1, 2, 0, 1, 2]
    balancer.reset()
    assert balancer.choose(request, handles, 0.0) == 0


def test_jsq_prefers_emptiest_replica_counting_in_flight():
    platforms = [TFServingPlatform(max_batch_size=4) for _ in range(2)]
    handles = _handles(platforms)
    # Replica 0: empty queue but a 4-request batch on the accelerator until t=50.
    handles[0].busy_until_ms = 50.0
    handles[0].serving_batch_size = 4
    # Replica 1: one queued request, idle accelerator.
    platforms[1].admit(handles[1], make_request(7, 0.0))
    balancer = JoinShortestQueueBalancer()
    assert balancer.choose(make_request(8, 10.0), handles, 10.0) == 1
    # Once the in-flight batch finishes, replica 0 is genuinely emptier.
    assert balancer.choose(make_request(9, 60.0), handles, 60.0) == 0


def test_least_work_left_uses_backlog_and_profile(resnet50_stack):
    _spec, profile, _pred, _cat, _exec = resnet50_stack
    platforms = [TFServingPlatform(max_batch_size=4, profile=profile)
                 for _ in range(2)]
    handles = _handles(platforms)
    # Replica 0: short queue but a huge accelerator backlog.
    handles[0].busy_until_ms = 500.0
    platforms[0].admit(handles[0], make_request(1, 0.0))
    # Replica 1: longer queue, idle accelerator -> less total work.
    for i in range(2, 5):
        platforms[1].admit(handles[1], make_request(i, 0.0))
    balancer = LeastWorkLeftBalancer()
    assert balancer.choose(make_request(9, 0.0), handles, 0.0) == 1
    assert handles[0].work_left_ms(0.0) > handles[1].work_left_ms(0.0)


def test_work_left_falls_back_to_queue_length_without_profile():
    platform = TFServingPlatform(max_batch_size=4)  # no profile
    handle = ReplicaEntry(0, platform, None, ReplicaProfile())
    for i in range(3):
        platform.admit(handle, make_request(i, 0.0))
    assert handle.work_left_ms(0.0) == pytest.approx(3.0)


def test_power_of_two_choices_is_seed_deterministic():
    requests = paced(200)
    first = make_cluster(4, "power_of_two_choices", seed=5).run(
        requests, fixed_time_factory())
    second = make_cluster(4, "power_of_two_choices", seed=5).run(
        requests, fixed_time_factory())
    assert first.dispatch_counts == second.dispatch_counts
    other = make_cluster(4, "power_of_two_choices", seed=6).run(
        requests, fixed_time_factory())
    # A different seed is allowed to (and here does) pick differently.
    assert sum(other.dispatch_counts) == 200


# -------------------------------------------------------------------- cluster

def test_cluster_requires_at_least_one_replica():
    with pytest.raises(ValueError):
        ClusterPlatform([], balancer="round_robin")


def _assert_same_run(fleet, alone, case=None):
    agg = fleet.aggregate()
    assert agg.responses == alone.responses, case
    assert agg.num_batches == alone.num_batches, case
    assert agg.summary() == alone.summary(), case
    assert fleet.makespan_ms == alone.makespan_ms, case


def test_single_replica_cluster_matches_standalone_run(resnet50_stack):
    """A one-replica cluster is the pre-fleet single-platform loop, exactly:
    for a fixed-time executor, and for the vanilla and Apparate executors
    with expiry shedding on and off, under and (on tfserve) over capacity.

    Vanilla on clockwork above capacity is left out on purpose: the loop's
    ``now += gpu_time_ms`` accumulates rounding error, so a request whose
    deadline equals a later arrival instant is dropped by the loop but
    served by the kernel, whose batch starts at that instant exactly.
    """
    requests = paced(40, gap_ms=2.0)
    alone = seed_platform_run(
        TFServingPlatform(max_batch_size=4, batch_timeout_ms=0.0), requests,
        fixed_time_executor())
    fleet = make_cluster(1, "round_robin").run(requests, fixed_time_factory())
    _assert_same_run(fleet, alone)

    spec, profile, _prediction, catalog, executor = resnet50_stack
    for platform, fps in (("clockwork", 30.0), ("tfserve", 30.0),
                          ("tfserve", 300.0)):
        workload = make_video_workload("urban-day", num_frames=400, fps=fps,
                                       seed=3)
        requests = make_requests(workload.trace, workload.arrival_times_ms,
                                 spec.default_slo_ms)
        for drop_expired in (True, False):
            for system in ("vanilla", "apparate"):
                def replica():
                    return build_platform(platform, profile,
                                          drop_expired=drop_expired)

                def batch_executor():
                    if system == "vanilla":
                        return VanillaExecutor(executor)
                    return ApparateExecutor(
                        executor, ApparateController(spec, catalog, profile))

                fleet = ClusterPlatform([replica()]).run(
                    requests, lambda ordinal: batch_executor())
                alone = seed_platform_run(replica(), requests,
                                          batch_executor())
                _assert_same_run(fleet, alone,
                                 (platform, fps, drop_expired, system))


@pytest.mark.parametrize("balancer",
                         sorted(balancer_names("classification")))
def test_every_balancer_serves_every_request_once(balancer):
    requests = paced(120, gap_ms=0.5)
    fleet = make_cluster(3, balancer).run(requests, fixed_time_factory())
    responses = fleet.aggregate().responses
    assert sorted(r.request_id for r in responses) == list(range(120))
    assert sum(fleet.dispatch_counts) == 120


def test_round_robin_dispatch_counts_are_even():
    fleet = make_cluster(4, "round_robin").run(paced(100), fixed_time_factory())
    assert fleet.dispatch_counts == [25, 25, 25, 25]
    assert fleet.dispatch_imbalance() == pytest.approx(1.0)


def test_parallel_replicas_shorten_makespan():
    requests = [make_request(i, 0.0) for i in range(64)]
    one = make_cluster(1, "round_robin").run(requests, fixed_time_factory())
    four = make_cluster(4, "round_robin").run(requests, fixed_time_factory())
    assert len(four.aggregate().served()) == 64
    assert four.makespan_ms < one.makespan_ms
    assert four.fleet_throughput_qps() > one.fleet_throughput_qps() * 2


def test_cluster_with_no_requests():
    fleet = make_cluster(2, "round_robin").run([], fixed_time_factory())
    assert fleet.aggregate().responses == []
    assert fleet.dispatch_counts == [0, 0]


def test_cluster_per_replica_executors_receive_only_their_traffic():
    seen = [[], []]

    def recording_executor(index):
        def executor(batch, batch_start_ms):
            seen[index].extend(r.request_id for r in batch)
            return BatchResult(gpu_time_ms=4.0, result_offsets_ms=[4.0] * len(batch))
        return executor

    fleet = make_cluster(2, "round_robin").run(paced(20), recording_executor)
    assert sorted(seen[0] + seen[1]) == list(range(20))
    assert len(seen[0]) == fleet.dispatch_counts[0]
    assert len(seen[1]) == fleet.dispatch_counts[1]
    # Round robin alternates, so replica 0 gets the even dispatch positions.
    assert set(seen[0]).isdisjoint(seen[1])


def test_cluster_drop_expired_accounts_every_request_once():
    replicas = [TFServingPlatform(max_batch_size=1, batch_timeout_ms=0.0,
                                  drop_expired=True) for _ in range(2)]
    cluster = ClusterPlatform(replicas, balancer="round_robin")
    # 2 replicas x 1-request batches of 50ms against a 10ms SLO and arrivals
    # every 1ms: most requests must expire in queue.
    requests = [make_request(i, float(i), slo_ms=10.0) for i in range(60)]
    fleet = cluster.run(requests, fixed_time_factory(gpu_time_ms=50.0))
    responses = fleet.aggregate().responses
    assert sorted(r.request_id for r in responses) == list(range(60))
    dropped = {r.request_id for r in responses if r.dropped}
    served = {r.request_id for r in responses if not r.dropped}
    assert dropped and served
    assert dropped.isdisjoint(served)


def test_balancer_choosing_out_of_range_replica_is_rejected():
    class BrokenBalancer(RoundRobinBalancer):
        def choose(self, request, replicas, now_ms):
            return 99

    cluster = make_cluster(2, BrokenBalancer())
    with pytest.raises(ValueError):
        cluster.run(paced(4), fixed_time_factory())
