"""Tests for the dynamic fleet control plane: autoscaling, heterogeneous
replica profiles, drop salvage, and conservation/determinism under membership
change."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import ClusterSpec, Experiment
from repro.core.pipeline import build_cluster, model_stack
from repro.serving.autoscaler import (AUTOSCALER_NAMES, FixedAutoscaler,
                                      PredictiveAutoscaler, ReactiveAutoscaler,
                                      build_autoscaler,
                                      canonical_autoscaler_name)
from repro.serving.cluster import (ClusterPlatform, LoadBalancer,
                                   ReplicaProfile,
                                   WeightedJoinShortestQueueBalancer,
                                   _ClusterRun)
from repro.serving.fleet import DRAINING, RETIRED, ReplicaEntry
from repro.serving.platform import BatchResult
from repro.serving.request import Request
from repro.serving.tfserve import TFServingPlatform
from repro.workloads.arrivals import diurnal_arrivals
from repro.workloads.difficulty import InputSample
from repro.workloads.video import VideoWorkload, make_video_workload

FAST = settings(max_examples=25, deadline=None)


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


def tf_factory(max_batch_size=4, batch_timeout_ms=2.0, drop_expired=False):
    def factory():
        return TFServingPlatform(max_batch_size=max_batch_size,
                                 batch_timeout_ms=batch_timeout_ms,
                                 drop_expired=drop_expired)
    return factory


def bursty_requests(slo_ms=1000.0):
    """Low rate, a 4x overload burst, low rate again."""
    times = (list(np.arange(0.0, 1000.0, 10.0))
             + list(np.arange(1000.0, 2500.0, 0.5))
             + list(np.arange(2500.0, 3500.0, 10.0)))
    return [make_request(i, float(t), slo_ms=slo_ms)
            for i, t in enumerate(times)]


def elastic_cluster(initial=2, min_replicas=1, max_replicas=6,
                    autoscaler=None, balancer="join_shortest_queue",
                    drop_expired=False, seed=0):
    factory = tf_factory(drop_expired=drop_expired)
    scaler = autoscaler if autoscaler is not None else ReactiveAutoscaler(
        cooldown_ms=300.0, provision_delay_ms=100.0)
    return ClusterPlatform([factory() for _ in range(initial)],
                           balancer=balancer, seed=seed, autoscaler=scaler,
                           min_replicas=min_replicas, max_replicas=max_replicas,
                           replica_factory=factory)


# ------------------------------------------------------------- registry/naming

def test_autoscaler_names_and_aliases():
    assert AUTOSCALER_NAMES == ("none", "predictive", "reactive")
    for name in AUTOSCALER_NAMES:
        assert build_autoscaler(name).name == name
    assert canonical_autoscaler_name("fixed") == "none"
    assert canonical_autoscaler_name("queue") == "reactive"
    assert canonical_autoscaler_name("ewma") == "predictive"
    assert canonical_autoscaler_name(ReactiveAutoscaler()) == "reactive"
    assert build_autoscaler(None).name == "none"
    with pytest.raises(ValueError):
        build_autoscaler("psychic")


def test_autoscaler_constructor_validation():
    with pytest.raises(ValueError):
        ReactiveAutoscaler(scale_out_load=1.0, scale_in_load=2.0)
    with pytest.raises(ValueError):
        ReactiveAutoscaler(step=0)
    with pytest.raises(ValueError):
        PredictiveAutoscaler(alpha=0.0)
    with pytest.raises(ValueError):
        PredictiveAutoscaler(target_utilization=1.5)


def test_cluster_platform_validates_fleet_band():
    factory = tf_factory()
    platforms = [factory(), factory()]
    with pytest.raises(ValueError):
        ClusterPlatform(platforms, min_replicas=0)
    with pytest.raises(ValueError):
        ClusterPlatform(platforms, min_replicas=3)
    with pytest.raises(ValueError):
        ClusterPlatform(platforms, max_replicas=1)
    with pytest.raises(ValueError):   # scale-out without a factory
        ClusterPlatform(platforms, max_replicas=4)
    with pytest.raises(ValueError):   # profile count mismatch
        ClusterPlatform(platforms, profiles=[1.0])


def test_replica_profile_coercion_and_validation():
    assert ReplicaProfile.coerce(2.0).speed == 2.0
    parsed = ReplicaProfile.coerce("1.5:2.5")
    assert parsed.speed == 1.5 and parsed.cost_weight == 2.5
    profiles = ReplicaProfile.parse_list("2,1,0.5:0.6")
    assert [p.speed for p in profiles] == [2.0, 1.0, 0.5]
    assert profiles[2].cost_weight == 0.6
    with pytest.raises(ValueError):
        ReplicaProfile(speed=0.0)
    with pytest.raises(ValueError):
        ReplicaProfile.coerce("fast")
    with pytest.raises(ValueError):
        ReplicaProfile.parse_list("")


# ------------------------------------------------------------- fleet lifecycle

def test_fleet_state_lifecycle_and_accounting():
    factory = tf_factory()
    executor = fixed_time_executor()
    cluster = ClusterPlatform([factory(), factory()],
                              profiles=[ReplicaProfile(),
                                        ReplicaProfile(cost_weight=2.0)])
    pool = _ClusterRun(cluster, [], lambda ordinal: executor, 0.0).pool
    a, b = pool.entries
    assert len(pool.active) == 2
    assert pool.timeline == [(0.0, 2)]

    pool.drain(b, 500.0)
    pool.refresh_active()
    assert b.status == DRAINING
    assert [e.replica_id for e in pool.active] == [a.replica_id]
    assert pool.timeline == [(0.0, 2), (500.0, 1)]

    # Draining with an empty queue and idle accelerator retires immediately.
    pool.retire_idle(600.0)
    assert b.status == RETIRED and b.retired_ms == 600.0
    assert [e.replica_id for e in pool.serving] == [a.replica_id]

    books = pool.books(1000.0)
    assert a.retired_ms == 1000.0
    # a: 1.0s at weight 1; b: 0.6s at weight 2 -> 2.2 weighted seconds.
    assert books["replica_seconds"] == pytest.approx(2.2)
    assert books["replica_active_ms"] == pytest.approx(1600.0)


def test_draining_replica_finishes_work_but_gets_no_new_dispatches():
    class DrainSecondAt(FixedAutoscaler):
        """Scale in by one exactly once, at/after the given time."""
        def __init__(self, at_ms):
            self.at_ms = at_ms
            self.fired = False
        def reset(self):
            self.fired = False
        def desired_replicas(self, now_ms, replicas):
            if not self.fired and now_ms >= self.at_ms:
                self.fired = True
                return len(replicas) - 1
            return len(replicas)

    cluster = elastic_cluster(initial=2, min_replicas=1, max_replicas=2,
                              autoscaler=DrainSecondAt(50.0),
                              balancer="round_robin")
    requests = [make_request(i, float(i)) for i in range(200)]
    metrics = cluster.run(requests, fixed_time_factory())
    # Conservation: the drained replica finished everything it was holding.
    responses = metrics.aggregate().responses
    assert sorted(r.request_id for r in responses) == list(range(200))
    # The drained replica (id 1, the newest) saw traffic before the drain but
    # none after: its dispatch count froze well below an even split.
    assert metrics.dispatch_counts[1] < metrics.dispatch_counts[0]
    assert metrics.fleet_timeline[0][1] == 2
    assert metrics.fleet_timeline[-1][1] == 1
    # Everything dispatched to the drained replica was answered by it.
    assert len(metrics.replicas[1].responses) == metrics.dispatch_counts[1]


def test_reactive_scales_out_under_burst_and_back_in():
    cluster = elastic_cluster(initial=2, min_replicas=2, max_replicas=6)
    metrics = cluster.run(bursty_requests(), fixed_time_factory())
    sizes = [n for _, n in metrics.fleet_timeline]
    assert metrics.peak_replicas() > 2, "burst should trigger scale-out"
    assert sizes[-1] < metrics.peak_replicas(), "lull should trigger scale-in"
    # Replica-seconds undercut an always-peak fleet.
    peak_cost = metrics.peak_replicas() * metrics.makespan_ms / 1000.0
    assert metrics.replica_seconds < peak_cost
    # Conservation across every membership change.
    responses = metrics.aggregate().responses
    assert sorted(r.request_id for r in responses) == \
        list(range(len(bursty_requests())))


def test_predictive_scales_from_arrival_rate():
    scaler = PredictiveAutoscaler(cooldown_ms=300.0, provision_delay_ms=100.0,
                                  service_time_ms=2.0)
    cluster = elastic_cluster(initial=2, min_replicas=2, max_replicas=6,
                              autoscaler=scaler)
    metrics = cluster.run(bursty_requests(), fixed_time_factory())
    assert metrics.peak_replicas() > 2
    responses = metrics.aggregate().responses
    assert sorted(r.request_id for r in responses) == \
        list(range(len(bursty_requests())))


def test_fixed_autoscaler_keeps_fleet_constant():
    cluster = elastic_cluster(initial=3, min_replicas=1, max_replicas=6,
                              autoscaler=FixedAutoscaler())
    metrics = cluster.run(bursty_requests(), fixed_time_factory())
    assert metrics.fleet_timeline == [(0.0, 3)]
    assert metrics.peak_replicas() == 3


def test_identical_seeds_give_identical_fleet_timelines():
    def one_run():
        cluster = elastic_cluster(initial=2, min_replicas=1, max_replicas=6,
                                  balancer="power_of_two_choices", seed=7)
        return cluster.run(bursty_requests(), fixed_time_factory())

    first, second = one_run(), one_run()
    assert first.fleet_timeline == second.fleet_timeline
    assert first.dispatch_counts == second.dispatch_counts
    assert [(r.request_id, r.completion_ms) for r in first.aggregate().responses] \
        == [(r.request_id, r.completion_ms) for r in second.aggregate().responses]


def test_repeated_runs_on_one_cluster_object_are_deterministic():
    """Regression: PowerOfTwoChoicesBalancer.reset() must restore the seed's
    RNG stream (and the autoscaler its decision state), so one cluster object
    can be run repeatedly with identical results."""
    cluster = elastic_cluster(initial=3, min_replicas=1, max_replicas=6,
                              balancer="power_of_two_choices", seed=5)
    requests = bursty_requests()
    first = cluster.run(requests, fixed_time_factory())
    second = cluster.run(requests, fixed_time_factory())
    assert first.dispatch_counts == second.dispatch_counts
    assert first.fleet_timeline == second.fleet_timeline
    assert first.makespan_ms == second.makespan_ms
    assert [(r.request_id, r.completion_ms, r.batch_size)
            for r in first.aggregate().responses] \
        == [(r.request_id, r.completion_ms, r.batch_size)
            for r in second.aggregate().responses]


@FAST
@given(gaps=st.lists(st.floats(0.0, 6.0), min_size=1, max_size=60),
       initial=st.integers(1, 3), seed=st.integers(0, 5),
       drop=st.booleans())
def test_conservation_under_membership_change(gaps, initial, seed, drop):
    """Every admitted request is answered exactly once — completed, dropped
    or rerouted-then-answered — across arbitrary scale-in/out events."""
    arrivals = np.cumsum(np.asarray(gaps, dtype=float))
    requests = [make_request(i, float(arrivals[i]),
                             slo_ms=20.0 if drop else 1e9)
                for i in range(len(arrivals))]
    factory = tf_factory(drop_expired=drop)
    cluster = ClusterPlatform(
        [factory() for _ in range(initial)], balancer="power_of_two_choices",
        seed=seed,
        autoscaler=ReactiveAutoscaler(scale_out_load=1.5, scale_in_load=0.25,
                                      cooldown_ms=5.0, provision_delay_ms=2.0),
        min_replicas=1, max_replicas=initial + 3, replica_factory=factory)
    metrics = cluster.run(requests, fixed_time_factory(gpu_time_ms=5.0))
    agg = metrics.aggregate()
    assert sorted(r.request_id for r in agg.responses) == list(range(len(gaps)))
    dropped = {r.request_id for r in agg.dropped()}
    served = {r.request_id for r in agg.served()}
    assert dropped.isdisjoint(served)
    assert len(dropped) + len(served) == len(gaps)
    assert sum(metrics.dispatch_counts) == len(gaps)


# ----------------------------------------------------------------- salvage

class ProfiledTF(TFServingPlatform):
    """TFServing platform with an exact per-request latency prediction, so
    the salvage ETA math is deterministic in tests."""

    def __init__(self, per_request_ms=30.0, **kwargs):
        super().__init__(**kwargs)
        self.per_request_ms = float(per_request_ms)

    def predicted_batch_time_ms(self, batch_size):
        return self.per_request_ms * batch_size


def test_doomed_request_is_rerouted_to_idle_replica():
    """Replica 0 gets buried under a pile; the pile's tail is doomed there but
    an idle replica can still make the deadline -> reroute, not drop."""
    def platform():
        return ProfiledTF(per_request_ms=30.0, max_batch_size=1,
                          batch_timeout_ms=0.0, drop_expired=True)

    class FirstOnly(LoadBalancer):
        name = "first_only"
        def choose(self, request, replicas, now_ms):
            return 0

    cluster = ClusterPlatform([platform(), platform()], balancer=FirstOnly())
    # 6 requests at t=0 with a 100ms SLO against 30ms batches of one: the
    # fourth request onward cannot finish on replica 0 in time, but the idle
    # replica 1 can take exactly three of them.
    requests = [make_request(i, 0.0, slo_ms=100.0) for i in range(6)]
    metrics = cluster.run(requests, fixed_time_factory(gpu_time_ms=30.0))
    agg = metrics.aggregate()
    assert sorted(r.request_id for r in agg.responses) == list(range(6))
    assert metrics.rerouted == 3
    assert metrics.summary()["rerouted"] == 3.0
    # Salvage converts would-be drops into goodput: every request now meets
    # its SLO instead of half the pile expiring on replica 0.
    in_slo = [r for r in agg.served() if r.latency_ms <= 100.0]
    assert len(in_slo) == 6
    # The rerouted requests actually ran on the second replica.
    assert len(metrics.replicas[1].responses) == metrics.rerouted
    # First-dispatch accounting is unchanged by reroutes.
    assert metrics.dispatch_counts == [6, 0]


def test_draining_replica_salvages_to_the_sole_active_replica():
    """Scale-in to one active replica must not disable salvage: the draining
    replica's doomed backlog moves to the remaining (idle) replica."""
    class DrainFirstDecision(FixedAutoscaler):
        def __init__(self):
            self.fired = False
        def reset(self):
            self.fired = False
        def desired_replicas(self, now_ms, replicas):
            if not self.fired and len(replicas) > 1:
                self.fired = True
                return 1
            return len(replicas)

    def platform():
        return ProfiledTF(per_request_ms=30.0, max_batch_size=1,
                          batch_timeout_ms=0.0, drop_expired=True)

    class LastOnly(LoadBalancer):
        name = "last_only"
        def choose(self, request, replicas, now_ms):
            return len(replicas) - 1

    # All 6 requests land on replica 1, which is immediately drained; half of
    # its backlog is doomed there but fits on the idle replica 0.
    cluster = ClusterPlatform([platform(), platform()], balancer=LastOnly(),
                              autoscaler=DrainFirstDecision(), min_replicas=1,
                              max_replicas=2, replica_factory=platform)
    requests = [make_request(i, 0.0, slo_ms=100.0) for i in range(6)]
    metrics = cluster.run(requests, fixed_time_factory(gpu_time_ms=30.0))
    agg = metrics.aggregate()
    assert sorted(r.request_id for r in agg.responses) == list(range(6))
    assert metrics.rerouted == 3
    assert len([r for r in agg.served() if r.latency_ms <= 100.0]) == 6


def test_reactive_by_name_scales_on_slo_headroom():
    """Name-based construction ('reactive' through ClusterSpec / the CLI)
    must thread the run's SLO into the headroom signal."""
    from repro.core.pipeline import _resolve_autoscaler
    scaler = _resolve_autoscaler("reactive", 50.0)
    assert isinstance(scaler, ReactiveAutoscaler)
    assert scaler.slo_ms == 50.0
    assert _resolve_autoscaler("none", 50.0).name == "none"
    passthrough = ReactiveAutoscaler(slo_ms=9.0)
    assert _resolve_autoscaler(passthrough, 50.0) is passthrough
    assert _resolve_autoscaler(None, 50.0) is None


def test_dispatch_imbalance_normalizes_by_replica_uptime():
    from repro.serving.metrics import ClusterMetrics, ServingMetrics
    # 90 dispatches over a full 1000ms run vs 10 over a late 111ms lifetime:
    # equal rates, so an elastic fleet under fair balancing reads ~1.0 ...
    elastic = ClusterMetrics(replicas=[ServingMetrics(), ServingMetrics()],
                             dispatch_counts=[90, 10], makespan_ms=1000.0,
                             replica_uptimes_ms=[1000.0, 1000.0 / 9.0])
    assert elastic.dispatch_imbalance() == pytest.approx(1.0)
    # ... while equal uptimes reduce to the classic max/mean count ratio.
    fixed = ClusterMetrics(replicas=[ServingMetrics(), ServingMetrics()],
                           dispatch_counts=[75, 25], makespan_ms=1000.0,
                           replica_uptimes_ms=[1000.0, 1000.0])
    assert fixed.dispatch_imbalance() == pytest.approx(1.5)
    legacy = ClusterMetrics(replicas=[ServingMetrics(), ServingMetrics()],
                            dispatch_counts=[75, 25], makespan_ms=1000.0)
    assert legacy.dispatch_imbalance() == pytest.approx(1.5)


def test_no_reroutes_without_drop_expired():
    cluster = elastic_cluster(initial=2, min_replicas=2, max_replicas=2,
                              autoscaler=FixedAutoscaler(), drop_expired=False)
    metrics = cluster.run(bursty_requests(slo_ms=15.0), fixed_time_factory())
    assert metrics.rerouted == 0


# ---------------------------------------------------- heterogeneous replicas

def test_weighted_round_robin_dispatches_proportional_to_speed():
    factory = tf_factory()
    cluster = ClusterPlatform([factory(), factory(), factory()],
                              balancer="weighted_round_robin",
                              profiles=[2.0, 1.0, 1.0])
    requests = [make_request(i, float(i)) for i in range(400)]
    metrics = cluster.run(requests, fixed_time_factory())
    counts = metrics.dispatch_counts
    assert counts[0] == pytest.approx(200, abs=2)
    assert counts[1] == pytest.approx(100, abs=2)
    assert counts[2] == pytest.approx(100, abs=2)


def test_weighted_jsq_normalizes_by_speed():
    fast = TFServingPlatform(max_batch_size=4)
    slow = TFServingPlatform(max_batch_size=4)
    handles = [ReplicaEntry(0, fast, None, ReplicaProfile(speed=2.0)),
               ReplicaEntry(1, slow, None, ReplicaProfile(speed=1.0))]
    # 3 jobs on the 2x replica weigh 1.5; 2 jobs on the 1x replica weigh 2.
    for i in range(3):
        fast.admit(handles[0], make_request(i, 0.0))
    for i in range(3, 5):
        slow.admit(handles[1], make_request(i, 0.0))
    balancer = WeightedJoinShortestQueueBalancer()
    assert balancer.choose(make_request(9, 0.0), handles, 0.0) == 0


def test_scaled_latency_profile_divides_node_latencies(resnet50_stack):
    _spec, profile, *_rest = resnet50_stack
    fast = profile.scaled(2.0)
    assert fast.total_latency_ms(1) == pytest.approx(profile.total_latency_ms(1) / 2)
    assert fast.total_latency_ms(8) == pytest.approx(profile.total_latency_ms(8) / 2)
    assert np.allclose(fast.cumulative_fraction, profile.cumulative_fraction)
    assert profile.scaled(1.0) is profile
    with pytest.raises(ValueError):
        profile.scaled(0.0)


def test_heterogeneous_fleet_least_work_left_beats_unweighted_round_robin():
    """Acceptance: a 2x-fast/2x-slow fleet under least_work_left must beat
    unweighted round_robin on p99 — RR sends the slow replicas an equal share
    and their queues snowball; least_work_left prices them correctly."""
    workload = make_video_workload("urban-day", num_frames=2500, fps=150.0,
                                   seed=3)
    profiles = [2.0, 2.0, 0.5, 0.5]
    rr, lwl = (
        Experiment(model="resnet50", workload=workload, drop_expired=False,
                   cluster=ClusterSpec(replicas=4, balancer=balancer,
                                       profiles=profiles))
        .run(["vanilla"]).result("vanilla").raw
        for balancer in ("round_robin", "least_work_left"))
    assert sorted(r.request_id for r in rr.aggregate().responses) \
        == sorted(r.request_id for r in lwl.aggregate().responses)
    assert lwl.aggregate().p99_latency() < rr.aggregate().p99_latency()


def test_speed_scaling_shortens_actual_service_time(resnet50_stack):
    """A 2x replica must genuinely finish batches in half the time: executor
    results are scaled by the replica's speed in the cluster loop."""
    _spec, profile, *_rest = resnet50_stack
    fast = build_cluster("clockwork", profile, 1, profiles=[2.0])
    base = build_cluster("clockwork", profile, 1)
    workload = make_video_workload("urban-day", num_frames=300, fps=30.0, seed=1)
    from repro.core.pipeline import _workload_requests, model_stack
    from repro.serving.platform import VanillaExecutor
    executor = VanillaExecutor(model_stack("resnet50", seed=0)[-1])
    requests = _workload_requests(workload, 1e9)
    fast_metrics = fast.run(requests, lambda ordinal: executor)
    base_metrics = base.run(requests, lambda ordinal: executor)
    fast_serving = np.median([r.serving_ms for r in fast_metrics.aggregate().served()])
    base_serving = np.median([r.serving_ms for r in base_metrics.aggregate().served()])
    assert fast_serving == pytest.approx(base_serving / 2, rel=0.05)


# -------------------------------------------------------------- API surface

def test_cluster_spec_validates_fleet_fields():
    from repro.api import ClusterSpec
    spec = ClusterSpec(replicas=2, autoscaler="reactive")
    assert spec.resolved_min_replicas() == 1
    assert spec.resolved_max_replicas() == 4
    fixed = ClusterSpec(replicas=3)
    assert fixed.resolved_min_replicas() == 3
    assert fixed.resolved_max_replicas() == 3
    parsed = ClusterSpec(replicas=2, profiles="2.0,0.5:0.6")
    assert [p.speed for p in parsed.profiles] == [2.0, 0.5]
    assert parsed.describe()["profiles"][1] == {"speed": 0.5, "cost_weight": 0.6}
    with pytest.raises(ValueError):
        ClusterSpec(replicas=2, autoscaler="psychic")
    with pytest.raises(ValueError):
        ClusterSpec(replicas=2, min_replicas=3)
    with pytest.raises(ValueError):
        ClusterSpec(replicas=2, max_replicas=1)
    with pytest.raises(ValueError):
        ClusterSpec(replicas=2, profiles="2.0")


def test_cluster_spec_rejects_non_positive_profile_multipliers():
    """Zero/negative/non-finite speed or cost multipliers must die at the
    ClusterSpec boundary (naming the value), so the weighted balancers can
    never divide by zero or invert priorities on a degenerate profile."""
    from repro.api import ClusterSpec
    with pytest.raises(ValueError, match="0"):
        ClusterSpec(replicas=2, profiles="0,1")
    with pytest.raises(ValueError, match="-2"):
        ClusterSpec(replicas=2, profiles=[1.0, -2.0])
    with pytest.raises(ValueError, match="-0.5"):
        ClusterSpec(replicas=2, profiles="1:-0.5,1")
    with pytest.raises(ValueError, match="inf"):
        ClusterSpec(replicas=2, profiles=[float("inf"), 1.0])
    with pytest.raises(ValueError, match="nan"):
        ClusterSpec(replicas=2, profiles="nan,1")
    with pytest.raises(ValueError):
        ReplicaProfile(speed=1.0, cost_weight=float("nan"))


def test_experiment_reports_fleet_timeline_and_replica_seconds():
    workload = VideoWorkload(
        name="diurnal", fps=30.0,
        trace=make_video_workload("urban-day", num_frames=1500, seed=2).trace,
        arrival_times_ms=diurnal_arrivals(1500, 20.0, 220.0, period_s=10.0))
    experiment = Experiment(
        model="resnet50", workload=workload,
        cluster=ClusterSpec(replicas=2, autoscaler="reactive",
                            min_replicas=1, max_replicas=5),
        drop_expired=False, seed=0)
    result = experiment.run(["vanilla"]).result("vanilla")
    assert result.summary["replica_seconds"] > 0
    assert result.summary["peak_replicas"] >= 2
    timeline = result.details["fleet_timeline"]
    assert timeline[0][1] == 2
    assert len(timeline) > 1, "the diurnal trace should change the fleet size"
    payload = result.to_json()
    assert payload["details"]["fleet_timeline"] == timeline
