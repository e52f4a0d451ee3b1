"""The discrete-event kernel must reproduce the seed loops bit-for-bit.

The three serving platforms (classification cluster, generative cluster,
prefill/decode disaggregation) run on the shared heap-scheduled kernel in
:mod:`repro.serving.kernel`.  ``tests/serving/_seed_loops.py`` preserves the
pre-kernel O(replicas)-per-timestamp rescan loops as executable
specifications; these tests drive both implementations over the same
scenarios — every balancer, heterogeneous profiles, both autoscalers with
boot/drain churn, SLO drops with salvage rerouting, TTFT shedding — and
require every recorded metric to match exactly.  When the two disagree, the
kernel is wrong.

Also here: regression tests for the autoscaler fixes that shipped with the
kernel (predictive EWMA decay during arrival lulls, reactive cooldown not
burned on clamped no-op proposals at the replica band edge) and for
scaled-out disaggregated replicas cycling the configured profile band.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.generative import (build_disaggregated_platform,
                                   build_generative_cluster)
from repro.generative.sequences import GenerativeWorkload, SequenceSample
from repro.models.zoo import get_model
from repro.serving.autoscaler import (Autoscaler, PredictiveAutoscaler,
                                      ReactiveAutoscaler)
from repro.serving.cluster import ClusterPlatform
from repro.serving.disagg import _DisaggRun
from repro.serving.hf_pipelines import VanillaTokenPolicy
from repro.serving.platform import BatchResult
from repro.serving.request import Request
from repro.serving.tfserve import TFServingPlatform
from repro.workloads.difficulty import InputSample
from tests.serving._seed_loops import (seed_cluster_run, seed_disagg_run,
                                       seed_generative_run)

SPEC = get_model("t5-large")
FAST = settings(max_examples=10, deadline=None)


# ------------------------------------------------------------- classification

def make_request(request_id, arrival_ms, slo_ms=1000.0):
    sample = InputSample(index=request_id, raw_difficulty=0.3, sharpness=0.05,
                         confidence_shift=0.0)
    return Request(request_id=request_id, arrival_ms=arrival_ms,
                   sample=sample, slo_ms=slo_ms)


def fixed_time_executor(gpu_time_ms=8.0):
    def executor(batch, batch_start_ms):
        return BatchResult(gpu_time_ms=gpu_time_ms,
                           result_offsets_ms=[gpu_time_ms] * len(batch))
    return executor


def zero_time_executor(batch, batch_start_ms):
    return BatchResult(gpu_time_ms=0.0, result_offsets_ms=[0.0] * len(batch))


def arrivals_random(n, qps, seed, slo_ms=1000.0):
    rng = np.random.default_rng(seed)
    t = np.cumsum(rng.exponential(1000.0 / qps, size=n))
    return [make_request(i, float(t[i]), slo_ms) for i in range(n)]


def assert_cluster_equal(a, b):
    assert a.makespan_ms == b.makespan_ms
    assert a.rerouted == b.rerouted
    assert a.dispatch_counts == b.dispatch_counts
    assert a.fleet_timeline == b.fleet_timeline
    assert a.replica_seconds == b.replica_seconds
    assert a.replica_active_ms == b.replica_active_ms
    assert a.replica_uptimes_ms == b.replica_uptimes_ms
    assert len(a.replicas) == len(b.replicas)
    for ra, rb in zip(a.replicas, b.replicas):
        assert ra.gpu_busy_ms == rb.gpu_busy_ms
        assert ra.makespan_ms == rb.makespan_ms
        assert ra.num_batches == rb.num_batches
        assert ra.responses == rb.responses


def check_cluster(cluster_fn, requests, executors=None, executor_factory=None):
    seed_m = seed_cluster_run(cluster_fn(), requests, executors,
                              executor_factory)
    kern_m = cluster_fn().run(requests, executors, executor_factory)
    assert_cluster_equal(seed_m, kern_m)


@pytest.mark.parametrize("balancer", ["round_robin", "weighted_round_robin",
                                      "join_shortest_queue", "least_work_left",
                                      "power_of_two_choices"])
def test_cluster_static_fleet_matches_seed(balancer):
    check_cluster(
        lambda: ClusterPlatform(
            [TFServingPlatform(max_batch_size=8, batch_timeout_ms=4.0)
             for _ in range(4)], balancer=balancer, seed=3),
        arrivals_random(400, 400.0, seed=1), fixed_time_executor())


def test_cluster_zero_time_batches_match_seed():
    # gpu_time 0 with timeout 0: completions land at the current timestamp
    # and must re-run the pass instead of scheduling a past event.
    reqs = [make_request(i, 25.0 * (i // 7)) for i in range(150)]
    check_cluster(
        lambda: ClusterPlatform(
            [TFServingPlatform(max_batch_size=4, batch_timeout_ms=0.0)
             for _ in range(3)], balancer="jsq"),
        reqs, zero_time_executor)


def test_cluster_heterogeneous_profiles_match_seed():
    def sized_executor(batch, batch_start_ms):
        t = 2.0 * len(batch)
        return BatchResult(gpu_time_ms=t, result_offsets_ms=[t] * len(batch))
    check_cluster(
        lambda: ClusterPlatform(
            [TFServingPlatform(max_batch_size=8, batch_timeout_ms=2.0)
             for _ in range(3)], balancer="wrr", profiles=[2.0, 1.0, "0.5:0.7"]),
        arrivals_random(400, 300.0, seed=7), sized_executor)


def test_cluster_reactive_churn_matches_seed():
    def cluster():
        return ClusterPlatform(
            [TFServingPlatform(max_batch_size=8, batch_timeout_ms=4.0)
             for _ in range(2)],
            balancer="lwl",
            autoscaler=ReactiveAutoscaler(scale_out_load=3.0,
                                          scale_in_load=0.5,
                                          cooldown_ms=200.0,
                                          provision_delay_ms=50.0),
            min_replicas=1, max_replicas=6,
            replica_factory=lambda: TFServingPlatform(max_batch_size=8,
                                                      batch_timeout_ms=4.0))
    # A burst then a trickle forces boots, drains and retires.
    reqs = arrivals_random(1000, 900.0, seed=11) + \
        [make_request(10_000 + i, 2000.0 + 40.0 * i) for i in range(40)]
    check_cluster(cluster, sorted(reqs, key=lambda r: r.arrival_ms),
                  fixed_time_executor())


def test_cluster_predictive_churn_matches_seed():
    def cluster():
        return ClusterPlatform(
            [TFServingPlatform(max_batch_size=8, batch_timeout_ms=4.0)
             for _ in range(2)],
            balancer="rr",
            autoscaler=PredictiveAutoscaler(window_ms=100.0, cooldown_ms=150.0,
                                            provision_delay_ms=30.0,
                                            service_time_ms=8.0),
            min_replicas=1, max_replicas=5,
            replica_factory=lambda: TFServingPlatform(max_batch_size=8,
                                                      batch_timeout_ms=4.0))
    check_cluster(cluster, arrivals_random(1200, 700.0, seed=13),
                  fixed_time_executor())


def test_cluster_drops_and_salvage_match_seed():
    def cluster():
        return ClusterPlatform(
            [TFServingPlatform(max_batch_size=4, batch_timeout_ms=3.0,
                               drop_expired=True) for _ in range(3)],
            balancer="round_robin",
            autoscaler=ReactiveAutoscaler(scale_out_load=2.0,
                                          scale_in_load=0.4,
                                          cooldown_ms=100.0,
                                          provision_delay_ms=20.0),
            min_replicas=1, max_replicas=6,
            replica_factory=lambda: TFServingPlatform(max_batch_size=4,
                                                      batch_timeout_ms=3.0,
                                                      drop_expired=True))
    # Tight SLOs so expiry, drops and drain-salvage rerouting all fire.
    check_cluster(cluster, arrivals_random(800, 800.0, seed=17, slo_ms=40.0),
                  fixed_time_executor(9.0))


@FAST
@given(st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.integers(min_value=1, max_value=4),
       st.sampled_from(["rr", "jsq", "lwl", "wrr"]))
def test_cluster_equivalence_property(seed, replicas, balancer):
    check_cluster(
        lambda: ClusterPlatform(
            [TFServingPlatform(max_batch_size=4, batch_timeout_ms=3.0)
             for _ in range(replicas)], balancer=balancer, seed=seed % 97),
        arrivals_random(120, 500.0, seed=seed), fixed_time_executor(6.0))


# ----------------------------------------------------------------- generative

def make_sequence(seq_id, arrival_ms, tokens=6, prompt=0):
    return SequenceSample(sequence_id=seq_id, arrival_ms=float(arrival_ms),
                          token_difficulty=np.full(tokens, 0.25),
                          token_sharpness=np.full(tokens, 0.05),
                          prompt_tokens=int(prompt))


def bursty_workload(seed=5, prompts=False):
    times = (list(np.arange(0.0, 2000.0, 100.0))
             + list(np.arange(2000.0, 3200.0, 8.0))
             + list(np.arange(3200.0, 5000.0, 100.0)))
    rng = np.random.default_rng(seed)
    tokens = rng.integers(2, 14, size=len(times))
    prompt = rng.integers(0, 900, size=len(times)) if prompts else \
        np.zeros(len(times), dtype=int)
    return GenerativeWorkload(name="test", sequences=[
        make_sequence(i, t, tokens=int(n), prompt=int(p))
        for i, (t, n, p) in enumerate(zip(times, tokens, prompt))])


def vanilla_factory(ordinal):
    return VanillaTokenPolicy()


def assert_generative_equal(a, b):
    assert a.makespan_ms == b.makespan_ms
    assert a.dispatch_counts == b.dispatch_counts
    assert a.fleet_timeline == b.fleet_timeline
    assert a.replica_seconds == b.replica_seconds
    assert a.replica_active_ms == b.replica_active_ms
    assert a.replica_uptimes_ms == b.replica_uptimes_ms
    assert len(a.replicas) == len(b.replicas)
    for ra, rb in zip(a.replicas, b.replicas):
        assert ra.tokens == rb.tokens
        assert ra.queueing_delays_ms == rb.queueing_delays_ms
        assert ra.shed_sequence_ids == rb.shed_sequence_ids
        assert ra.makespan_ms == rb.makespan_ms


def check_generative(cluster_fn, workload):
    seed_m = seed_generative_run(cluster_fn(), workload, vanilla_factory)
    kern_m = cluster_fn().run(workload, vanilla_factory)
    assert_generative_equal(seed_m, kern_m)


@pytest.mark.parametrize("balancer", ["round_robin", "join_shortest_queue",
                                      "least_work_left",
                                      "power_of_two_choices"])
def test_generative_static_fleet_matches_seed(balancer):
    check_generative(
        lambda: build_generative_cluster(SPEC, 3, balancer=balancer,
                                         max_batch_size=2, seed=4),
        bursty_workload())


def test_generative_reactive_churn_matches_seed():
    check_generative(
        lambda: build_generative_cluster(
            SPEC, 2, balancer="join_shortest_queue", max_batch_size=2,
            autoscaler=ReactiveAutoscaler(scale_out_load=2.5,
                                          scale_in_load=0.5,
                                          cooldown_ms=300.0,
                                          provision_delay_ms=100.0),
            min_replicas=1, max_replicas=6),
        bursty_workload())


def test_generative_predictive_churn_matches_seed():
    check_generative(
        lambda: build_generative_cluster(
            SPEC, 2, balancer="least_work_left", max_batch_size=2,
            autoscaler=PredictiveAutoscaler(window_ms=200.0, cooldown_ms=250.0,
                                            provision_delay_ms=60.0,
                                            service_time_ms=110.0),
            min_replicas=1, max_replicas=5),
        bursty_workload())


def test_generative_ttft_shedding_matches_seed():
    check_generative(
        lambda: build_generative_cluster(SPEC, 2, balancer="round_robin",
                                         max_batch_size=2, ttft_slo_ms=60.0),
        bursty_workload())


def test_generative_heterogeneous_profiles_match_seed():
    check_generative(
        lambda: build_generative_cluster(SPEC, 3,
                                         balancer="weighted_round_robin",
                                         max_batch_size=2,
                                         profiles=[2.0, 1.0, 0.5]),
        bursty_workload())


# -------------------------------------------------------------- disaggregated

def assert_disagg_equal(a, b):
    assert_generative_equal(a, b)
    assert a.prefill_dispatch_counts == b.prefill_dispatch_counts
    assert a.prefill_counts == b.prefill_counts
    assert a.prefill_token_counts == b.prefill_token_counts
    assert a.prefill_fleet_timeline == b.prefill_fleet_timeline
    assert a.prefill_replica_seconds == b.prefill_replica_seconds
    assert a.prefill_active_ms == b.prefill_active_ms
    assert a.prefill_uptimes_ms == b.prefill_uptimes_ms
    assert a.prefill_delays_ms == b.prefill_delays_ms
    assert a.transfer_delays_ms == b.transfer_delays_ms


def check_disagg(platform_fn, workload):
    seed_m = seed_disagg_run(platform_fn(), workload, vanilla_factory)
    kern_m = platform_fn().run(workload, vanilla_factory)
    assert_disagg_equal(seed_m, kern_m)
    return kern_m


@pytest.mark.parametrize("prefill_balancer,decode_balancer",
                         [("round_robin", "round_robin"),
                          ("least_work_left", "join_shortest_queue"),
                          ("power_of_two_choices", "power_of_two_choices")])
def test_disagg_static_pools_match_seed(prefill_balancer, decode_balancer):
    check_disagg(
        lambda: build_disaggregated_platform(
            "t5-large", prefill_replicas=2, decode_replicas=3,
            prefill_balancer=prefill_balancer, decode_balancer=decode_balancer,
            max_batch_size=2, prefill_batch=3, seed=6),
        bursty_workload(seed=9, prompts=True))


def test_disagg_heterogeneous_pools_match_seed():
    check_disagg(
        lambda: build_disaggregated_platform(
            "t5-large", prefill_replicas=3, decode_replicas=3,
            max_batch_size=2, prefill_batch=2,
            prefill_profiles=[2.0, 1.0, 0.5], decode_profiles=[1.5, 1.0, 0.75]),
        bursty_workload(seed=9, prompts=True))


def test_disagg_autoscaled_pools_match_seed():
    check_disagg(
        lambda: build_disaggregated_platform(
            "t5-large", prefill_replicas=1, decode_replicas=2,
            max_batch_size=2, prefill_batch=2,
            prefill_autoscaler=ReactiveAutoscaler(scale_out_load=2.0,
                                                  scale_in_load=0.3,
                                                  cooldown_ms=250.0,
                                                  provision_delay_ms=60.0),
            decode_autoscaler=ReactiveAutoscaler(scale_out_load=2.5,
                                                 scale_in_load=0.4,
                                                 cooldown_ms=300.0,
                                                 provision_delay_ms=80.0),
            prefill_min_replicas=1, prefill_max_replicas=4,
            decode_min_replicas=1, decode_max_replicas=5),
        bursty_workload(seed=9, prompts=True))


def test_disagg_heterogeneous_autoscaled_pools_match_seed():
    # Scale-out boots must pick the same fleet ordinal, and so the same
    # profile from the configured band, as the seed loop's own boot path.
    metrics = check_disagg(
        lambda: build_disaggregated_platform(
            "t5-large", prefill_replicas=2, decode_replicas=2,
            max_batch_size=2, prefill_batch=2,
            prefill_profiles=[2.0, 0.5], decode_profiles=[1.5, "0.5:0.7"],
            prefill_autoscaler=ReactiveAutoscaler(scale_out_load=1.5,
                                                  scale_in_load=0.3,
                                                  cooldown_ms=200.0,
                                                  provision_delay_ms=60.0),
            decode_autoscaler=ReactiveAutoscaler(scale_out_load=2.0,
                                                 scale_in_load=0.4,
                                                 cooldown_ms=250.0,
                                                 provision_delay_ms=80.0),
            prefill_min_replicas=1, prefill_max_replicas=5,
            decode_min_replicas=1, decode_max_replicas=6),
        bursty_workload(seed=9, prompts=True))
    # Both pools scaled out past their initial members.
    assert metrics.num_prefill_replicas() > 2
    assert metrics.num_replicas() > 2


def test_disagg_ttft_shedding_matches_seed():
    check_disagg(
        lambda: build_disaggregated_platform(
            "t5-large", prefill_replicas=1, decode_replicas=2,
            max_batch_size=2, prefill_batch=2, ttft_slo_ms=120.0),
        bursty_workload(seed=9, prompts=True))


# --------------------------------------------------- autoscaler fix regressions

class _FakeHandle:
    """Minimal replica view: fixed load signals + a profiled capacity."""

    class _Profile:
        speed = 1.0

    max_batch_size = 1
    profile = _Profile()

    @staticmethod
    def predicted_batch_time_ms(batch_size):
        return 10.0  # 100 qps per replica

    def __init__(self, jobs=0.0, work_left=0.0):
        self._jobs = jobs
        self._work_left = work_left

    def jobs_in_system(self, now_ms):
        return self._jobs

    def work_left_ms(self, now_ms):
        return self._work_left


def test_predictive_ewma_decays_during_arrival_lull():
    scaler = PredictiveAutoscaler(alpha=0.5, window_ms=100.0, cooldown_ms=0.0,
                                  target_utilization=1.0)
    scaler.reset()
    scaler.set_bounds(1, 10)
    handles = [_FakeHandle()] * 2
    # Sustained 500 qps: 50 admissions per 100 ms window.
    for window in range(10):
        scaler.observe_admitted(50, 100.0 * window)
    peak = scaler.desired_replicas(1000.0, handles)
    assert peak >= 4  # ~500 qps over 100-qps replicas
    # A long lull: no admission waves at all.  The estimate must decay via
    # the idle windows folded inside desired_replicas, not stay frozen at
    # the pre-lull rate.
    decayed = scaler.desired_replicas(2000.0, handles)
    assert decayed < peak
    assert scaler.desired_replicas(10_000.0, handles) == 1


def test_reactive_cooldown_not_burned_at_max_replicas():
    scaler = ReactiveAutoscaler(scale_out_load=2.0, scale_in_load=0.5,
                                cooldown_ms=1000.0, provision_delay_ms=10.0)
    scaler.reset()
    scaler.set_bounds(1, 2)
    overloaded = [_FakeHandle(jobs=5.0)] * 2
    # Overloaded at the max-replica boundary: the proposal is clamped to a
    # no-op by the platform, so it must not consume the cooldown.
    assert scaler.desired_replicas(0.0, overloaded) == 3
    idle = [_FakeHandle(jobs=0.0)] * 2
    # Load collapses 100 ms later: the scale-in must fire immediately
    # instead of waiting out a cooldown burned on the clamped proposal.
    assert scaler.desired_replicas(100.0, idle) == 1
    # That genuine action does consume the cooldown.
    assert scaler.desired_replicas(200.0, idle) == 2


def test_reactive_cooldown_not_burned_at_min_replicas():
    scaler = ReactiveAutoscaler(scale_out_load=2.0, scale_in_load=0.5,
                                cooldown_ms=1000.0, provision_delay_ms=10.0)
    scaler.reset()
    scaler.set_bounds(2, 6)
    idle = [_FakeHandle(jobs=0.0)] * 2
    assert scaler.desired_replicas(0.0, idle) == 1  # clamped no-op
    overloaded = [_FakeHandle(jobs=5.0)] * 2
    assert scaler.desired_replicas(100.0, overloaded) == 3


class _ScaleTo(Autoscaler):
    """Asks for ``target`` active replicas whatever the load."""

    name = "scale_to"
    provision_delay_ms = 10.0

    def __init__(self, target):
        self.target = target

    def desired_replicas(self, now_ms, replicas):
        return self.target


def test_disagg_scale_out_cycles_configured_profiles():
    platform = build_disaggregated_platform(
        "t5-large", prefill_replicas=2, decode_replicas=2, max_batch_size=2,
        prefill_profiles=[2.0, 1.0], decode_profiles=[1.5, 0.5],
        prefill_autoscaler=_ScaleTo(6), decode_autoscaler=_ScaleTo(6),
        prefill_max_replicas=6, decode_max_replicas=6)
    run = _DisaggRun(platform, [], vanilla_factory, 1.0, 1.0, 0.0)
    # Each pool's autoscaler phase registers four boots; firing them takes
    # the run's own boot path (FleetRun.on_event -> PoolState.boot).
    for pool in run.pools:
        pool.scale(0.0)
    run.clock.now_ms = 10.0
    for event in run.events.pop_due(10.0):
        run.on_event(event)

    # Scaled-out replicas must carry the configured profile band, cycling
    # through it by fleet ordinal, instead of booting default base-speed
    # hardware.
    for pool, speeds in ((run.ppool, [2.0, 1.0]), (run.dpool, [1.5, 0.5])):
        assert [e.profile.speed for e in pool.active] == speeds * 3
        assert [e.added_ms for e in pool.active] == [0.0] * 2 + [10.0] * 4
        assert not pool.boots
