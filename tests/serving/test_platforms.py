"""Tests for the classification serving platforms (Clockwork / TF-Serving)."""

import numpy as np
import pytest

from repro.core.pipeline import model_stack
from repro.serving.clockwork import ClockworkPlatform
from repro.serving.cluster import ClusterPlatform
from repro.serving.platform import BatchResult, VanillaExecutor
from repro.serving.request import make_requests
from repro.serving.tfserve import TFServingPlatform
from repro.workloads.difficulty import DifficultyTrace
from repro.workloads.arrivals import fixed_rate_arrivals
from repro.workloads.video import make_video_workload


@pytest.fixture(scope="module")
def stack():
    return model_stack("resnet50", seed=0)


def serve(platform, requests, executor):
    """Serve ``requests`` on a fleet of one ``platform`` replica."""
    return ClusterPlatform([platform]).run(requests, executor).aggregate()


def burst_requests(stack, n=32, slo_ms=60.0):
    """All requests arrive at time zero (forces batching decisions)."""
    trace = DifficultyTrace(name="burst", raw_difficulty=np.full(n, 0.3),
                            sharpness=np.full(n, 0.05))
    return make_requests(trace, np.zeros(n), slo_ms)


def paced_requests(stack, n=64, rate_qps=30.0, slo_ms=32.8):
    trace = DifficultyTrace(name="paced", raw_difficulty=np.full(n, 0.3),
                            sharpness=np.full(n, 0.05))
    return make_requests(trace, fixed_rate_arrivals(n, rate_qps), slo_ms)


def test_clockwork_selects_largest_slo_compliant_batch(stack):
    spec, profile, _pred, _cat, executor = stack
    platform = ClockworkPlatform(profile, max_batch_size=16, drop_expired=False)
    metrics = serve(platform, burst_requests(stack, n=32, slo_ms=1000.0),
                    VanillaExecutor(executor))
    # With a very loose SLO the first batch should be the full max size.
    assert metrics.average_batch_size() > 8


def test_clockwork_small_batches_under_tight_slo(stack):
    spec, profile, _pred, _cat, executor = stack
    platform = ClockworkPlatform(profile, max_batch_size=16, drop_expired=False)
    metrics = serve(platform, burst_requests(stack, n=32, slo_ms=spec.bs1_latency_ms * 1.2),
                    VanillaExecutor(executor))
    assert metrics.average_batch_size() < 4


def test_clockwork_serves_every_request_without_drops(stack):
    spec, profile, _pred, _cat, executor = stack
    platform = ClockworkPlatform(profile, max_batch_size=16, drop_expired=False)
    requests = paced_requests(stack, n=64)
    metrics = serve(platform, requests, VanillaExecutor(executor))
    assert len(metrics.served()) == 64
    assert metrics.drop_rate() == 0.0


def test_clockwork_drops_expired_requests_under_overload(stack):
    spec, profile, _pred, _cat, executor = stack
    platform = ClockworkPlatform(profile, max_batch_size=2, drop_expired=True)
    # Arrivals far above capacity with a tight SLO: some requests must expire.
    requests = paced_requests(stack, n=200, rate_qps=200.0, slo_ms=spec.default_slo_ms)
    metrics = serve(platform, requests, VanillaExecutor(executor))
    assert metrics.drop_rate() > 0.0
    assert len(metrics.responses) == 200


def test_latencies_include_queueing(stack):
    spec, profile, _pred, _cat, executor = stack
    platform = ClockworkPlatform(profile, max_batch_size=4, drop_expired=False)
    metrics = serve(platform, burst_requests(stack, n=16, slo_ms=10_000.0),
                    VanillaExecutor(executor))
    latencies = sorted(r.latency_ms for r in metrics.served())
    # Later batches wait behind earlier ones, so latency spreads out.
    assert latencies[-1] > latencies[0] * 2


def test_tfserve_full_batch_dispatch(stack):
    spec, profile, _pred, _cat, executor = stack
    platform = TFServingPlatform(max_batch_size=8, batch_timeout_ms=50.0)
    metrics = serve(platform, burst_requests(stack, n=16, slo_ms=10_000.0),
                    VanillaExecutor(executor))
    assert metrics.average_batch_size() == pytest.approx(8.0)


def test_tfserve_timeout_flushes_partial_batch(stack):
    spec, profile, _pred, _cat, executor = stack
    platform = TFServingPlatform(max_batch_size=64, batch_timeout_ms=5.0)
    requests = paced_requests(stack, n=20, rate_qps=30.0, slo_ms=1000.0)
    metrics = serve(platform, requests, VanillaExecutor(executor))
    assert len(metrics.served()) == 20
    assert metrics.average_batch_size() < 64


def test_tfserve_larger_max_batch_trades_latency_for_throughput(stack):
    """Figure 2: bigger batches help throughput but hurt per-request latency."""
    spec, profile, _pred, _cat, executor = stack
    requests = paced_requests(stack, n=300, rate_qps=120.0, slo_ms=10_000.0)
    small = serve(TFServingPlatform(max_batch_size=2, batch_timeout_ms=2.0),
                  requests, VanillaExecutor(executor))
    large = serve(TFServingPlatform(max_batch_size=16, batch_timeout_ms=2.0),
                  requests, VanillaExecutor(executor))
    assert large.average_batch_size() > small.average_batch_size()
    assert large.throughput_qps() >= small.throughput_qps() * 0.95


def test_invalid_parameters_rejected(stack):
    _spec, profile, _pred, _cat, _exec = stack
    with pytest.raises(ValueError):
        ClockworkPlatform(profile, max_batch_size=0)
    with pytest.raises(ValueError):
        TFServingPlatform(batch_timeout_ms=-1.0)


def test_empty_request_list(stack):
    _spec, profile, _pred, _cat, executor = stack
    platform = ClockworkPlatform(profile)
    metrics = serve(platform, [], VanillaExecutor(executor))
    assert len(metrics.responses) == 0


def test_batch_result_defaults():
    result = BatchResult(gpu_time_ms=5.0, result_offsets_ms=[5.0, 5.0])
    assert result.exited == [False, False]
    assert result.exit_depths == [None, None]
    assert result.correct == [True, True]


def test_batch_result_rejects_mismatched_lengths():
    with pytest.raises(ValueError, match="exited"):
        BatchResult(gpu_time_ms=5.0, result_offsets_ms=[5.0, 5.0],
                    exited=[True])
    with pytest.raises(ValueError, match="exit_depths"):
        BatchResult(gpu_time_ms=5.0, result_offsets_ms=[5.0, 5.0],
                    exit_depths=[0.5, 0.5, 0.5])
    with pytest.raises(ValueError, match="correct"):
        BatchResult(gpu_time_ms=5.0, result_offsets_ms=[5.0, 5.0],
                    correct=[True, False, True])


def test_batch_result_accepts_matching_lengths():
    result = BatchResult(gpu_time_ms=5.0, result_offsets_ms=[3.0, 5.0],
                         exited=[True, False], exit_depths=[0.4, None],
                         correct=[True, True])
    assert result.exited == [True, False]


# ------------------------------------------------------- run-loop regressions

class LazyPlatform(ClockworkPlatform):
    """Policy that always asks to wait 'until now' despite a non-empty queue.

    The contract forbids this (empty batch with ``wake_up <= now``), so the
    fleet runner's forced-progress guard must serve the queue anyway instead
    of livelocking.
    """

    def select_batch(self, queue, now_ms):
        return [], now_ms


class SleepyPlatform(ClockworkPlatform):
    """Policy that always asks to wait forever."""

    def select_batch(self, queue, now_ms):
        return [], float("inf")


@pytest.mark.parametrize("platform_cls", [LazyPlatform, SleepyPlatform])
def test_forced_progress_serves_stalling_policies(stack, platform_cls):
    _spec, profile, _pred, _cat, executor = stack
    platform = platform_cls(profile, max_batch_size=4, drop_expired=False)
    requests = paced_requests(stack, n=24, rate_qps=50.0, slo_ms=10_000.0)
    metrics = serve(platform, requests, VanillaExecutor(executor))
    assert len(metrics.served()) == 24
    assert metrics.drop_rate() == 0.0
    # Forced batches are capped at max_batch_size.
    assert all(r.batch_size <= 4 for r in metrics.served())


def test_forced_progress_on_burst_with_infinite_wait(stack):
    _spec, profile, _pred, _cat, executor = stack
    platform = SleepyPlatform(profile, max_batch_size=8, drop_expired=False)
    metrics = serve(platform, burst_requests(stack, n=20, slo_ms=10_000.0),
                    VanillaExecutor(executor))
    assert len(metrics.served()) == 20


def test_drop_expired_counts_each_request_exactly_once(stack):
    spec, profile, _pred, _cat, executor = stack
    platform = ClockworkPlatform(profile, max_batch_size=2, drop_expired=True)
    requests = paced_requests(stack, n=150, rate_qps=300.0, slo_ms=spec.default_slo_ms)
    metrics = serve(platform, requests, VanillaExecutor(executor))
    # Overloaded: some requests expire, but every request is answered exactly
    # once and a dropped request is never also served.
    assert metrics.drop_rate() > 0.0
    ids = sorted(r.request_id for r in metrics.responses)
    assert ids == list(range(150))
    dropped = {r.request_id for r in metrics.dropped()}
    served = {r.request_id for r in metrics.served()}
    assert dropped.isdisjoint(served)
    for response in metrics.dropped():
        assert response.batch_size == 0
        assert response.serving_ms == 0.0


def test_completed_batch_is_removed_from_queue_state(stack):
    """The steppable phases keep queue/responded bookkeeping consistent."""
    _spec, profile, _pred, _cat, executor = stack
    platform = ClockworkPlatform(profile, max_batch_size=4, drop_expired=False)
    state = platform.new_state()
    requests = burst_requests(stack, n=6, slo_ms=10_000.0)
    for request in requests:
        platform.admit(state, request)
    batch, _wake = platform.select(state, 0.0)
    assert batch
    platform.dispatch(state, batch)
    assert len(state.queue) == 6 - len(batch)
    result = VanillaExecutor(executor)(batch, 0.0)
    platform.complete(state, batch, result, 0.0)
    assert state.busy_until_ms == pytest.approx(result.gpu_time_ms)
    assert state.serving_batch_size == len(batch)
    # Serving the same batch again must trip the conservation guard.
    with pytest.raises(RuntimeError, match="answered twice"):
        platform.complete(state, batch, result, 0.0)
