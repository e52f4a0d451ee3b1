"""Property-based tests (hypothesis) on the core invariants Apparate relies on."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exits.evaluation import evaluate_thresholds
from repro.exits.thresholds import tune_thresholds_greedy
from repro.models.prediction import effective_difficulty, ramp_error_score
from repro.serving.cluster import ClusterPlatform, balancer_names
from repro.serving.platform import BatchResult
from repro.serving.request import Request
from repro.serving.tfserve import TFServingPlatform
from repro.utils.stats import WindowedAccuracy, summarize_latencies
from repro.workloads.arrivals import fixed_rate_arrivals, poisson_arrivals
from repro.workloads.difficulty import InputSample

# Hypothesis settings: keep examples modest so the suite stays fast.
FAST = settings(max_examples=50, deadline=None)


# ------------------------------------------------------------------ prediction

@FAST
@given(raw=st.floats(0.0, 1.0), headroom=st.floats(0.0, 1.0))
def test_effective_difficulty_stays_in_unit_interval(raw, headroom):
    d = effective_difficulty(raw, headroom)
    assert 0.0 <= d <= 1.0
    assert d >= raw * headroom - 1e-12


@FAST
@given(difficulty=st.floats(0.0, 1.0), sharpness=st.floats(0.01, 0.2),
       shift=st.floats(-0.3, 0.3),
       depth_a=st.floats(0.0, 1.0), depth_b=st.floats(0.0, 1.0))
def test_error_score_monotone_in_depth(difficulty, sharpness, shift, depth_a, depth_b):
    """Deeper ramps are never less confident for the same input."""
    lo, hi = sorted((depth_a, depth_b))
    err_lo = ramp_error_score(difficulty, lo, sharpness, shift)
    err_hi = ramp_error_score(difficulty, hi, sharpness, shift)
    assert err_hi <= err_lo + 1e-12
    assert 0.0 <= err_lo <= 1.0 and 0.0 <= err_hi <= 1.0


# ------------------------------------------------------------------ evaluation

@st.composite
def observation_window(draw):
    n = draw(st.integers(4, 40))
    num_ramps = draw(st.integers(1, 4))
    errors = draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=num_ramps,
                                    max_size=num_ramps), min_size=n, max_size=n))
    correct = draw(st.lists(st.lists(st.booleans(), min_size=num_ramps,
                                     max_size=num_ramps), min_size=n, max_size=n))
    depths = sorted(draw(st.lists(st.floats(0.05, 0.95), min_size=num_ramps,
                                  max_size=num_ramps)))
    return (np.array(errors), np.array(correct, dtype=bool), depths,
            [0.05] * num_ramps)


@FAST
@given(window=observation_window(), threshold=st.floats(0.0, 1.0))
def test_evaluation_bounds(window, threshold):
    errors, correct, depths, overheads = window
    ev = evaluate_thresholds(errors, correct, [threshold] * len(depths), depths,
                             overheads, 10.0)
    assert 0.0 <= ev.accuracy <= 1.0
    assert 0.0 <= ev.exit_rate <= 1.0
    assert ev.exit_counts.sum() <= ev.num_samples
    assert np.all(ev.ramp_savings_ms >= 0.0)
    assert np.all(ev.ramp_overhead_ms >= 0.0)


@FAST
@given(window=observation_window(), t_low=st.floats(0.0, 1.0), t_high=st.floats(0.0, 1.0))
def test_exit_rate_monotone_in_shared_threshold(window, t_low, t_high):
    """Raising every threshold never reduces the number of exits (§3.2)."""
    errors, correct, depths, overheads = window
    lo, hi = sorted((t_low, t_high))
    ev_lo = evaluate_thresholds(errors, correct, [lo] * len(depths), depths, overheads, 10.0)
    ev_hi = evaluate_thresholds(errors, correct, [hi] * len(depths), depths, overheads, 10.0)
    assert ev_hi.exit_rate >= ev_lo.exit_rate - 1e-12


@FAST
@given(window=observation_window())
def test_zero_thresholds_always_fully_accurate(window):
    errors, correct, depths, overheads = window
    ev = evaluate_thresholds(errors, correct, [0.0] * len(depths), depths, overheads, 10.0)
    assert ev.accuracy == 1.0
    assert ev.exit_rate == 0.0


# ------------------------------------------------------------ threshold tuning

@FAST
@given(window=observation_window(), constraint=st.floats(0.005, 0.2))
def test_greedy_tuning_respects_constraint_on_its_window(window, constraint):
    errors, correct, depths, overheads = window
    result = tune_thresholds_greedy(errors, correct, depths, overheads, 10.0,
                                    accuracy_constraint=constraint)
    assert result.evaluation.accuracy >= 1.0 - constraint - 1e-9
    assert all(0.0 <= t <= 1.0 for t in result.thresholds)


# -------------------------------------------------------------------- arrivals

@FAST
@given(n=st.integers(1, 500), rate=st.floats(0.5, 500.0))
def test_fixed_rate_arrivals_sorted_and_correct_length(n, rate):
    arrivals = fixed_rate_arrivals(n, rate)
    assert arrivals.shape == (n,)
    assert np.all(np.diff(arrivals) >= 0)


@FAST
@given(n=st.integers(1, 300), rate=st.floats(1.0, 200.0), seed=st.integers(0, 100))
def test_poisson_arrivals_sorted(n, rate, seed):
    arrivals = poisson_arrivals(n, rate, np.random.default_rng(seed))
    assert arrivals.shape == (n,)
    assert np.all(np.diff(arrivals) >= 0)


# --------------------------------------------------------------------- cluster

def _cluster_requests(arrival_gaps, slo_ms):
    arrivals = np.cumsum(np.asarray(arrival_gaps, dtype=float))
    return [Request(request_id=i, arrival_ms=float(arrivals[i]),
                    sample=InputSample(index=i, raw_difficulty=0.3, sharpness=0.05),
                    slo_ms=slo_ms)
            for i in range(len(arrivals))]


def _fixed_executor(gpu_time_ms):
    def executor(batch, batch_start_ms):
        return BatchResult(gpu_time_ms=gpu_time_ms,
                           result_offsets_ms=[gpu_time_ms] * len(batch))
    return executor


def _run_cluster(num_replicas, balancer, arrival_gaps, seed=0, slo_ms=1e9,
                 drop_expired=False, gpu_time_ms=5.0):
    replicas = [TFServingPlatform(max_batch_size=4, batch_timeout_ms=1.0,
                                  drop_expired=drop_expired)
                for _ in range(num_replicas)]
    cluster = ClusterPlatform(replicas, balancer=balancer, seed=seed)
    executor = _fixed_executor(gpu_time_ms)
    return cluster.run(_cluster_requests(arrival_gaps, slo_ms),
                       lambda ordinal: executor)


@FAST
@given(gaps=st.lists(st.floats(0.0, 20.0), min_size=1, max_size=60),
       num_replicas=st.integers(1, 4),
       balancer=st.sampled_from(sorted(balancer_names("classification"))),
       seed=st.integers(0, 10))
def test_cluster_conserves_requests(gaps, num_replicas, balancer, seed):
    """Every request is answered exactly once — no losses, no duplicates."""
    fleet = _run_cluster(num_replicas, balancer, gaps, seed=seed)
    responses = fleet.aggregate().responses
    assert sorted(r.request_id for r in responses) == list(range(len(gaps)))
    assert sum(fleet.dispatch_counts) == len(gaps)
    # Each replica saw a disjoint slice of the stream.
    seen = [set(r.request_id for r in m.responses) for m in fleet.replicas]
    for i in range(len(seen)):
        for j in range(i + 1, len(seen)):
            assert seen[i].isdisjoint(seen[j])


@FAST
@given(gaps=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=60),
       num_replicas=st.integers(1, 4),
       balancer=st.sampled_from(sorted(balancer_names("classification"))),
       seed=st.integers(0, 10))
def test_cluster_conserves_requests_under_drops(gaps, num_replicas, balancer, seed):
    """Conservation also holds when expired requests are dropped: a request is
    either served or dropped, never both and never twice."""
    fleet = _run_cluster(num_replicas, balancer, gaps, seed=seed,
                         slo_ms=8.0, drop_expired=True, gpu_time_ms=6.0)
    agg = fleet.aggregate()
    assert sorted(r.request_id for r in agg.responses) == list(range(len(gaps)))
    dropped = {r.request_id for r in agg.dropped()}
    served = {r.request_id for r in agg.served()}
    assert dropped.isdisjoint(served)
    assert len(dropped) + len(served) == len(gaps)


@FAST
@given(gaps=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=50),
       num_replicas=st.integers(1, 4),
       balancer=st.sampled_from(sorted(balancer_names("classification"))),
       seed=st.integers(0, 10))
def test_cluster_deterministic_under_fixed_seed(gaps, num_replicas, balancer, seed):
    first = _run_cluster(num_replicas, balancer, gaps, seed=seed)
    second = _run_cluster(num_replicas, balancer, gaps, seed=seed)
    assert first.dispatch_counts == second.dispatch_counts
    assert first.makespan_ms == second.makespan_ms
    a, b = first.aggregate(), second.aggregate()
    assert [(r.request_id, r.completion_ms, r.batch_size) for r in a.responses] \
        == [(r.request_id, r.completion_ms, r.batch_size) for r in b.responses]


@FAST
@given(gaps=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=50),
       num_replicas=st.integers(1, 4),
       balancer=st.sampled_from(sorted(balancer_names("classification"))))
def test_cluster_per_replica_and_aggregate_metrics_agree(gaps, num_replicas, balancer):
    fleet = _run_cluster(num_replicas, balancer, gaps)
    agg = fleet.aggregate()
    assert len(agg.responses) == sum(len(m.responses) for m in fleet.replicas)
    assert len(agg.served()) == sum(len(m.served()) for m in fleet.replicas)
    assert agg.num_batches == sum(m.num_batches for m in fleet.replicas)
    assert agg.gpu_busy_ms == pytest.approx(sum(m.gpu_busy_ms for m in fleet.replicas))
    # The fleet's clock spans every replica's run.
    assert fleet.makespan_ms >= max(m.makespan_ms for m in fleet.replicas) - 1e-9
    # Responses per replica match what the balancer dispatched there.
    for metrics, dispatched in zip(fleet.replicas, fleet.dispatch_counts):
        assert len(metrics.responses) == dispatched


# ----------------------------------------------------------------------- stats

@FAST
@given(values=st.lists(st.floats(0.0, 1e4), min_size=1, max_size=200))
def test_latency_summary_percentile_ordering(values):
    summary = summarize_latencies(values)
    assert summary["p25"] <= summary["p50"] <= summary["p95"]
    assert min(values) - 1e-9 <= summary["mean"] <= max(values) + 1e-9


@FAST
@given(flags=st.lists(st.booleans(), min_size=1, max_size=100),
       window=st.integers(1, 32))
def test_windowed_accuracy_bounds(flags, window):
    monitor = WindowedAccuracy(window=window)
    for flag in flags:
        monitor.record(flag)
    accuracy = monitor.accuracy()
    assert 0.0 <= accuracy <= 1.0
    recent = flags[-window:]
    assert accuracy == pytest.approx(sum(recent) / len(recent))
