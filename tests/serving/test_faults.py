"""Tests for the failure-injection package and the platforms' crash/recover
semantics: spec validation boundaries, CLI parsing, the seeded poisson
schedule, and the kernel-level crash behaviours (victim selection, requeue,
last-replica skip, static-fleet outages)."""

import numpy as np
import pytest

from repro.api.specs import ClusterSpec
from repro.faults import (FAULT_POOLS, FaultSchedule, FaultSpec,
                          coerce_faults, parse_faults)
from repro.serving.cluster import ClusterPlatform
from repro.serving.platform import BatchResult
from repro.serving.request import Request
from repro.serving.tfserve import TFServingPlatform
from repro.workloads.difficulty import InputSample


# ------------------------------------------------------------ spec validation

@pytest.mark.parametrize("kwargs, match", [
    ({"crash_ms": -1.0, "down_ms": 100.0}, "crash_ms must be finite and >= 0"),
    ({"crash_ms": float("nan"), "down_ms": 100.0}, "crash_ms must be finite"),
    ({"crash_ms": 0.0, "down_ms": 0.0}, "down_ms must be finite and positive"),
    ({"crash_ms": 0.0, "down_ms": -5.0}, "down_ms must be finite and positive"),
    ({"crash_ms": 0.0, "down_ms": float("inf")}, "down_ms must be finite"),
    ({"crash_ms": 0.0, "down_ms": 100.0, "pool": "gpu"}, "pool must be one of"),
])
def test_fault_spec_rejects_bad_values(kwargs, match):
    with pytest.raises(ValueError, match=match):
        FaultSpec(**kwargs)


def test_fault_spec_boundaries_and_recover():
    fault = FaultSpec(crash_ms=0.0, down_ms=1.0)
    assert fault.recover_ms == 1.0
    assert fault.pool == "decode"
    assert FAULT_POOLS == ("decode", "prefill")


def test_fault_schedule_sorts_and_filters():
    schedule = FaultSchedule.of(FaultSpec(500.0, 10.0, pool="prefill"),
                                FaultSpec(100.0, 10.0),
                                FaultSpec(300.0, 10.0))
    assert [f.crash_ms for f in schedule] == [100.0, 300.0, 500.0]
    assert len(schedule) == 3
    assert [f.crash_ms for f in schedule.for_pool("prefill")] == [500.0]
    with pytest.raises(ValueError, match="pool must be one of"):
        schedule.for_pool("gpu")
    with pytest.raises(ValueError, match="must be FaultSpec"):
        FaultSchedule(faults=(FaultSpec(1.0, 1.0), "crash"))
    assert "decode@100" in schedule.describe()
    assert FaultSchedule().describe() == "none"


def test_poisson_schedule_is_seeded_and_bounded():
    first = FaultSchedule.poisson(500.0, 200.0, horizon_ms=10_000.0, seed=3)
    second = FaultSchedule.poisson(500.0, 200.0, horizon_ms=10_000.0, seed=3)
    other = FaultSchedule.poisson(500.0, 200.0, horizon_ms=10_000.0, seed=4)
    assert first.faults == second.faults
    assert first.faults != other.faults
    assert all(0.0 <= f.crash_ms < 10_000.0 for f in first)
    assert all(f.down_ms >= 1.0 for f in first)


@pytest.mark.parametrize("kwargs", [
    {"mtbf_ms": 0.0, "mttr_ms": 1.0, "horizon_ms": 10.0},
    {"mtbf_ms": 1.0, "mttr_ms": -1.0, "horizon_ms": 10.0},
    {"mtbf_ms": 1.0, "mttr_ms": 1.0, "horizon_ms": float("inf")},
])
def test_poisson_schedule_rejects_bad_values(kwargs):
    with pytest.raises(ValueError, match="must be finite and positive"):
        FaultSchedule.poisson(**kwargs)


# ------------------------------------------------------------------- parsing

def test_parse_faults_explicit_clauses():
    schedule = parse_faults("5000:2000; 9000:1500:prefill")
    assert [(f.crash_ms, f.down_ms, f.pool) for f in schedule] == \
        [(5000.0, 2000.0, "decode"), (9000.0, 1500.0, "prefill")]


def test_parse_faults_poisson_string():
    schedule = parse_faults("mtbf=500,mttr=200,horizon=5000,seed=9,pool=prefill")
    assert len(schedule) >= 1
    assert all(f.pool == "prefill" for f in schedule)
    assert schedule.faults == parse_faults(
        "mtbf=500,mttr=200,horizon=5000,seed=9,pool=prefill").faults


@pytest.mark.parametrize("text, match", [
    ("", "empty fault schedule"),
    ("1000", "crash_ms:down_ms"),
    ("1000:200:decode:extra", "crash_ms:down_ms"),
    ("mtbf=500,mttr=200", "missing required keys"),
    ("mtbf=500,mttr=200,horizon=5000,rate=3", "unknown key 'rate'"),
    ("mtbf=,mttr=200,horizon=5000", "expected key=value"),
])
def test_parse_faults_rejects_bad_strings(text, match):
    with pytest.raises(ValueError, match=match):
        parse_faults(text)


def test_coerce_faults_spellings():
    assert coerce_faults(None) is None
    assert coerce_faults(FaultSchedule()) is None   # empty = off
    schedule = FaultSchedule.of(FaultSpec(1.0, 1.0))
    assert coerce_faults(schedule) is schedule
    assert len(coerce_faults(FaultSpec(1.0, 1.0))) == 1
    assert len(coerce_faults("100:50")) == 1
    assert len(coerce_faults([FaultSpec(1.0, 1.0)])) == 1
    with pytest.raises(ValueError, match="faults must be"):
        coerce_faults(3.5)


def test_cluster_spec_rejects_prefill_faults_on_monolithic():
    with pytest.raises(ValueError, match="pool='prefill'"):
        ClusterSpec(faults="100:50:prefill")
    spec = ClusterSpec(disaggregate=True, faults="100:50:prefill")
    assert spec.faults.for_pool("prefill")


# --------------------------------------------------------- platform semantics

def _sample(i):
    return InputSample(index=i, raw_difficulty=0.3, sharpness=0.05,
                       confidence_shift=0.0)


def _requests(n, gap_ms=5.0):
    return [Request(request_id=i, arrival_ms=i * gap_ms, sample=_sample(i),
                    slo_ms=10_000.0) for i in range(n)]


def _executor(batch, batch_start_ms):
    return BatchResult(gpu_time_ms=8.0, result_offsets_ms=[8.0] * len(batch))


def _run(replicas, faults, n=120):
    platforms = [TFServingPlatform(max_batch_size=4) for _ in range(replicas)]
    cluster = ClusterPlatform(platforms, balancer="round_robin", faults=faults)
    return cluster.run(_requests(n), lambda ordinal: _executor)


def test_last_replica_never_crashes():
    metrics = _run(1, FaultSchedule.of(FaultSpec(100.0, 50.0)))
    assert metrics.crashes == 0 and metrics.recoveries == 0
    assert sorted(r.request_id for r in metrics.aggregate().responses) == \
        list(range(120))


def test_static_fleet_outage_shows_in_timeline():
    """Without an autoscaler the fleet dips to N-1 until the scheduled boot."""
    metrics = _run(3, FaultSchedule.of(FaultSpec(100.0, 200.0)))
    assert metrics.crashes == 1 and metrics.recoveries == 1
    sizes = [n for _, n in metrics.fleet_timeline]
    assert min(sizes) == 2 and sizes[-1] == 3


def test_crash_requeues_queued_work_to_survivors():
    # One slow burst so the victim holds a queue when it dies.
    requests = _requests(40, gap_ms=0.5)
    platforms = [TFServingPlatform(max_batch_size=2) for _ in range(2)]
    cluster = ClusterPlatform(platforms, balancer="round_robin",
                              faults=FaultSchedule.of(FaultSpec(5.0, 30.0)))
    metrics = cluster.run(requests, lambda ordinal: _executor)
    assert metrics.crashes == 1
    assert metrics.requeued > 0
    assert sorted(r.request_id for r in metrics.aggregate().responses) == \
        list(range(40))


def test_fault_free_run_is_unchanged_by_empty_schedule():
    baseline = _run(2, None)
    with_empty = _run(2, FaultSchedule())
    assert baseline.summary() == with_empty.summary()
