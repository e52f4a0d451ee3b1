"""Property-based tests (hypothesis) for failure injection and tenancy.

The load-bearing invariants: crash/recovery churn never loses or duplicates
work on any of the three serving platforms (every submitted request/sequence
is served, dropped or shed exactly once, and every served sequence emits its
full token budget), and a seeded random fault schedule makes runs
bit-identical — same seed, same churn, same metrics.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.generative import (build_disaggregated_platform,
                                   build_generative_cluster)
from repro.faults import FaultSchedule, FaultSpec
from repro.generative.sequences import GenerativeWorkload, SequenceSample
from repro.serving.cluster import ClusterPlatform
from repro.serving.hf_pipelines import VanillaTokenPolicy
from repro.serving.platform import BatchResult
from repro.serving.request import Request
from repro.serving.tfserve import TFServingPlatform
from repro.workloads.difficulty import InputSample

# Every example is a full simulated run; keep the counts modest.
SIM = settings(max_examples=15, deadline=None)


# ------------------------------------------------------------ classification

def _requests(n, gap_ms=5.0):
    return [Request(request_id=i, arrival_ms=i * gap_ms,
                    sample=InputSample(index=i, raw_difficulty=0.3,
                                       sharpness=0.05, confidence_shift=0.0),
                    slo_ms=10_000.0)
            for i in range(n)]


def _executor(batch, batch_start_ms):
    return BatchResult(gpu_time_ms=8.0, result_offsets_ms=[8.0] * len(batch))


@SIM
# crash + recovery both land inside the arrival window (last arrival at
# 595ms): the run cannot end before the replacement boots.
@given(crash_ms=st.floats(0.0, 300.0), down_ms=st.floats(50.0, 250.0),
       replicas=st.integers(2, 4))
def test_classification_conserves_requests_across_crash(crash_ms, down_ms,
                                                        replicas):
    platforms = [TFServingPlatform(max_batch_size=4) for _ in range(replicas)]
    cluster = ClusterPlatform(
        platforms, balancer="round_robin",
        faults=FaultSchedule.of(FaultSpec(crash_ms, down_ms)))
    requests = _requests(120)
    metrics = cluster.run(requests, lambda ordinal: _executor)
    responses = metrics.aggregate().responses
    assert sorted(r.request_id for r in responses) == list(range(120))
    assert metrics.crashes == 1 and metrics.recoveries == 1


@SIM
@given(mtbf_ms=st.floats(100.0, 800.0), mttr_ms=st.floats(50.0, 400.0),
       seed=st.integers(0, 2**16))
def test_classification_fault_seed_is_deterministic(mtbf_ms, mttr_ms, seed):
    schedule = FaultSchedule.poisson(mtbf_ms, mttr_ms, horizon_ms=800.0,
                                     seed=seed)

    def run():
        platforms = [TFServingPlatform(max_batch_size=4) for _ in range(3)]
        cluster = ClusterPlatform(platforms, balancer="jsq", faults=schedule,
                                  tenancy="gold:weight=3;bronze:weight=1")
        return cluster.run(_requests(100), lambda ordinal: _executor)

    first, second = run(), run()
    assert first.summary() == second.summary()
    assert first.tenant_rollups == second.tenant_rollups


# ----------------------------------------------------------------- generative

def _workload(n, tokens=6, gap_ms=40.0):
    return GenerativeWorkload(name="prop", sequences=[
        SequenceSample(sequence_id=i, arrival_ms=i * gap_ms,
                       token_difficulty=np.full(tokens, 0.25),
                       token_sharpness=np.full(tokens, 0.05),
                       prompt_tokens=32)
        for i in range(n)])


def _assert_generative_conserved(metrics, n, tokens):
    served = set(metrics.sequence_accuracy)
    shed = set(metrics.shed_sequence_ids)
    assert served | shed == set(range(n))
    assert not served & shed
    counts = {}
    for record in metrics.tokens:
        counts[record.sequence_id] = counts.get(record.sequence_id, 0) + 1
    assert counts == {seq_id: tokens for seq_id in served}


@SIM
# last arrival at 2360ms bounds crash + down: recovery fires in-window.
@given(crash_ms=st.floats(0.0, 1200.0), down_ms=st.floats(100.0, 1000.0),
       replicas=st.integers(2, 4))
def test_generative_conserves_tokens_across_crash(crash_ms, down_ms, replicas):
    cluster = build_generative_cluster(
        "t5-large", replicas, max_batch_size=4,
        faults=FaultSchedule.of(FaultSpec(crash_ms, down_ms)))
    policy = VanillaTokenPolicy()
    metrics = cluster.run(_workload(60), lambda ordinal: policy)
    agg = metrics.aggregate()
    _assert_generative_conserved(agg, 60, 6)
    assert metrics.crashes == 1 and metrics.recoveries == 1


@SIM
@given(mtbf_ms=st.floats(300.0, 2000.0), mttr_ms=st.floats(100.0, 1000.0),
       seed=st.integers(0, 2**16))
def test_generative_fault_seed_is_deterministic(mtbf_ms, mttr_ms, seed):
    schedule = FaultSchedule.poisson(mtbf_ms, mttr_ms, horizon_ms=2000.0,
                                     seed=seed)

    def run():
        cluster = build_generative_cluster(
            "t5-large", 3, max_batch_size=4, faults=schedule,
            tenancy="chat:weight=4;batch:priority=batch")
        policy = VanillaTokenPolicy()
        return cluster.run(_workload(50), lambda ordinal: policy)

    first, second = run(), run()
    assert first.summary() == second.summary()
    assert first.tenant_rollups == second.tenant_rollups


# -------------------------------------------------------------- disaggregated

@SIM
@given(pcrash_ms=st.floats(0.0, 1000.0), dcrash_ms=st.floats(0.0, 1200.0),
       down_ms=st.floats(200.0, 1000.0))
def test_disagg_conserves_tokens_across_pool_crashes(pcrash_ms, dcrash_ms,
                                                     down_ms):
    platform = build_disaggregated_platform(
        "t5-large", prefill_replicas=2, decode_replicas=3, max_batch_size=4,
        faults=FaultSchedule.of(FaultSpec(pcrash_ms, down_ms, pool="prefill"),
                                FaultSpec(dcrash_ms, down_ms, pool="decode")))
    policy = VanillaTokenPolicy()
    metrics = platform.run(_workload(60), lambda ordinal: policy)
    agg = metrics.aggregate()
    _assert_generative_conserved(agg, 60, 6)
    assert metrics.crashes == 2 and metrics.recoveries == 2
