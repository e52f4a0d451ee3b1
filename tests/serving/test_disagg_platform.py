"""Tests for prefill/decode disaggregated serving: the two-pool platform
(prefill chunk-batching, KV-transfer handoff, per-pool balancers and
autoscalers), the PrefillModel cost model, TTFT metrics and deadline
shedding across the generative engines."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import ClusterSpec, Experiment
from repro.core.generative import (build_disaggregated_platform,
                                   build_generative_cluster)
from repro.generative.decoding import DecodeTimingModel, PrefillModel
from repro.generative.sequences import (GenerativeWorkload, SequenceSample,
                                        make_generative_workload)
from repro.models.zoo import get_model
from repro.serving.autoscaler import ReactiveAutoscaler
from repro.serving.disagg import DisaggregatedMetrics, DisaggregatedPlatform
from repro.serving.hf_pipelines import (ContinuousBatchingEngine,
                                        VanillaTokenPolicy)
from tests.serving._seed_loops import seed_engine_run, seed_engine_system

FAST = settings(max_examples=15, deadline=None)

SPEC = get_model("t5-large")      # 18 ms decode steps, 24 blocks, width 1024
STEP_MS = SPEC.bs1_latency_ms


def make_sequence(seq_id, arrival_ms, tokens=4, prompt=0, difficulty=0.25):
    return SequenceSample(sequence_id=seq_id, arrival_ms=float(arrival_ms),
                          token_difficulty=np.full(tokens, float(difficulty)),
                          token_sharpness=np.full(tokens, 0.05),
                          prompt_tokens=int(prompt))


def make_workload(arrivals, tokens=4, prompts=0):
    if np.isscalar(tokens):
        tokens = [tokens] * len(arrivals)
    if np.isscalar(prompts):
        prompts = [prompts] * len(arrivals)
    return GenerativeWorkload(name="test", sequences=[
        make_sequence(i, t, tokens=n, prompt=p)
        for i, (t, n, p) in enumerate(zip(arrivals, tokens, prompts))])


def decode_engine(max_batch_size=2):
    return ContinuousBatchingEngine(DecodeTimingModel(SPEC),
                                    max_batch_size=max_batch_size)


def fast_scaler(**overrides):
    kwargs = dict(scale_out_load=2.0, scale_in_load=0.25, cooldown_ms=200.0,
                  provision_delay_ms=50.0)
    kwargs.update(overrides)
    return ReactiveAutoscaler(**kwargs)


def token_multiset(metrics: DisaggregatedMetrics) -> Counter:
    return Counter((t.sequence_id, t.token_index)
                   for replica in metrics.replicas for t in replica.tokens)


def workload_multiset(workload: GenerativeWorkload) -> Counter:
    return Counter((s.sequence_id, i)
                   for s in workload.sequences for i in range(s.num_tokens))


# ------------------------------------------------------------ PrefillModel

def test_prefill_model_chunk_and_transfer_math():
    model = PrefillModel(SPEC)     # 256-token chunks, 16 GB/s
    assert model.num_chunks(0) == 0
    assert model.num_chunks(1) == 1
    assert model.num_chunks(256) == 1
    assert model.num_chunks(257) == 2
    assert model.prefill_ms(256) == pytest.approx(STEP_MS)
    assert model.prefill_ms(0) == 0.0
    # Chunk-batching two 129-token prompts packs 258 tokens into 2 chunks —
    # one fewer than prefilling them separately (2 chunks each... no, 1+1=2;
    # use 200-token prompts: separately 1+1 chunks, batched ceil(400/256)=2).
    assert model.batch_prefill_ms(400) == pytest.approx(2 * STEP_MS)
    assert model.batch_prefill_ms(513) == pytest.approx(3 * STEP_MS)
    # KV bytes: tokens x blocks x width x 4 (K+V, fp16).
    assert model.kv_bytes(256) == 256 * 24 * 1024 * 4
    assert model.transfer_ms(256) == pytest.approx(256 * 24 * 1024 * 4 / 16e6)
    assert model.transfer_ms(0) == 0.0


def test_prefill_model_inslot_interference():
    model = PrefillModel(SPEC, decode_interference=1.0)
    base = model.prefill_ms(512)
    assert model.inslot_prefill_ms(512, busy_slots=0) == pytest.approx(base)
    assert model.inslot_prefill_ms(512, busy_slots=3) == pytest.approx(4 * base)


def test_prefill_model_validation():
    with pytest.raises(ValueError):
        PrefillModel(get_model("resnet50"))     # not generative
    with pytest.raises(ValueError):
        PrefillModel(SPEC, tokens_per_chunk=0)
    with pytest.raises(ValueError):
        PrefillModel(SPEC, transfer_gbps=0.0)
    with pytest.raises(ValueError):
        PrefillModel(SPEC, decode_interference=-0.5)


# ------------------------------------------------------------ construction

def test_shared_policy_instances_are_not_aliased_across_pools():
    """One balancer/autoscaler instance passed for both pools is cloned —
    a shared object would mix its dispatch cursor / cooldown state across
    the two pools."""
    scaler = fast_scaler()
    from repro.serving.cluster import RoundRobinBalancer
    balancer = RoundRobinBalancer()
    platform = DisaggregatedPlatform(PrefillModel(SPEC), [decode_engine()],
                                     prefill_balancer=balancer,
                                     decode_balancer=balancer,
                                     prefill_autoscaler=scaler,
                                     decode_autoscaler=scaler)
    assert platform.prefill_autoscaler is not platform.decode_autoscaler
    assert platform.prefill_balancer is not platform.decode_balancer


def test_platform_validation():
    engine = decode_engine()
    prefill = PrefillModel(SPEC)
    with pytest.raises(ValueError):
        DisaggregatedPlatform(prefill, [])
    with pytest.raises(ValueError):
        DisaggregatedPlatform(prefill, [engine], prefill_replicas=0)
    with pytest.raises(ValueError):
        DisaggregatedPlatform(prefill, [engine], prefill_batch=0)
    with pytest.raises(ValueError):
        DisaggregatedPlatform(prefill, [engine], ttft_slo_ms=0.0)
    with pytest.raises(ValueError):
        DisaggregatedPlatform(prefill, [engine, engine], decode_min_replicas=3)
    with pytest.raises(ValueError):
        DisaggregatedPlatform(prefill, [engine, engine], decode_max_replicas=1)
    with pytest.raises(ValueError):
        DisaggregatedPlatform(prefill, [engine], prefill_replicas=2,
                              prefill_min_replicas=0)
    with pytest.raises(ValueError):
        DisaggregatedPlatform(prefill, [engine], prefill_profiles=[1.0, 1.0])
    with pytest.raises(ValueError):
        DisaggregatedPlatform(prefill, [engine, engine], decode_profiles=[2.0])


# ----------------------------------------------------------- pipeline timing

def test_single_sequence_pays_prefill_transfer_then_decode():
    """TTFT decomposes exactly: queueing (0) + prefill + KV transfer + step."""
    prefill = PrefillModel(SPEC)
    platform = DisaggregatedPlatform(prefill, [decode_engine()],
                                     prefill_replicas=1)
    workload = make_workload([0.0], tokens=3, prompts=256)
    metrics = platform.run(workload, lambda o: VanillaTokenPolicy())

    transfer = prefill.transfer_ms(256)
    assert metrics.prefill_delays_ms[0] == pytest.approx(STEP_MS)
    assert metrics.transfer_delays_ms[0] == pytest.approx(transfer)
    merged = metrics.aggregate()
    # Queueing (arrival -> first decode step) spans prefill + transfer.
    assert merged.queueing_delays_ms[0] == pytest.approx(STEP_MS + transfer)
    assert merged.ttft_values() == pytest.approx([2 * STEP_MS + transfer])
    # The decode cadence itself is untouched: every token is one full step.
    np.testing.assert_allclose(merged.tpt_values(), [STEP_MS] * 3)


def test_promptless_sequences_skip_prefill_and_transfer():
    platform = DisaggregatedPlatform(PrefillModel(SPEC), [decode_engine()],
                                     prefill_replicas=1)
    workload = make_workload([0.0], tokens=2, prompts=0)
    metrics = platform.run(workload, lambda o: VanillaTokenPolicy())
    merged = metrics.aggregate()
    assert merged.ttft_values() == pytest.approx([STEP_MS])
    assert metrics.transfer_delays_ms[0] == 0.0


def test_prefill_chunk_batching_shares_chunks():
    """Two prompts prefilled in one batch finish together at the batched
    chunk count, not at the sum of their individual chunk counts."""
    prefill = PrefillModel(SPEC)
    platform = DisaggregatedPlatform(prefill, [decode_engine(max_batch_size=4)],
                                     prefill_replicas=1, prefill_batch=4)
    # 2 x 200-token prompts -> 400 tokens -> 2 chunks batched (vs 1+1=2
    # separately); 4 x 200 -> 800 tokens -> 4 chunks batched.
    workload = make_workload([0.0, 0.0, 0.0, 0.0], tokens=1, prompts=200)
    metrics = platform.run(workload, lambda o: VanillaTokenPolicy())
    done = prefill.batch_prefill_ms(800)
    for seq_id in range(4):
        assert metrics.prefill_delays_ms[seq_id] == pytest.approx(done)


# ------------------------------------------------- conservation + determinism

def test_tokens_conserved_across_pipeline():
    platform = DisaggregatedPlatform(PrefillModel(SPEC), [decode_engine()] * 3,
                                     prefill_replicas=2,
                                     prefill_balancer="least_work_left",
                                     decode_balancer="join_shortest_queue")
    workload = make_workload(np.arange(0.0, 3000.0, 40.0), tokens=5,
                             prompts=300)
    metrics = platform.run(workload, lambda o: VanillaTokenPolicy())
    assert token_multiset(metrics) == workload_multiset(workload)
    assert sum(metrics.prefill_counts) == len(workload.sequences)
    assert sum(metrics.dispatch_counts) == len(workload.sequences)


@FAST
@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=2500.0),
                          st.integers(min_value=1, max_value=6),
                          st.integers(min_value=0, max_value=600)),
                min_size=1, max_size=40))
def test_tokens_conserved_under_membership_change_in_both_pools(shape):
    """Hypothesis: every workload token is decoded exactly once even while
    both pools scale out and drain mid-run."""
    workload = make_workload([a for a, _, _ in shape],
                             tokens=[n for _, n, _ in shape],
                             prompts=[p for _, _, p in shape])
    platform = DisaggregatedPlatform(
        PrefillModel(SPEC), [decode_engine()] * 2, prefill_replicas=2,
        prefill_balancer="join_shortest_queue",
        decode_balancer="least_work_left",
        prefill_autoscaler=fast_scaler(), decode_autoscaler=fast_scaler(),
        prefill_min_replicas=1, prefill_max_replicas=4,
        decode_min_replicas=1, decode_max_replicas=5)
    metrics = platform.run(workload, lambda o: VanillaTokenPolicy())
    assert token_multiset(metrics) == workload_multiset(workload)
    # Every sequence crossed the handoff exactly once.
    assert sum(metrics.prefill_counts) == len(workload.sequences)
    assert sorted(metrics.transfer_delays_ms) == \
        sorted(s.sequence_id for s in workload.sequences)


def test_repeated_runs_are_bit_identical():
    """One platform object re-runs identically: stochastic balancer seed
    streams and autoscaler state fully reset between runs."""
    platform = DisaggregatedPlatform(
        PrefillModel(SPEC), [decode_engine()] * 2, prefill_replicas=2,
        prefill_balancer="power_of_two_choices",
        decode_balancer="power_of_two_choices", seed=7,
        prefill_autoscaler=fast_scaler(), decode_autoscaler=fast_scaler(),
        prefill_min_replicas=1, prefill_max_replicas=4,
        decode_min_replicas=1, decode_max_replicas=4)
    workload = make_workload(np.arange(0.0, 1500.0, 25.0), tokens=4,
                             prompts=280)

    first = platform.run(workload, lambda o: VanillaTokenPolicy())
    second = platform.run(workload, lambda o: VanillaTokenPolicy())

    def stream(metrics):
        return [(t.sequence_id, t.token_index, t.release_ms)
                for replica in metrics.replicas for t in replica.tokens]

    assert stream(first) == stream(second)
    assert first.summary() == second.summary()
    assert first.prefill_fleet_timeline == second.prefill_fleet_timeline
    assert first.fleet_timeline == second.fleet_timeline


# -------------------------------------------------- independent pool sizing

def test_pools_scale_independently_under_prompt_pressure():
    """A prompt-heavy burst (huge prompts, tiny outputs) grows the prefill
    pool while the decode pool never needs to scale out."""
    platform = DisaggregatedPlatform(
        PrefillModel(SPEC), [decode_engine(max_batch_size=8)] * 2,
        prefill_replicas=1,
        prefill_autoscaler=fast_scaler(scale_out_load=3.0),
        decode_autoscaler=fast_scaler(),
        prefill_min_replicas=1, prefill_max_replicas=4,
        decode_min_replicas=1, decode_max_replicas=4)
    # 30 sequences in 1.5 s, 2048-token prompts (8 chunks = 144 ms each),
    # 2 output tokens: prefill-bound by construction.
    workload = make_workload(np.arange(0.0, 1500.0, 50.0), tokens=2,
                             prompts=2048)
    metrics = platform.run(workload, lambda o: VanillaTokenPolicy())
    assert token_multiset(metrics) == workload_multiset(workload)
    assert metrics.prefill_peak_replicas() > 1       # prefill pool grew
    assert metrics.peak_replicas() <= 2              # decode pool did not


# ------------------------------------------------------- deadline shedding

def test_deadline_shedding_sheds_doomed_sequences():
    platform = DisaggregatedPlatform(
        PrefillModel(SPEC), [decode_engine(max_batch_size=1)],
        prefill_replicas=1, ttft_slo_ms=4 * STEP_MS)
    # 8 promptless sequences arrive together on one decode slot; each takes
    # 3 steps, so later sequences blow the 4-step TTFT SLO while queueing.
    workload = make_workload([0.0] * 8, tokens=3, prompts=0)
    metrics = platform.run(workload, lambda o: VanillaTokenPolicy())
    merged = metrics.aggregate()
    shed = merged.num_shed()
    served = len(merged.sequence_accuracy)
    assert shed > 0
    assert served + shed == len(workload.sequences)
    served_tokens = sum(s.num_tokens for s in workload.sequences
                        if s.sequence_id not in merged.shed_sequence_ids)
    assert metrics.total_tokens() == served_tokens
    assert merged.ttft_values().max() <= 4 * STEP_MS + STEP_MS + 1e-9
    assert metrics.summary()["shed"] == float(shed)
    assert metrics.summary()["shed_rate"] == pytest.approx(shed / 8)


def test_deadline_shedding_counts_inslot_prefill_toward_the_slo():
    """The monolithic shed check runs on the time decode would start —
    in-slot prefill included — so a sequence whose prefill alone blows the
    TTFT SLO is shed before any compute is spent on it."""
    workload = make_workload([0.0], tokens=2, prompts=256)   # 18 ms prefill
    doomed = build_generative_cluster(SPEC, 1, max_batch_size=2,
                                      prefill_in_slot=True,
                                      ttft_slo_ms=0.5 * STEP_MS)
    merged = doomed.run(workload, lambda o: VanillaTokenPolicy()).aggregate()
    assert merged.shed_sequence_ids == [0]
    # Without the in-slot prefill the same wait (zero) makes the deadline.
    served = build_generative_cluster(SPEC, 1, max_batch_size=2,
                                      ttft_slo_ms=0.5 * STEP_MS) \
        .run(workload, lambda o: VanillaTokenPolicy()).aggregate()
    assert served.num_shed() == 0


def test_deadline_shedding_in_monolithic_cluster_and_engine():
    """For every generative system's policy, with the TTFT SLO off and on, a
    one-replica cluster sheds exactly the sequences the pre-fleet engine
    loop sheds and decodes the rest identically."""
    workload = make_workload([0.0] * 8, tokens=3, prompts=0)
    for system in ("vanilla", "apparate", "free", "optimal"):
        for ttft_slo_ms in (None, 4 * STEP_MS):
            case = (system, ttft_slo_ms)
            engine, policy = seed_engine_system(system, SPEC, workload,
                                                max_batch_size=1)
            cluster_metrics = build_generative_cluster(
                SPEC, 1, max_batch_size=1, ttft_slo_ms=ttft_slo_ms,
                ramp_overhead=engine.timing.ramp_overhead_fraction) \
                .run(workload, lambda o: policy).aggregate()
            engine, policy = seed_engine_system(system, SPEC, workload,
                                                max_batch_size=1)
            engine_metrics = seed_engine_run(engine, workload, policy,
                                             ttft_slo_ms)
            assert cluster_metrics.shed_sequence_ids == \
                engine_metrics.shed_sequence_ids, case
            assert cluster_metrics.tokens == engine_metrics.tokens, case
            # With no SLO nothing is shed (backwards compatibility).
            assert (engine_metrics.num_shed() > 0) == \
                (ttft_slo_ms is not None), case


# ------------------------------------------------------------- TTFT metrics

def test_ttft_reported_for_single_engine_runs():
    workload = make_workload([0.0, 0.0, 0.0], tokens=2, prompts=0)
    metrics = Experiment(model=SPEC, workload=workload, max_batch_size=1) \
        .run(["vanilla"]).result("vanilla").raw.aggregate()
    # Slot queueing counts into TTFT: 18, 36+18? -> waits 0/36/72 + step.
    np.testing.assert_allclose(sorted(metrics.ttft_values()),
                               [STEP_MS, 3 * STEP_MS, 5 * STEP_MS])
    summary = metrics.summary()
    assert summary["ttft_p99_ms"] > 0.0
    assert summary["ttft_mean_ms"] == pytest.approx(3 * STEP_MS)


def test_monolithic_inslot_prefill_counts_into_ttft():
    """prefill_in_slot charges the prompt's chunks (stretched by busy decode
    slots) on the claiming replica, visible in TTFT but not in decode TPT."""
    workload = make_workload([0.0], tokens=2, prompts=256)
    cluster = build_generative_cluster(SPEC, 1, max_batch_size=2,
                                       prefill_in_slot=True)
    merged = cluster.run(workload, lambda o: VanillaTokenPolicy()).aggregate()
    # Idle replica: no interference, so exactly one chunk + first step.
    assert merged.ttft_values() == pytest.approx([2 * STEP_MS])
    np.testing.assert_allclose(merged.tpt_values()[1:], [STEP_MS])

    # A busy replica stretches the in-slot prefill by the contention factor.
    busy = make_workload([0.0, 0.0], tokens=4, prompts=256)
    merged = cluster.run(busy, lambda o: VanillaTokenPolicy()).aggregate()
    ttfts = sorted(merged.ttft_values())
    assert ttfts[0] == pytest.approx(2 * STEP_MS)            # first: idle
    assert ttfts[1] == pytest.approx(3 * STEP_MS)            # second: 1 busy slot


# ------------------------------------------------------- experiment dispatch

def _disagg_run(workload, system, **cluster):
    spec = ClusterSpec(disaggregate=True, **cluster)
    return Experiment(model=SPEC, workload=workload, cluster=spec) \
        .run([system]).result(system).raw


def test_disagg_experiment_dispatch(small_generative_workload):
    metrics = _disagg_run(small_generative_workload, "vanilla",
                          prefill_replicas=1, decode_replicas=2)
    assert isinstance(metrics, DisaggregatedMetrics)
    assert metrics.total_tokens() == small_generative_workload.total_tokens()

    outcome = _disagg_run(small_generative_workload, "apparate",
                          prefill_replicas=1, decode_replicas=2,
                          fleet_mode="shared")
    assert len(set(id(p) for p in outcome.policies)) == 1    # one shared policy
    assert outcome.metrics.total_tokens() == \
        small_generative_workload.total_tokens()


def test_disagg_conserves_tokens_vs_single_engine():
    workload = make_generative_workload("cnn-dailymail", num_sequences=60,
                                        rate_qps=10.0, seed=5)
    single = Experiment(model=SPEC, workload=workload).run(["vanilla"]) \
        .result("vanilla").raw.aggregate()
    disagg = _disagg_run(workload, "vanilla", prefill_replicas=2,
                         decode_replicas=4)
    single_ids = Counter((t.sequence_id, t.token_index) for t in single.tokens)
    assert token_multiset(disagg) == single_ids


def test_disagg_summary_is_nan_safe():
    """A sentinel NaN/inf delay (a sequence that never finished its stage)
    must not leak into the JSON-bound summary; empty maps mean 0.0."""
    metrics = DisaggregatedMetrics()
    assert metrics.mean_prefill_delay_ms() == 0.0
    assert metrics.mean_transfer_ms() == 0.0

    metrics.prefill_delays_ms.update({0: 10.0, 1: float("nan"), 2: 30.0})
    metrics.transfer_delays_ms.update({0: float("nan"), 1: float("inf")})
    assert metrics.mean_prefill_delay_ms() == pytest.approx(20.0)
    assert metrics.mean_transfer_ms() == 0.0

    summary = metrics.summary()
    assert summary["prefill_delay_mean_ms"] == pytest.approx(20.0)
    assert summary["transfer_ms_mean"] == 0.0
    assert all(np.isfinite(v) for k, v in summary.items()
               if k.startswith(("prefill_", "transfer_")))
