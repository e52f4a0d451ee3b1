"""KV-cache accounting, eviction events and KV-aware placement.

Covers the resource-view refactor end to end: the per-replica
:class:`KVCacheAccountant` (admission, prefix reuse, LRU eviction with
recompute charges), the KV-aware cost balancers and their per-kind registry,
the spec-layer validation of the new knobs, and the platform guarantee that
the cache model is strictly additive — with the budget off (or effectively
unbounded and no prefix structure) runs are bit-identical to the
pre-existing behaviour.
"""

import numpy as np
import pytest

from repro.api import ClusterSpec, Experiment, WorkloadSpec
from repro.cli import build_parser
from repro.core.generative import build_generative_cluster
from repro.generative.decoding import KVCacheAccountant, kv_bytes_per_token
from repro.generative.sequences import SequenceSample, make_generative_workload
from repro.models.zoo import get_model
from repro.serving.cluster import (KVAwareLeastWorkBalancer,
                                   PrefixAffinityBalancer, balancer_names,
                                   build_balancer, canonical_balancer_name)
from repro.serving.hf_pipelines import VanillaTokenPolicy

SPEC = get_model("t5-large")
BPT = kv_bytes_per_token(SPEC)


def sample(seq_id, prompt=100, out=10, group=None, shared=0):
    return SequenceSample(sequence_id=seq_id, arrival_ms=0.0,
                          token_difficulty=np.full(out, 0.3),
                          token_sharpness=np.full(out, 0.05),
                          prompt_tokens=prompt, prefix_group=group,
                          shared_prefix_tokens=shared)


def accountant(capacity_tokens, recompute_ms_per_token=0.0):
    """Token-denominated accountant (bytes_per_token=1)."""
    return KVCacheAccountant(capacity_bytes=float(capacity_tokens),
                             bytes_per_token=1.0,
                             recompute_ms_per_token=recompute_ms_per_token)


# ------------------------------------------------------------- accountant

def test_admit_charges_full_footprint():
    kv = accountant(1e6)
    hit = kv.admit(sample(0, prompt=100, out=10), completion_ms=50.0)
    assert hit == 0
    assert kv.used_tokens == 110
    assert kv.hit_tokens == 0 and kv.miss_tokens == 100
    assert len(kv) == 1


def test_admission_tokens_matches_used_delta():
    kv = accountant(1e6)
    for s in (sample(0, prompt=80, out=5),
              sample(1, prompt=60, out=7, group=3, shared=40),
              sample(2, prompt=90, out=2, group=3, shared=40)):
        expected = kv.admission_tokens(s)
        before = kv.used_tokens
        kv.admit(s, completion_ms=1e9)
        assert kv.used_tokens - before == expected


def test_shared_prefix_stored_once_and_hits():
    kv = accountant(1e6)
    first = kv.admit(sample(0, prompt=100, out=10, group=7, shared=40), 1e9)
    second = kv.admit(sample(1, prompt=90, out=5, group=7, shared=40), 1e9)
    assert first == 0 and second == 40
    # 40 shared tokens charged once: (100-40+10) + 40 + (90-40+5).
    assert kv.used_tokens == 70 + 40 + 55
    assert kv.hit_tokens == 40 and kv.miss_tokens == 100 + 50


def test_prefix_hit_is_a_pure_peek():
    kv = accountant(1e6)
    member = sample(0, prompt=100, out=10, group=7, shared=40)
    assert kv.prefix_hit_tokens(member) == 0
    assert kv.used_tokens == 0 and len(kv) == 0
    kv.admit(member, 1e9)
    assert kv.prefix_hit_tokens(sample(1, prompt=50, out=3, group=7,
                                       shared=40)) == 40


def test_finished_sequences_evict_for_free():
    kv = accountant(150)
    kv.admit(sample(0, prompt=100, out=10), completion_ms=50.0)
    kv.admit(sample(1, prompt=100, out=10), completion_ms=1e9)
    assert kv.needs_eviction()
    charges = kv.evict_to_fit(now_ms=100.0)   # seq 0 already finished
    assert charges == []
    assert kv.evictions == 1 and kv.evicted_tokens == 110
    assert kv.recompute_tokens == 0
    assert not kv.over_capacity()


def test_running_victim_pays_recompute():
    kv = accountant(150, recompute_ms_per_token=2.0)
    kv.admit(sample(0, prompt=100, out=10), completion_ms=1e9)
    kv.admit(sample(1, prompt=100, out=10), completion_ms=1e9)
    charges = kv.evict_to_fit(now_ms=0.0)
    assert charges == [(0, 220.0)]            # LRU victim, 110 tokens * 2 ms
    assert kv.recompute_tokens == 110
    assert 0 not in kv._resident and 1 in kv._resident


def test_mru_is_never_evicted():
    kv = accountant(50)
    kv.admit(sample(0, prompt=100, out=10), completion_ms=1e9)
    assert kv.over_capacity() and not kv.needs_eviction()
    assert kv.evict_to_fit(now_ms=0.0) == []  # oversized singleton tolerated
    assert kv.over_capacity()


def test_group_tokens_freed_with_last_member():
    kv = accountant(70)
    kv.admit(sample(0, prompt=60, out=5, group=1, shared=40), 1e9)
    kv.admit(sample(1, prompt=50, out=5, group=1, shared=40), 1e9)
    assert kv.used_tokens == 40 + 25 + 15     # prefix charged once
    kv.evict_to_fit(now_ms=0.0)               # evicts seq 0 (25 unique)
    assert kv.used_tokens == 40 + 15          # prefix survives with seq 1
    kv.admit(sample(2, prompt=200, out=10), 1e9)
    kv.evict_to_fit(now_ms=0.0)               # seq 1 out -> prefix freed too
    assert 1 not in kv._resident
    assert kv._group_tokens == {} and kv._group_refs == {}


def test_counters_conserved_over_admissions():
    kv = accountant(1e6)
    samples = [sample(i, prompt=50 + 7 * i, out=5,
                      group=(i % 2 if i % 3 else None),
                      shared=(30 if i % 3 else 0)) for i in range(12)]
    for s in samples:
        kv.admit(s, completion_ms=1e9)
    assert kv.hit_tokens + kv.miss_tokens == sum(s.prompt_tokens
                                                 for s in samples)


def test_accountant_rejects_bad_parameters():
    with pytest.raises(ValueError):
        KVCacheAccountant(capacity_bytes=0.0, bytes_per_token=1.0)
    with pytest.raises(ValueError):
        KVCacheAccountant(capacity_bytes=float("inf"), bytes_per_token=1.0)
    with pytest.raises(ValueError):
        KVCacheAccountant(capacity_bytes=1.0, bytes_per_token=0.0)
    with pytest.raises(ValueError):
        KVCacheAccountant(capacity_bytes=1.0, bytes_per_token=1.0,
                          recompute_ms_per_token=-1.0)


# ------------------------------------------------- KV-aware balancer costs

class _View:
    """A stub resource view exposing the replica cost signals."""

    def __init__(self, work=0.0, hit_ms=0.0, overflow_ms=0.0):
        self._work, self._hit_ms, self._overflow = work, hit_ms, overflow_ms

    def work_left_ms(self, now_ms):
        return self._work

    def kv_prefix_hit_ms(self, item):
        return self._hit_ms

    def kv_overflow_ms(self, item, now_ms):
        return self._overflow


def test_prefix_affinity_prefers_residency_over_less_work():
    # Replica 1 is busier, but its resident prefix saves more prefill than
    # the extra queueing costs: net placement there is cheaper.
    balancer = PrefixAffinityBalancer()
    views = [_View(work=0.0), _View(work=100.0, hit_ms=150.0)]
    assert balancer.choose(object(), views, now_ms=0.0) == 1


def test_prefix_affinity_spills_instead_of_herding():
    # Once the resident replica's queue outgrows the prefill saving, the
    # group spills to an idle replica rather than piling onto the hotspot.
    balancer = PrefixAffinityBalancer()
    views = [_View(work=0.0), _View(work=500.0, hit_ms=150.0)]
    assert balancer.choose(object(), views, now_ms=0.0) == 0


def test_prefix_affinity_avoids_thrashing_replicas():
    balancer = PrefixAffinityBalancer()
    views = [_View(work=0.0, overflow_ms=400.0),
             _View(work=100.0, hit_ms=50.0)]
    assert balancer.choose(object(), views, now_ms=0.0) == 1


def test_prefix_affinity_falls_back_to_least_work():
    balancer = PrefixAffinityBalancer()
    views = [_View(work=300.0), _View(work=100.0)]
    assert balancer.choose(object(), views, now_ms=0.0) == 1


def test_kv_aware_least_work_adds_overflow_penalty():
    balancer = KVAwareLeastWorkBalancer()
    # Replica 0 has the shorter queue but would thrash its cache.
    views = [_View(work=100.0, overflow_ms=500.0), _View(work=200.0)]
    assert balancer.choose(object(), views, now_ms=0.0) == 1
    # No overflow anywhere -> exactly least_work_left.
    views = [_View(work=100.0), _View(work=200.0)]
    assert balancer.choose(object(), views, now_ms=0.0) == 0


# ------------------------------------ registry reachability and messages

@pytest.mark.parametrize("kind", ["classification", "generative"])
def test_every_registered_balancer_is_constructible(kind):
    for name in balancer_names(kind):
        balancer = build_balancer(name, kind=kind)
        assert balancer.name == name


def test_kv_balancers_are_generative_only():
    classification = set(balancer_names("classification"))
    generative = set(balancer_names("generative"))
    assert {"kv_aware_least_work", "prefix_affinity"} <= generative
    assert not {"kv_aware_least_work", "prefix_affinity"} & classification
    assert set(balancer_names()) == classification | generative


@pytest.mark.parametrize("kind", [None, "classification", "generative"])
def test_unknown_balancer_error_enumerates_kind_names(kind):
    with pytest.raises(ValueError) as excinfo:
        build_balancer("no-such-policy", kind=kind)
    message = str(excinfo.value)
    for name in balancer_names(kind):
        assert name in message


def test_wrong_kind_error_enumerates_alternatives():
    with pytest.raises(ValueError) as excinfo:
        build_balancer("prefix_affinity", kind="classification")
    message = str(excinfo.value)
    assert "classification" in message
    for name in balancer_names("classification"):
        assert name in message
    assert canonical_balancer_name("prefix_affinity", kind="generative") \
        == "prefix_affinity"


def test_cli_balancer_strings_reach_the_registry():
    """Every CLI-acceptable spelling builds the balancer it names."""
    parser = build_parser()
    for name in balancer_names("generative"):
        args = parser.parse_args(["run", "--balancer", name])
        assert build_balancer(args.balancer, kind="generative").name == name
    for name in balancer_names("classification"):
        args = parser.parse_args(["run", "--balancer", name])
        assert build_balancer(args.balancer, kind="classification").name == name
    # Hyphenated spellings normalize to the registry key.
    args = parser.parse_args(["run", "--balancer", "prefix-affinity"])
    assert args.balancer == "prefix_affinity"


# ----------------------------------------------------- spec validation

def test_prefix_knobs_rejected_on_non_generative_workloads():
    with pytest.raises(ValueError, match="generative"):
        WorkloadSpec(kind="video", source="urban-day", requests=10,
                     prefix_groups=2)


def test_prefix_knob_ranges_validated():
    with pytest.raises(ValueError):
        WorkloadSpec(kind="generative", requests=10, prefix_groups=-1)
    with pytest.raises(ValueError):
        WorkloadSpec(kind="generative", requests=10, prefix_groups=2,
                     prefix_share=0.0)
    with pytest.raises(ValueError):
        WorkloadSpec(kind="generative", requests=10, prefix_groups=2,
                     prefix_tokens=0)
    # Inert when disabled: out-of-range share is fine with groups=0.
    WorkloadSpec(kind="generative", requests=10, prefix_groups=0)


@pytest.mark.parametrize("capacity", [0.0, -1.0, float("nan"), float("inf")])
def test_cluster_spec_rejects_bad_kv_capacity(capacity):
    with pytest.raises(ValueError, match="kv_capacity"):
        ClusterSpec(replicas=2, kv_capacity=capacity)


def test_kv_capacity_rejected_on_classification_models():
    experiment = Experiment(
        model="resnet50",
        workload=WorkloadSpec.parse("video:urban-day", requests=50),
        cluster=ClusterSpec(replicas=2, kv_capacity=1e9))
    with pytest.raises(ValueError, match="generative"):
        experiment.kind


# ------------------------------------------------- workload prefix stream

def test_prefix_structure_leaves_existing_streams_untouched():
    base = make_generative_workload("squad", num_sequences=30, rate_qps=4.0,
                                    seed=11)
    prefixed = make_generative_workload("squad", num_sequences=30,
                                        rate_qps=4.0, seed=11,
                                        prefix_groups=6, prefix_share=0.9,
                                        prefix_tokens=128)
    assert any(s.prefix_group is not None for s in prefixed.sequences)
    for a, b in zip(base.sequences, prefixed.sequences):
        assert a.arrival_ms == b.arrival_ms
        assert np.array_equal(a.token_difficulty, b.token_difficulty)
        assert np.array_equal(a.token_sharpness, b.token_sharpness)
        # Shared tokens are *prepended*: the base prompt draw is unchanged.
        assert b.prompt_tokens - b.shared_prefix_tokens == a.prompt_tokens


# --------------------------------------------------- platform end-to-end

def _run_cluster(workload, **kwargs):
    cluster = build_generative_cluster("t5-large", 2, seed=0, **kwargs)
    policy = VanillaTokenPolicy()
    return cluster.run(workload, lambda ordinal: policy)


def test_unbounded_kv_capacity_is_bit_identical_to_off():
    workload = make_generative_workload("squad", num_sequences=40,
                                        rate_qps=4.0, seed=3)
    base = _run_cluster(workload, balancer="least_work_left")
    kv = _run_cluster(workload, balancer="least_work_left", kv_capacity=1e15)
    base_summary = base.summary()
    kv_summary = kv.summary()
    assert "kv_hit_rate" not in base_summary
    assert kv_summary["kv_evictions"] == 0
    assert {k: v for k, v in kv_summary.items()
            if not k.startswith("kv_")} == base_summary


def test_kv_balancers_match_least_work_without_cache_model():
    """With no capacity the KV signals read 0 on every replica, so both new
    policies must make exactly least_work_left's choices."""
    workload = make_generative_workload("squad", num_sequences=40,
                                        rate_qps=4.0, seed=3)
    reference = _run_cluster(workload, balancer="least_work_left").summary()
    for balancer in ("kv_aware_least_work", "prefix_affinity"):
        assert _run_cluster(workload, balancer=balancer).summary() \
            == reference


def test_tiny_capacity_evicts_and_conserves_token_counters():
    workload = make_generative_workload("squad", num_sequences=40,
                                        rate_qps=6.0, seed=5,
                                        prefix_groups=4, prefix_share=0.9,
                                        prefix_tokens=128)
    metrics = _run_cluster(workload, balancer="prefix_affinity",
                           prefill_in_slot=True,
                           kv_capacity=300.0 * BPT)
    aggregate = metrics.aggregate()
    assert aggregate.kv_enabled
    assert aggregate.kv_evictions > 0 and aggregate.kv_evicted_tokens > 0
    # Every served sequence is admitted exactly once: hit + miss covers the
    # full prompt-token volume of the workload.
    assert aggregate.kv_hit_tokens + aggregate.kv_miss_tokens \
        == workload.total_prompt_tokens()
    summary = metrics.summary()
    total = aggregate.kv_hit_tokens + aggregate.kv_miss_tokens
    assert summary["kv_hit_rate"] == pytest.approx(
        aggregate.kv_hit_tokens / total)
    assert summary["kv_evictions"] == aggregate.kv_evictions
    assert summary["kv_recompute_tokens"] == aggregate.kv_recompute_tokens


def test_prefix_affinity_earns_hits_under_shared_prefix_load():
    workload = make_generative_workload("squad", num_sequences=60,
                                        rate_qps=6.0, seed=7,
                                        prefix_groups=4, prefix_share=0.9,
                                        prefix_tokens=160)
    affine = _run_cluster(workload, balancer="prefix_affinity",
                          prefill_in_slot=True,
                          kv_capacity=4000.0 * BPT).aggregate()
    blind = _run_cluster(workload, balancer="least_work_left",
                         prefill_in_slot=True,
                         kv_capacity=4000.0 * BPT).aggregate()
    assert affine.kv_hit_tokens > 0
    assert affine.kv_hit_tokens >= blind.kv_hit_tokens
