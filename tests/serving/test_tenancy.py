"""Tests for the multi-tenant serving package: spec validation boundaries,
CLI parsing, dispatch-rank stamping (weighted-fair and strict-priority),
tenant assignment, the per-tenant rollups the platforms report, and whole
classification runs: the exit gate of an ``exits=false`` tenant and the
``tenant_backlog`` gauge."""

import dataclasses
import json

import numpy as np
import pytest

from repro.api import Experiment, WorkloadSpec
from repro.api.specs import ClusterSpec
from repro.serving import cluster as cluster_module
from repro.serving.cluster import ClusterPlatform, gate_exits
from repro.serving.pool import FleetRun
from repro.serving.platform import BatchResult
from repro.serving.request import Request
from repro.serving.tfserve import TFServingPlatform
from repro.tenancy import (TENANT_POLICIES, TenancyConfig, TenantSpec,
                           build_request_runtime, build_sequence_runtime,
                           coerce_tenancy, isolation_ratios, parse_tenants)
from repro.workloads.difficulty import InputSample


# ------------------------------------------------------------ spec validation

def test_tenant_spec_defaults():
    spec = TenantSpec(name="chat")
    assert spec.weight == 1.0
    assert spec.share is None
    assert spec.priority == "interactive"
    assert spec.allow_exits is True
    assert spec.class_rank == 0
    assert TenantSpec(name="b", priority="batch").class_rank == 1


@pytest.mark.parametrize("kwargs, match", [
    ({"name": ""}, "non-empty string"),
    ({"name": 7}, "non-empty string"),
    ({"name": "t", "weight": 0.0}, "weight must be positive"),
    ({"name": "t", "weight": -2.0}, "weight must be positive"),
    ({"name": "t", "weight": float("inf")}, "weight must be finite"),
    ({"name": "t", "weight": float("nan")}, "weight must be finite"),
    ({"name": "t", "share": 0.0}, r"share must be in \(0, 1\]"),
    ({"name": "t", "share": 1.5}, r"share must be in \(0, 1\]"),
    ({"name": "t", "priority": "urgent"}, "priority must be one of"),
    ({"name": "t", "slo_ms": 0.0}, "slo_ms must be positive"),
    ({"name": "t", "slo_ms": -10.0}, "slo_ms must be positive"),
    ({"name": "t", "ttft_slo_ms": -1.0}, "ttft_slo_ms must be >= 0"),
    ({"name": "t", "allow_exits": "yes"}, "allow_exits must be a bool"),
])
def test_tenant_spec_rejects_bad_values(kwargs, match):
    with pytest.raises(ValueError, match=match):
        TenantSpec(**kwargs)


def test_tenant_spec_boundary_values_accepted():
    assert TenantSpec(name="t", share=1.0).share == 1.0
    # ttft 0 is the documented "shedding disabled" spelling, not an error.
    assert TenantSpec(name="t", ttft_slo_ms=0.0).ttft_slo_ms == 0.0


def test_tenancy_config_validation():
    a, b = TenantSpec(name="a"), TenantSpec(name="b")
    with pytest.raises(ValueError, match="at least one tenant"):
        TenancyConfig(tenants=())
    with pytest.raises(ValueError, match="must be TenantSpec"):
        TenancyConfig(tenants=(a, "b"))
    with pytest.raises(ValueError, match="names must be unique"):
        TenancyConfig(tenants=(a, TenantSpec(name="a")))
    with pytest.raises(ValueError, match="tenant_policy must be one of"):
        TenancyConfig(tenants=(a, b), policy="fifo")
    with pytest.raises(ValueError, match="shares sum to"):
        TenancyConfig(tenants=(TenantSpec(name="a", share=0.8),
                               TenantSpec(name="b", share=0.8)))
    with pytest.raises(ValueError, match="must be 1 when all"):
        TenancyConfig(tenants=(TenantSpec(name="a", share=0.5),
                               TenantSpec(name="b", share=0.3)))
    with pytest.raises(ValueError, match="leave no traffic"):
        TenancyConfig(tenants=(TenantSpec(name="a", share=1.0), b))


def test_resolved_shares_split_remainder():
    config = TenancyConfig(tenants=(TenantSpec(name="a", share=0.5),
                                    TenantSpec(name="b"),
                                    TenantSpec(name="c")))
    shares = config.resolved_shares()
    assert shares == pytest.approx({"a": 0.5, "b": 0.25, "c": 0.25})
    assert sum(shares.values()) == pytest.approx(1.0)


# ------------------------------------------------------------------- parsing

def test_parse_tenants_full_clause():
    config = parse_tenants("chat:weight=4,slo=80,ttft=400;"
                           "batch:priority=batch,exits=false,share=0.2",
                           policy="strict_priority")
    assert config.policy == "strict_priority"
    chat, batch = config.tenants
    assert chat.name == "chat" and chat.weight == 4.0
    assert chat.slo_ms == 80.0 and chat.ttft_slo_ms == 400.0
    assert batch.priority == "batch" and not batch.allow_exits
    assert batch.share == 0.2
    assert "chat" in config.describe() and "strict_priority" in config.describe()


@pytest.mark.parametrize("text, match", [
    ("", "could not parse any tenants"),
    (";;", "could not parse any tenants"),
    ("chat:weight", "expected key=value"),
    ("chat:speed=3", "unknown key 'speed'"),
    ("chat:exits=maybe", "exits must be a boolean"),
])
def test_parse_tenants_rejects_bad_strings(text, match):
    with pytest.raises(ValueError, match=match):
        parse_tenants(text)


def test_coerce_tenancy_spellings():
    assert coerce_tenancy(None) is None
    config = TenancyConfig(tenants=(TenantSpec(name="a"),))
    assert coerce_tenancy(config) is config
    rewrapped = coerce_tenancy(config, policy="strict_priority")
    assert rewrapped.policy == "strict_priority"
    assert coerce_tenancy("a;b").names == ("a", "b")
    assert coerce_tenancy([TenantSpec(name="a")]).names == ("a",)
    with pytest.raises(ValueError, match="tenants must be"):
        coerce_tenancy(42)


def test_cluster_spec_validates_tenant_knobs():
    with pytest.raises(ValueError, match="tenant_policy must be one of"):
        ClusterSpec(tenant_policy="fifo")
    spec = ClusterSpec(tenants="a:weight=2;b", tenant_policy="strict_priority")
    assert spec.tenants.policy == "strict_priority"
    assert "tenants" in spec.describe()


# ------------------------------------------------------- ranks and assignment

def _sample(i):
    return InputSample(index=i, raw_difficulty=0.3, sharpness=0.05,
                       confidence_shift=0.0)


def _requests(n, tenant=None):
    return [Request(request_id=i, arrival_ms=float(i), sample=_sample(i),
                    slo_ms=1000.0, tenant=tenant or "default")
            for i in range(n)]


def test_strict_priority_ranks_interactive_before_batch():
    config = parse_tenants("fg;bg:priority=batch", policy="strict_priority")
    requests = [dataclasses.replace(r, tenant="fg" if i % 2 == 0 else "bg")
                for i, r in enumerate(_requests(10))]
    tagged, runtime = build_request_runtime(requests, config, seed=0)
    for request in tagged:
        assert request.rank == (0.0 if request.tenant == "fg" else 1.0)
    ordered = sorted(tagged, key=lambda r: (r.rank, r.arrival_ms, r.request_id))
    assert [r.tenant for r in ordered[:5]] == ["fg"] * 5


def test_weighted_fair_ranks_split_service_by_weight():
    """With both tenants backlogged, a 4:1 weight split serves ~4:1."""
    config = parse_tenants("heavy:weight=4;light:weight=1")
    requests = [dataclasses.replace(r, tenant="heavy" if i % 2 == 0 else "light")
                for i, r in enumerate(_requests(100))]
    tagged, runtime = build_request_runtime(requests, config, seed=0)
    ordered = sorted(tagged, key=lambda r: (r.rank, r.arrival_ms, r.request_id))
    head = [r.tenant for r in ordered[:50]]
    assert head.count("heavy") >= 35   # ~4:1 of the interleaved backlog


def test_pre_tagged_items_keep_their_tenant():
    config = parse_tenants("a;b")
    requests = _requests(20, tenant="b")
    tagged, runtime = build_request_runtime(requests, config, seed=0)
    assert all(r.tenant == "b" for r in tagged)
    assert runtime.counts == {"a": 0, "b": 20}


def test_tenant_assignment_follows_shares_and_is_seeded():
    config = parse_tenants("a:share=0.9;b:share=0.1")
    first = build_request_runtime(_requests(500), config, seed=7)[1]
    second = build_request_runtime(_requests(500), config, seed=7)[1]
    assert first.tenant_of == second.tenant_of
    assert first.counts["a"] > 400


def test_request_runtime_applies_slo_and_exit_overrides():
    config = parse_tenants("gold:slo=50;pinned:exits=false")
    tagged, runtime = build_request_runtime(_requests(200), config, seed=0)
    for request in tagged:
        if request.tenant == "gold":
            assert request.slo_ms == 50.0
        else:
            assert request.slo_ms == 1000.0
            assert request.request_id in runtime.no_exit_ids


def test_sequence_runtime_resolves_ttft_overrides():
    class Seq:
        def __init__(self, i):
            self.sequence_id = i
            self.arrival_ms = float(i)
            self.tenant = "strict" if i % 2 == 0 else "loose"

    config = parse_tenants("strict:ttft=200;loose:ttft=0")
    runtime = build_sequence_runtime([Seq(i) for i in range(10)], config, seed=0)
    for i in range(10):
        if i % 2 == 0:
            assert runtime.ttft_of[i] == 200.0
        else:
            assert runtime.ttft_of[i] is None   # 0 disables shedding


def test_untenanted_fast_path_returns_inputs_unchanged():
    requests = _requests(5)
    tagged, runtime = build_request_runtime(requests, None, seed=0)
    assert tagged == requests
    assert runtime is None
    assert build_sequence_runtime([], None, seed=0) is None


def test_reposition_keeps_fifo_for_equal_ranks():
    class Seq:
        def __init__(self, i, t):
            self.sequence_id = i
            self.arrival_ms = t

    config = parse_tenants("only")
    runtime = build_sequence_runtime([], config, seed=0)
    queue = []
    for i in range(5):
        queue.append(Seq(i, float(i)))
        runtime.reposition(queue)
    assert [s.sequence_id for s in queue] == [0, 1, 2, 3, 4]


# ------------------------------------------------------------------- rollups

def _executor(batch, batch_start_ms):
    return BatchResult(gpu_time_ms=8.0, result_offsets_ms=[8.0] * len(batch))


def test_cluster_reports_per_tenant_rollups():
    platforms = [TFServingPlatform(max_batch_size=4) for _ in range(2)]
    cluster = ClusterPlatform(platforms, balancer="round_robin",
                              tenancy="a:weight=3;b:weight=1")
    metrics = cluster.run(_requests(100), lambda ordinal: _executor)
    rollups = metrics.tenant_rollups
    assert set(rollups) == {"a", "b"}
    assert sum(stats["requests"] for stats in rollups.values()) == 100
    for stats in rollups.values():
        assert {"served", "p99_ms", "slo_attainment",
                "goodput_qps"} <= set(stats)


def test_untenanted_run_reports_no_rollups():
    platforms = [TFServingPlatform(max_batch_size=4) for _ in range(2)]
    cluster = ClusterPlatform(platforms, balancer="round_robin")
    metrics = cluster.run(_requests(50), lambda ordinal: _executor)
    assert metrics.tenant_rollups == {}


def test_isolation_ratios():
    mixed = {"a": {"p99_ms": 30.0}, "b": {"p99_ms": 90.0}}
    solo = {"a": {"p99_ms": 25.0}, "b": {"p99_ms": 0.0}}
    ratios = isolation_ratios(mixed, solo)
    assert ratios == pytest.approx({"a": 1.2})   # zero solo baselines skipped


def test_tenant_policies_tuple_is_the_public_contract():
    assert TENANT_POLICIES == ("weighted_fair", "strict_priority")


# ------------------------------------------------ whole runs with tenants

def _tenant_fleet(trace):
    """Apparate on a 2-replica resnet50 fleet shared by an interactive
    tenant and an exit-gated batch tenant."""
    return Experiment(model="resnet50",
                      workload=WorkloadSpec("video", "urban-day", requests=900,
                                            rate=200.0, seed=3),
                      cluster=ClusterSpec(replicas=2, balancer="join_shortest_queue",
                                          tenants="chat:weight=3;"
                                                  "batch:priority=batch,exits=false"),
                      trace=trace)


def test_exit_gated_tenant_never_exits(monkeypatch):
    rewritten = []

    def counting_gate(batch, result, gated_ids):
        gated = gate_exits(batch, result, gated_ids)
        rewritten.append(sum(a != b for a, b in zip(result.exited, gated.exited)))
        return gated

    monkeypatch.setattr(cluster_module, "gate_exits", counting_gate)
    result = _tenant_fleet(trace=True).run(["apparate"]).result("apparate")
    tenant_of = {span.request_id: span.tenant for span in result.trace.spans()}
    exits = {"chat": 0, "batch": 0}
    served = {"chat": 0, "batch": 0}
    for response in result.raw.metrics.aggregate().responses:
        tenant = tenant_of[response.request_id]
        served[tenant] += not response.dropped
        exits[tenant] += response.exited
    # The controller's thresholds let batch requests exit, and the gate
    # turned every one of those exits into a full-model result.
    assert sum(rewritten) > 0
    assert served["batch"] > 0 and exits["batch"] == 0
    assert exits["chat"] > 0


def test_tenant_backlog_gauge_counts_each_tenants_queued_requests(monkeypatch):
    samples = {}
    sample_tenant_backlog = FleetRun.sample_tenant_backlog

    def recording(self, now_ms, label=None):
        queued = [request_id for pool in self.pools for request_id in pool.queued_ids()]
        tenants = [request.tenant for pool in self.pools for entry in pool.serving
                   for request in entry.queue]
        assert len(tenants) == len(queued)
        backlog = {}
        for tenant in tenants:
            backlog[tenant] = backlog.get(tenant, 0) + 1
        samples[now_ms] = backlog
        sample_tenant_backlog(self, now_ms, label)

    monkeypatch.setattr(FleetRun, "sample_tenant_backlog", recording)
    traced = _tenant_fleet(trace=True).run(["vanilla"]).result("vanilla")
    gauges = {}
    for ts, name, value, _pool, tenant, _replica in traced.trace.gauges:
        if name == "tenant_backlog":
            gauges.setdefault(ts, {})[tenant] = value
    # Every sample reports each tenant with work queued, and only those.
    assert samples and all(gauges.get(ts, {}) == backlog for ts, backlog in samples.items())
    assert set(gauges) <= set(samples)
    assert {tenant for backlog in gauges.values() for tenant in backlog} == {"chat", "batch"}

    untraced = _tenant_fleet(trace=None).run(["vanilla"]).result("vanilla")
    traced_json, untraced_json = traced.to_json(), untraced.to_json()
    del traced_json["details"]["obs"], traced_json["params"]["trace"]
    assert json.dumps(traced_json) == json.dumps(untraced_json)
