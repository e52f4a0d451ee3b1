"""Tests for the declarative Experiment facade: runs, sweeps, JSON."""

import json

import pytest

from repro.api import (ClusterSpec, Experiment, ExitPolicySpec, WorkloadSpec,
                       KIND_CLASSIFICATION, KIND_GENERATIVE)
from repro.baselines.static_ee import StaticEEVariant
from repro.exits.ramps import RampStyle


WORKLOAD = WorkloadSpec("video", "urban-day", requests=500)


# ------------------------------------------------------------------- basics

def test_kind_dispatch():
    """The kind is the model family; the topology lives in the cluster spec,
    and "no cluster" is a fleet of one."""
    single = Experiment(model="resnet50", workload=WORKLOAD)
    assert single.kind == KIND_CLASSIFICATION
    assert single.cluster == ClusterSpec() == ClusterSpec(replicas=1)
    assert Experiment(model="resnet50", workload=WORKLOAD,
                      cluster=None).cluster == single.cluster
    assert single.describe()["cluster"]["replicas"] == 1
    assert Experiment(model="resnet50", workload=WORKLOAD,
                      cluster=ClusterSpec(replicas=2)).kind == KIND_CLASSIFICATION
    generative = Experiment(model="t5-large",
                            workload=WorkloadSpec("generative", requests=10))
    assert generative.kind == KIND_GENERATIVE


def test_run_produces_report_with_named_metrics():
    report = Experiment(model="resnet50", workload=WORKLOAD, seed=3) \
        .run(["vanilla", "apparate"])
    assert report.systems() == ["vanilla", "apparate"]
    for system in ("vanilla", "apparate"):
        summary = report.result(system).summary
        assert {"p50_ms", "p95_ms", "throughput_qps", "accuracy"} <= set(summary)
    assert report.result("apparate").metric("exit_rate") > 0.0


def test_run_rejects_mismatched_workload_kind():
    with pytest.raises(ValueError, match="generative"):
        Experiment(model="t5-large", workload=WORKLOAD).run(["vanilla"])
    with pytest.raises(ValueError, match="resnet50"):
        Experiment(model="resnet50",
                   workload=WorkloadSpec("generative", requests=10)).run(["vanilla"])


def test_run_rejects_unsupported_system_for_kind():
    with pytest.raises(ValueError, match="free"):
        Experiment(model="resnet50", workload=WORKLOAD).run(["free"])
    with pytest.raises(ValueError, match="static_ee"):
        Experiment(model="t5-large",
                   workload=WorkloadSpec("generative", requests=5)) \
            .run(["static_ee"])


def test_spec_validation_names_the_offending_value():
    with pytest.raises(ValueError, match="-3"):
        ClusterSpec(replicas=-3)
    with pytest.raises(ValueError, match="coin_flip"):
        ClusterSpec(balancer="coin_flip")
    with pytest.raises(ValueError, match="anarchic"):
        ClusterSpec(fleet_mode="anarchic")
    with pytest.raises(ValueError, match="audio"):
        WorkloadSpec("audio")
    with pytest.raises(ValueError, match="-0.5"):
        ExitPolicySpec(accuracy_constraint=-0.5)


def test_unknown_ramp_style_raises_value_error_naming_the_key():
    with pytest.raises(ValueError, match="ramp_style.*'bogus'.*lightweight"):
        ExitPolicySpec(ramp_style="bogus")
    with pytest.raises(ValueError, match="ramp_style"):
        ExitPolicySpec(ramp_style=None)
    # Valid spellings keep working and describe the same way.
    assert ExitPolicySpec(ramp_style="conv_heavy").ramp_style is RampStyle.CONV_HEAVY
    assert ExitPolicySpec(ramp_style="lightweight") == ExitPolicySpec()
    assert ExitPolicySpec(ramp_style="lightweight").describe() \
        == ExitPolicySpec().describe()
    assert ExitPolicySpec().describe()["ramp_style"] == "lightweight"


def test_sweep_over_an_unknown_ramp_style_fails_before_running(monkeypatch):
    import repro.api.registry as registry
    ran = []
    monkeypatch.setattr(
        registry.SystemRunner, "run",
        lambda self, experiment, **kw: ran.append(self.name))
    experiment = Experiment(model="resnet50",
                            workload=WorkloadSpec("video", requests=100))
    with pytest.raises(ValueError, match="ramp_style.*'bogus'"):
        experiment.sweep(systems=["apparate"],
                         ramp_style=["lightweight", "bogus"])
    assert ran == []
    monkeypatch.undo()
    report = experiment.sweep(systems=["apparate"],
                              ramp_style=["lightweight", "conv_heavy"])
    assert [p.params["ramp_style"] for p in report.points] \
        == ["lightweight", "conv_heavy"]
    assert all(p.error is None for p in report.points)


# ----------------------------------------------------------- system knobs

def test_system_overrides_reach_the_runner(small_video_workload):
    """Per-system overrides carry knobs only one system understands."""
    report = Experiment(
        model="resnet50", workload=small_video_workload, seed=4,
        overrides={"static_ee": {"variant": StaticEEVariant.PER_RAMP,
                                 "calibration_fraction": 0.2}}) \
        .run(["static_ee"])
    result = report.result("static_ee")
    assert result.details["variant"] == "per_ramp"
    assert result.raw.thresholds == result.details["thresholds"]
    assert len(result.details["thresholds"]) == result.summary["num_ramps"]


def test_ramp_adjustment_switch_holds_on_every_fleet():
    """Regression: the ablation switch used to be dropped on cluster specs,
    so a 2-replica fleet still ran 8 ramp adjustments here."""
    workload = WorkloadSpec("video", "urban-day", requests=1200, rate=60.0)
    ee = ExitPolicySpec(ramp_adjustment_enabled=False)
    for cluster in (ClusterSpec(), ClusterSpec(replicas=2)):
        result = Experiment(model="resnet50", workload=workload, ee=ee,
                            cluster=cluster).run(["apparate"]).result("apparate")
        assert result.summary["ramp_adjustments"] == 0.0
        assert result.summary["ramp_set_changes"] == 0.0
        assert result.summary["threshold_tunings"] > 0.0


def test_static_baselines_honour_drop_expired():
    """Regression: static_ee and two_layer used to drop expired requests
    whatever ``drop_expired`` said (static_ee dropped 80% of this overload
    either way)."""
    workload = WorkloadSpec("video", "urban-day", requests=1500, rate=300.0)
    dropping, keeping = (
        Experiment(model="resnet50", workload=workload, drop_expired=drop)
        .run(["static_ee", "two_layer"]) for drop in (True, False))
    assert dropping.result("static_ee").summary["drop_rate"] > 0.5
    assert keeping.result("static_ee").summary["drop_rate"] == 0.0
    assert keeping.result("static_ee").summary["num_served"] == 1500.0
    assert dropping.result("two_layer").raw.latencies_ms.size < 1500
    assert keeping.result("two_layer").raw.latencies_ms.size == 1500


def test_generative_cluster_runs_every_generative_system():
    """A cluster spec on a generative model dispatches to the generative
    fleet control plane (the old 'not yet supported' rejection is gone)."""
    experiment = Experiment(model="t5-large",
                            workload=WorkloadSpec("generative", requests=24),
                            cluster=ClusterSpec(replicas=4))
    assert experiment.kind == KIND_GENERATIVE
    report = experiment.run(["vanilla", "apparate", "free", "optimal"])
    for system in ("vanilla", "apparate", "free", "optimal"):
        summary = report.result(system).summary
        assert summary["num_replicas"] == 4.0
        assert summary["peak_replicas"] == 4.0
        assert {"tpt_p50_ms", "token_p99_ms", "dispatch_imbalance"} <= set(summary)


def test_remaining_unsupported_combinations_name_the_offenders():
    """Kind-unsupported systems raise naming the system, kind and model."""
    generative_cluster = Experiment(
        model="t5-large", workload=WorkloadSpec("generative", requests=5),
        cluster=ClusterSpec(replicas=2))
    with pytest.raises(ValueError, match="static_ee.*generative.*t5-large"):
        generative_cluster.run(["static_ee"])
    with pytest.raises(ValueError, match="two_layer"):
        generative_cluster.run(["two_layer"])
    with pytest.raises(ValueError, match="free.*classification.*resnet50"):
        Experiment(model="resnet50", workload=WORKLOAD,
                   cluster=ClusterSpec(replicas=2)).run(["free"])


def test_optimal_runs_on_the_experiment_drop_policy():
    """The oracle must be computed on the same drop_expired configuration."""
    workload = WorkloadSpec("video", requests=400, rate=240.0)
    report = Experiment(model="resnet50", workload=workload,
                        drop_expired=False, seed=0).run(["vanilla", "optimal"])
    assert report.result("vanilla").metric("num_served") == 400.0
    assert report.result("optimal").metric("num_served") == 400.0


def test_describe_records_all_run_shaping_knobs():
    experiment = Experiment(model="resnet50", workload=WORKLOAD,
                            drop_expired=False, max_batch_size=8,
                            ee=ExitPolicySpec(ramp_adjustment_enabled=False,
                                              initial_ramp_ids=(2, 5)))
    params = experiment.describe()
    assert params["drop_expired"] is False
    assert params["max_batch_size"] == 8
    assert params["ee"]["ramp_adjustment_enabled"] is False
    assert params["ee"]["initial_ramp_ids"] == [2, 5]


def test_overrides_keyed_by_alias_reach_the_canonical_system():
    experiment = Experiment(model="resnet50",
                            workload=WorkloadSpec("video", requests=100),
                            overrides={"static": {"variant": "per_ramp"}})
    result = experiment.run(["static_ee"]).result("static_ee")
    assert result.details["variant"] == "per_ramp"


def test_overrides_for_unknown_system_raise():
    experiment = Experiment(model="resnet50",
                            workload=WorkloadSpec("video", requests=100),
                            overrides={"static_eee": {"variant": "per_ramp"}})
    with pytest.raises(ValueError, match="static_eee"):
        experiment.run(["static_ee"])


def test_unknown_override_keyword_raises_value_error():
    experiment = Experiment(model="resnet50",
                            workload=WorkloadSpec("video", requests=100),
                            overrides={"vanilla": {"bogus_knob": 1}})
    with pytest.raises(ValueError, match="bogus_knob"):
        experiment.run(["vanilla"])


# -------------------------------------------------------------------- sweeps

def test_sweep_over_replicas_and_balancer():
    experiment = Experiment(model="resnet50",
                            workload=WorkloadSpec("video", requests=300))
    sweep = experiment.sweep(systems=["vanilla"], replicas=[1, 2],
                             balancer=["round_robin", "join_shortest_queue"])
    assert len(sweep) == 4
    assert [p.params for p in sweep][:2] == [
        {"replicas": 1, "balancer": "round_robin"},
        {"replicas": 1, "balancer": "join_shortest_queue"},
    ]
    for point in sweep:
        assert point.report.result("vanilla").kind == KIND_CLASSIFICATION
        assert point.report.result("vanilla").metric("num_served") == 300.0


def test_sweep_is_deterministic():
    experiment = Experiment(model="resnet50",
                            workload=WorkloadSpec("video", requests=300), seed=9)
    first = experiment.sweep(systems=["vanilla", "apparate"], replicas=[1, 2])
    second = experiment.sweep(systems=["vanilla", "apparate"], replicas=[1, 2])
    assert first.to_json() == second.to_json()


def test_sweep_rejects_unknown_parameter():
    experiment = Experiment(model="resnet50", workload=WORKLOAD)
    with pytest.raises(ValueError, match="voltage"):
        experiment.sweep(voltage=[1, 2])


def test_sweep_validates_whole_grid_before_running(monkeypatch):
    """A bad value anywhere in the grid must fail before any point runs."""
    import repro.api.registry as registry
    ran = []
    monkeypatch.setattr(
        registry.SystemRunner, "run",
        lambda self, experiment, **kw: ran.append(self.name))
    experiment = Experiment(model="resnet50",
                            workload=WorkloadSpec("video", requests=100))
    with pytest.raises(ValueError, match="coin_flip"):
        experiment.sweep(systems=["vanilla"],
                         balancer=["round_robin", "coin_flip"])
    assert ran == [], "grid points ran before the grid was fully validated"


def test_sweep_workload_axis_requires_spec(small_video_workload):
    experiment = Experiment(model="resnet50", workload=small_video_workload)
    with pytest.raises(ValueError, match="WorkloadSpec"):
        experiment.sweep(requests=[100, 200])


def test_sweep_shares_workload_when_no_workload_axis(monkeypatch):
    """Sweeping replicas must not regenerate the identical workload per point."""
    builds = []
    original_build = WorkloadSpec.build

    def counting_build(self, default_seed=0):
        builds.append(default_seed)
        return original_build(self, default_seed)

    monkeypatch.setattr(WorkloadSpec, "build", counting_build)
    experiment = Experiment(model="resnet50",
                            workload=WorkloadSpec("video", requests=100))
    experiment.sweep(systems=["vanilla"], replicas=[1, 2, 4])
    assert len(builds) == 1
    # Sweeping the seed must rebuild, since the trace depends on it.
    builds.clear()
    experiment2 = Experiment(model="resnet50",
                             workload=WorkloadSpec("video", requests=100))
    experiment2.sweep(systems=["vanilla"], replicas=[1], seed=[0, 1])
    assert len(builds) == 2


def test_sweep_scalar_values_are_promoted_to_axes():
    experiment = Experiment(model="resnet50",
                            workload=WorkloadSpec("video", requests=200))
    sweep = experiment.sweep(systems=["vanilla"], replicas=2, seed=5)
    assert len(sweep) == 1
    assert sweep.points[0].params == {"replicas": 2, "seed": 5}


# ---------------------------------------------------- disaggregated serving

def test_disagg_kind_dispatch_and_validation():
    generative = WorkloadSpec("generative", requests=10)
    disagg = Experiment(model="t5-large", workload=generative,
                        cluster=ClusterSpec(replicas=2, disaggregate=True))
    assert disagg.kind == KIND_GENERATIVE
    assert disagg.describe()["cluster"]["disaggregate"] is True
    # A non-generative model cannot disaggregate.
    with pytest.raises(ValueError, match="disaggregate.*generative"):
        Experiment(model="resnet50", workload=WORKLOAD,
                   cluster=ClusterSpec(replicas=2, disaggregate=True)).kind


def test_cluster_spec_rejects_pool_keys_without_disaggregate():
    """Pool knobs on a monolithic spec would be silently dead configuration,
    so construction rejects them naming the offending key."""
    with pytest.raises(ValueError, match="prefill_replicas"):
        ClusterSpec(replicas=2, prefill_replicas=3)
    with pytest.raises(ValueError, match="decode_autoscaler"):
        ClusterSpec(replicas=2, decode_autoscaler="reactive")


def test_cluster_spec_rejects_fleet_sizing_keys_with_disaggregate():
    """The converse dead-configuration class: fleet-wide bounds/profiles
    have no meaning once the fleet is split into pools."""
    with pytest.raises(ValueError, match="min_replicas.*prefill"):
        ClusterSpec(replicas=2, disaggregate=True, autoscaler="reactive",
                    min_replicas=2)
    with pytest.raises(ValueError, match="profiles"):
        ClusterSpec(replicas=2, disaggregate=True, profiles="2,1")
    with pytest.raises(ValueError, match="prefill_in_slot"):
        ClusterSpec(replicas=2, disaggregate=True, prefill_in_slot=True)
    # describe() reports only the knobs that actually apply per deployment.
    disagg = ClusterSpec(replicas=2, disaggregate=True).describe()
    assert "min_replicas" not in disagg and "profiles" not in disagg
    assert "decode_min_replicas" in disagg


def test_prefill_in_slot_is_a_generative_cluster_knob():
    """prefill_in_slot reaches the monolithic generative fleet through the
    public spec surface (and is rejected on classification models)."""
    workload = WorkloadSpec("generative", requests=10, rate=20.0)
    spec = ClusterSpec(replicas=1, prefill_in_slot=True)
    inslot = Experiment(model="t5-large", workload=workload, cluster=spec) \
        .run(["vanilla"]).result("vanilla")
    free_prompts = Experiment(model="t5-large", workload=workload,
                              cluster=ClusterSpec(replicas=1)) \
        .run(["vanilla"]).result("vanilla")
    # Charging prefill in the decode slot can only lengthen TTFT.
    assert inslot.summary["ttft_mean_ms"] > free_prompts.summary["ttft_mean_ms"]
    with pytest.raises(ValueError, match="prefill_in_slot.*generative"):
        Experiment(model="resnet50", workload=WORKLOAD, cluster=spec).kind


def test_explicit_unknown_arrival_process_raises_per_kind():
    """An explicitly named process the kind's factory does not know raises
    instead of silently serving a different trace."""
    with pytest.raises(ValueError, match="maf"):
        WorkloadSpec("generative", requests=5, arrival_process="maf").build()
    with pytest.raises(ValueError, match="diurnal"):
        WorkloadSpec("nlp", requests=5, arrival_process="diurnal").build()
    # None picks each kind's default process.
    WorkloadSpec("generative", requests=5).build()
    WorkloadSpec("nlp", requests=5).build()


def test_disagg_runs_every_generative_system():
    experiment = Experiment(
        model="t5-large", workload=WorkloadSpec("generative", requests=24),
        cluster=ClusterSpec(replicas=2, disaggregate=True,
                            prefill_replicas=1, decode_replicas=3))
    report = experiment.run(["vanilla", "apparate", "free", "optimal"])
    for system in ("vanilla", "apparate", "free", "optimal"):
        result = report.result(system)
        assert result.kind == KIND_GENERATIVE
        assert result.params["cluster"]["disaggregate"] is True
        assert result.summary["prefill_replicas"] == 1.0
        assert result.summary["num_replicas"] == 3.0
        assert {"ttft_p99_ms", "ttft_mean_ms", "transfer_ms_mean",
                "prefill_replica_seconds"} <= set(result.summary)
        assert "prefill_fleet_timeline" in result.details
    json.dumps(report.to_json())     # fully JSON-safe


def test_ttft_surfaces_for_every_generative_kind():
    """TTFT (mean + p99) rides on RunResult for single-engine, cluster and
    disaggregated generative runs alike."""
    generative = WorkloadSpec("generative", requests=12)
    for cluster in (None, ClusterSpec(replicas=2),
                    ClusterSpec(replicas=2, disaggregate=True)):
        report = Experiment(model="t5-large", workload=generative,
                            cluster=cluster).run(["vanilla"])
        summary = report.result("vanilla").summary
        assert summary["ttft_p99_ms"] >= summary["tpt_p50_ms"]
        assert summary["ttft_mean_ms"] > 0.0
        assert "shed" in summary


def test_sweep_accepts_pool_keys_and_implies_disaggregate():
    """Regression: the cluster grid takes the per-pool keys (implying
    disaggregate=True) instead of silently ignoring them."""
    experiment = Experiment(model="t5-large",
                            workload=WorkloadSpec("generative", requests=16))
    sweep = experiment.sweep(systems=["vanilla"],
                             prefill_replicas=[1, 2], decode_replicas=2)
    assert len(sweep) == 2
    for point in sweep:
        result = point.report.result("vanilla")
        assert result.kind == KIND_GENERATIVE
        assert result.params["cluster"]["disaggregate"] is True
    assert [p.params["prefill_replicas"] for p in sweep] == [1, 2]
    assert sweep.results("vanilla")[0].summary["prefill_replicas"] == 1.0
    assert sweep.results("vanilla")[1].summary["prefill_replicas"] == 2.0


def test_sweep_rejects_unknown_cluster_key_naming_it():
    """Regression: an unknown cluster-grid key raises ValueError naming the
    key instead of being silently dropped."""
    experiment = Experiment(model="t5-large",
                            workload=WorkloadSpec("generative", requests=16))
    with pytest.raises(ValueError, match="prefill_replica_count"):
        experiment.sweep(systems=["vanilla"], prefill_replica_count=[1, 2])


# ---------------------------------------------------------------------- JSON

def test_report_to_json_round_trips():
    report = Experiment(model="resnet50",
                        workload=WorkloadSpec("video", requests=200), seed=1) \
        .run(["vanilla", "apparate"])
    payload = json.loads(json.dumps(report.to_json()))
    assert payload["schema"] == "repro.run_report/v2"
    assert payload["results"][0]["schema"] == "repro.run_result/v2"
    assert payload["params"]["cluster"]["replicas"] == 1
    assert [r["system"] for r in payload["results"]] == ["vanilla", "apparate"]
    assert payload["results"][0]["summary"]["num_served"] == 200.0
    assert payload["params"]["model"] == "resnet50"


def test_format_table_renders_missing_metrics_as_dash():
    report = Experiment(model="resnet50",
                        workload=WorkloadSpec("video", requests=150), seed=1) \
        .run(["vanilla", "two_layer"])
    table = report.format_table()
    assert "two-layer" in table
    assert "-" in table          # two_layer reports no drop_rate/throughput
    assert "median latency" in table
