"""End-to-end integration tests spanning workloads, platforms and Apparate."""

import pytest

from repro.api import Experiment, ExitPolicySpec
from repro.generative.sequences import make_generative_workload
from repro.workloads.nlp import make_nlp_workload
from repro.workloads.video import make_video_workload


def summaries(model, workload, systems=("vanilla", "apparate"), **experiment):
    """system -> summary on a one-replica fleet."""
    report = Experiment(model=model, workload=workload, **experiment) \
        .run(list(systems))
    return {name: report.result(name).summary for name in systems}


@pytest.mark.parametrize("model,scene", [("resnet18", "urban-day"), ("vgg11", "highway")])
def test_cv_end_to_end_latency_accuracy_throughput(model, scene):
    workload = make_video_workload(scene, num_frames=2500, seed=41)
    runs = summaries(model, workload)
    vanilla, apparate = runs["vanilla"], runs["apparate"]
    # Latency improves, accuracy within constraint, throughput preserved,
    # tail within the 2% ramp budget.
    assert apparate["p50_ms"] < vanilla["p50_ms"]
    assert apparate["accuracy"] >= 0.985
    assert apparate["throughput_qps"] >= vanilla["throughput_qps"] * 0.97
    assert apparate["p95_ms"] <= vanilla["p95_ms"] * 1.05


def test_nlp_end_to_end_on_both_platforms():
    workload = make_nlp_workload("amazon", num_requests=2500, rate_qps=20, seed=42)
    for platform in ("clockwork", "tfserve"):
        runs = summaries("bert-base", workload, platform=platform)
        assert runs["apparate"]["p50_ms"] <= runs["vanilla"]["p50_ms"]
        assert runs["apparate"]["accuracy"] >= 0.98


def test_apparate_between_vanilla_and_oracle():
    workload = make_video_workload("urban-day", num_frames=2500, seed=43)
    runs = summaries("resnet50", workload, ("vanilla", "apparate", "optimal"))
    assert runs["optimal"]["p50_ms"] <= runs["apparate"]["p50_ms"] \
        <= runs["vanilla"]["p50_ms"]


def test_accuracy_constraint_sweep_monotone_wins():
    """Figure 19: looser accuracy constraints never reduce latency savings."""
    workload = make_video_workload("urban-day", num_frames=2500, seed=44)
    medians = []
    for constraint in (0.01, 0.05):
        result = summaries("resnet50", workload, ("apparate",),
                           ee=ExitPolicySpec(accuracy_constraint=constraint))
        medians.append(result["apparate"]["p50_ms"])
        assert result["apparate"]["accuracy"] >= 1.0 - constraint - 0.01
    assert medians[1] <= medians[0] * 1.05


def test_ramp_budget_sweep_monotone_wins():
    """Table 3: larger ramp budgets never reduce median latency savings (much)."""
    workload = make_video_workload("urban-day", num_frames=2500, seed=45)
    small, large = (summaries("resnet50", workload, ("apparate",),
                              ee=ExitPolicySpec(ramp_budget=budget))["apparate"]
                    for budget in (0.02, 0.10))
    assert large["p50_ms"] <= small["p50_ms"] * 1.10


def test_generative_end_to_end():
    # Long-output summarization gives the adaptive policy enough token
    # feedback to both activate exits and hold the accuracy constraint.
    workload = make_generative_workload("cnn-dailymail", num_sequences=90, rate_qps=2.0,
                                        seed=46)
    runs = summaries("t5-large", workload)
    assert runs["apparate"]["tpt_p50_ms"] < runs["vanilla"]["tpt_p50_ms"]
    assert runs["apparate"]["sequence_accuracy"] >= 0.98


def test_full_api_round_trip():
    """Declare -> serve -> compare, through the public Experiment API only."""
    workload = make_video_workload("crossroads", num_frames=2000, seed=47)
    runs = summaries("resnet50", workload, seed=7,
                     ee=ExitPolicySpec(accuracy_constraint=0.01, ramp_budget=0.02))
    assert runs["apparate"]["p50_ms"] < runs["vanilla"]["p50_ms"]
    assert runs["apparate"]["threshold_tunings"] > 0


def test_determinism_across_runs():
    workload = make_video_workload("urban-day", num_frames=1500, seed=48)
    a, b = (Experiment(model="resnet50", workload=workload, seed=3)
            .run(["apparate"]).to_json() for _ in range(2))
    assert a == b
