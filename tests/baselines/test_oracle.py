"""Tests for the optimal-exit oracle (§2.2)."""

import numpy as np
import pytest

from repro.api import Experiment
from repro.baselines.oracle import (
    OracleTokenPolicy,
    optimal_exit_depths,
    optimal_latencies,
)
from repro.models.prediction import PredictionModel
from repro.models.zoo import get_model
from repro.workloads.difficulty import DifficultyTrace


def run(model, workload, system):
    """One system's raw result on a one-replica fleet."""
    return Experiment(model=model, workload=workload).run([system]) \
        .result(system).raw


def test_optimal_exit_depths_pick_earliest_sufficient_ramp(resnet50_stack):
    spec, _profile, prediction, catalog, _exec = resnet50_stack
    trace = DifficultyTrace(name="t", raw_difficulty=np.array([0.0, 0.5, 1.0]),
                            sharpness=np.full(3, 0.05))
    depths = optimal_exit_depths(trace, prediction, [r.depth_fraction for r in catalog.ramps])
    required = prediction.required_depths(trace.raw_difficulty)
    assert depths[0] >= required[0]
    assert np.all(np.diff(depths) >= 0)
    assert depths[2] == pytest.approx(1.0)   # the hardest input cannot exit


def test_optimal_exit_depths_without_candidates(resnet50_stack):
    _spec, _profile, prediction, _catalog, _exec = resnet50_stack
    trace = DifficultyTrace(name="t", raw_difficulty=np.array([0.2]), sharpness=np.array([0.05]))
    assert optimal_exit_depths(trace, prediction, []).tolist() == [1.0]


def test_optimal_latencies_never_exceed_vanilla(resnet50_stack, small_video_workload):
    spec, _profile, prediction, catalog, _exec = resnet50_stack
    vanilla = run("resnet50", small_video_workload, "vanilla").aggregate()
    optimal = optimal_latencies(vanilla, small_video_workload.trace, prediction,
                                [r.depth_fraction for r in catalog.ramps])
    vanilla_lat = vanilla.latencies()
    assert optimal.shape == vanilla_lat.shape
    assert np.all(optimal <= vanilla_lat + 1e-9)


def test_run_optimal_classification_beats_vanilla_median(small_video_workload):
    vanilla = run("resnet50", small_video_workload, "vanilla")
    optimal = run("resnet50", small_video_workload, "optimal")
    assert np.median(optimal) < vanilla.median_latency()


def test_oracle_token_policy_exits_correctly(resnet50_stack):
    prediction = PredictionModel(get_model("t5-large"), seed=0)
    policy = OracleTokenPolicy(prediction, [0.2, 0.5, 0.8])
    easy = policy.decide(0, 0, 0.05, 0.05)
    assert easy.exited and easy.correct
    assert easy.exit_depth in (0.2, 0.5, 0.8)
    hard = policy.decide(0, 1, 1.0, 0.05)
    assert not hard.exited


def test_run_optimal_generative_dominates_vanilla(small_generative_workload):
    vanilla = run("t5-large", small_generative_workload, "vanilla").aggregate()
    optimal = run("t5-large", small_generative_workload, "optimal").aggregate()
    assert optimal.median_tpt() < vanilla.median_tpt()
    assert optimal.mean_sequence_accuracy() == pytest.approx(1.0)
