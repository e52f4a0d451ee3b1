"""Tests for the simulated model executor."""

import pytest

from repro.graph.builders import build_graph_for_model
from repro.models.execution import ModelExecutor
from repro.models.latency import build_latency_profile
from repro.models.prediction import PredictionModel
from repro.models.zoo import get_model


@pytest.fixture(scope="module")
def executor():
    spec = get_model("resnet50")
    profile = build_latency_profile(spec, build_graph_for_model("resnet50"))
    return ModelExecutor(spec, profile, PredictionModel(spec, seed=0))


def test_empty_batch_rejected(executor):
    with pytest.raises(ValueError):
        executor.execute_batch([], [], [], [], [], [])


def test_mismatched_ramp_arrays_rejected(executor):
    with pytest.raises(ValueError):
        executor.execute_batch([0.2], [0.05], [0], [0.5], [0.5, 0.6], [0.002])


def test_vanilla_batch_has_no_exits(executor):
    execution = executor.execute_batch([0.1, 0.9], [0.05, 0.05], [], [], [], [])
    assert not any(execution.exited)
    assert execution.gpu_time_ms == pytest.approx(executor.vanilla_batch_time_ms(2))


def test_easy_input_exits_with_permissive_threshold(executor):
    execution = executor.execute_batch([0.02], [0.04], [0], [0.6], [0.6], [0.002])
    assert execution.exited[0]
    assert execution.exit_depths[0] == pytest.approx(0.6)
    assert execution.result_offsets_ms[0] < execution.gpu_time_ms


def test_hard_input_does_not_exit(executor):
    execution = executor.execute_batch([0.99], [0.04], [0], [0.3], [0.6], [0.002])
    assert not execution.exited[0]
    assert execution.result_offsets_ms[0] == pytest.approx(execution.gpu_time_ms)


def test_zero_threshold_prevents_exit(executor):
    execution = executor.execute_batch([0.02], [0.04], [0], [0.6], [0.0], [0.002])
    assert not execution.exited[0]


def test_ramp_overheads_increase_gpu_time(executor):
    base = executor.execute_batch([0.5], [0.05], [], [], [], []).gpu_time_ms
    with_ramps = executor.execute_batch([0.5], [0.05], [0, 1], [0.3, 0.6], [0.0, 0.0],
                                        [0.002, 0.002]).gpu_time_ms
    assert with_ramps > base
    assert with_ramps == pytest.approx(base * 1.004, rel=1e-6)


def test_observations_cover_all_ramps_even_after_exit(executor):
    """Inputs always run to the model end, so feedback covers every ramp (§3)."""
    execution = executor.execute_batch([0.02], [0.04], [0, 1, 2], [0.2, 0.5, 0.8],
                                       [0.9, 0.9, 0.9], [0.002] * 3)
    assert execution.exited[0]
    assert execution.ramp_ids == [0, 1, 2]
    assert len(execution.errors[0]) == len(execution.agree[0]) == 3


def test_batch_scaling_applied_to_results(executor):
    single = executor.execute_batch([0.9], [0.05], [], [], [], [])
    batch = executor.execute_batch([0.9] * 8, [0.05] * 8, [], [], [], [])
    assert batch.gpu_time_ms > single.gpu_time_ms


def test_exit_latency_accounts_for_upstream_ramp_overheads(executor):
    overheads = [0.002, 0.002]
    execution = executor.execute_batch([0.02], [0.04], [0, 1], [0.3, 0.7], [0.9, 0.9],
                                       overheads)
    base_full = executor.vanilla_batch_time_ms(1)
    expected = base_full * 0.3 + overheads[0] * base_full
    assert execution.result_offsets_ms[0] == pytest.approx(expected, rel=1e-6)


def test_confidence_shift_changes_exit_decision(executor):
    # A borderline input exits only when confidence is inflated.
    no_shift = executor.execute_batch([0.35], [0.04], [0], [0.42], [0.5], [0.002])
    shifted = executor.execute_batch([0.35], [0.04], [0], [0.42], [0.5], [0.002],
                                     confidence_shifts=[0.3])
    assert not no_shift.exited[0]
    assert shifted.exited[0]
