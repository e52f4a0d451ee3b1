"""Tests for the synthetic prediction model and its monotonicity properties."""

import numpy as np
import pytest

from repro.models.prediction import (
    PredictionModel,
    effective_difficulty,
    ramp_error_score,
)
from repro.graph.builders import build_graph_for_model
from repro.models.execution import ModelExecutor
from repro.models.latency import build_latency_profile
from repro.models.zoo import get_model


@pytest.fixture(scope="module")
def prediction():
    return PredictionModel(get_model("resnet50"), seed=0)


def test_effective_difficulty_bounds():
    assert effective_difficulty(0.0, headroom=0.8) == pytest.approx(0.2)
    assert effective_difficulty(1.0, headroom=0.8) == pytest.approx(1.0)


def test_effective_difficulty_monotone_in_raw():
    raws = np.linspace(0, 1, 11)
    effective = effective_difficulty(raws, headroom=0.7)
    assert np.all(np.diff(effective) > 0)


def test_lower_headroom_means_harder_inputs():
    assert effective_difficulty(0.3, headroom=0.5) > effective_difficulty(0.3, headroom=0.9)


def test_error_score_decreases_with_depth():
    depths = np.linspace(0, 1, 21)
    errors = ramp_error_score(0.5, depths, 0.05)
    assert np.all(np.diff(errors) < 0)


def test_error_score_half_at_required_depth():
    assert ramp_error_score(0.4, 0.4, 0.05) == pytest.approx(0.5)


def test_error_score_confidence_shift_lowers_error():
    base = ramp_error_score(0.5, 0.45, 0.05)
    shifted = ramp_error_score(0.5, 0.45, 0.05, confidence_shift=0.2)
    assert shifted < base


def test_error_score_clipped_to_unit_interval():
    assert 0.0 <= ramp_error_score(0.9, 0.1, 0.05, confidence_shift=-0.5) <= 1.0
    assert 0.0 <= ramp_error_score(0.1, 0.9, 0.05, confidence_shift=0.5) <= 1.0


def test_is_correct_at_or_past_required_depth(prediction):
    required = prediction.required_depth(0.3)
    assert prediction.is_correct(0.3, required)
    assert prediction.is_correct(0.3, min(required + 0.1, 1.0))


def test_is_correct_deterministic(prediction):
    draws = {prediction.is_correct(0.9, 0.1) for _ in range(10)}
    assert len(draws) == 1


def _executor(prediction):
    spec = prediction.spec
    profile = build_latency_profile(spec, build_graph_for_model(spec.name))
    return ModelExecutor(spec, profile, prediction)


def test_observe_covers_every_active_ramp(prediction):
    execution = _executor(prediction).execute_batch(
        [0.3], [0.05], [2, 5, 9], [0.2, 0.5, 0.9], [0.0] * 3, [0.0] * 3)
    assert execution.ramp_ids == [2, 5, 9]
    errors = execution.errors[0]
    assert len(errors) == len(execution.agree[0]) == 3
    assert errors[0] > errors[1] > errors[2]


def test_observation_would_exit_threshold_semantics(prediction):
    executor = _executor(prediction)
    error = executor.execute_batch([0.1], [0.05], [0], [0.9], [0.0], [0.0]).errors[0][0]
    assert error < 0.9
    assert executor.execute_batch([0.1], [0.05], [0], [0.9], [0.9], [0.0]).exited[0]
    assert not executor.execute_batch([0.1], [0.05], [0], [0.9], [0.0], [0.0]).exited[0]


def test_exit_depth_returns_earliest_confident_ramp(prediction):
    depths = [0.2, 0.5, 0.8]
    # With permissive thresholds an easy input exits at the earliest ramp
    # deep enough for it.
    exit_depth = prediction.exit_depth(0.05, 0.04, depths, [0.6, 0.6, 0.6])
    assert exit_depth in depths
    assert exit_depth <= 0.5


def test_exit_depth_none_when_thresholds_zero(prediction):
    assert prediction.exit_depth(0.05, 0.04, [0.2, 0.5], [0.0, 0.0]) is None


def test_exit_rate_monotone_in_threshold(prediction):
    """Higher thresholds exit at least as many inputs (§3.2 monotonicity)."""
    rng = np.random.default_rng(0)
    raws = rng.uniform(0, 1, 300)
    depth = 0.5
    rates = []
    for threshold in (0.1, 0.3, 0.5, 0.7, 0.9):
        exits = sum(prediction.error_score(r, depth, 0.05) < threshold for r in raws)
        rates.append(exits)
    assert all(b >= a for a, b in zip(rates, rates[1:]))


def test_later_ramp_exit_rate_not_lower(prediction):
    """Later ramps exit at least as many inputs as earlier ones (§3.3)."""
    rng = np.random.default_rng(1)
    raws = rng.uniform(0, 1, 300)
    threshold = 0.5
    early = sum(prediction.error_score(r, 0.3, 0.05) < threshold for r in raws)
    late = sum(prediction.error_score(r, 0.7, 0.05) < threshold for r in raws)
    assert late >= early
