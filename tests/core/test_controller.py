"""Tests for Apparate's runtime controller."""

import pytest

from repro.core.controller import ApparateController
from repro.core.pipeline import model_stack
from repro.exits.adjustment import AdjustmentDecision


@pytest.fixture()
def controller():
    spec, profile, _pred, catalog, _exec = model_stack("resnet50", seed=0)
    return ApparateController(spec, catalog, profile, accuracy_constraint=0.01)


@pytest.fixture()
def executor():
    return model_stack("resnet50", seed=0)[4]


def test_initial_config_has_zero_thresholds(controller):
    ramp_ids, depths, thresholds, overheads = controller.deployed_config()
    assert len(ramp_ids) > 0
    assert all(t == 0.0 for t in thresholds)
    assert len(depths) == len(ramp_ids) == len(overheads)


def test_initial_config_within_budget(controller):
    assert controller.overhead_budget_ok()


def test_feedback_activates_exits(controller, executor):
    """After enough easy-input feedback, thresholds rise above zero."""
    for _ in range(10):
        ramp_ids, depths, thresholds, overheads = controller.deployed_config()
        execution = executor.execute_batch([0.1] * 16, [0.05] * 16, ramp_ids, depths,
                                           thresholds, overheads)
        controller.observe_batch(execution)
    assert controller.stats.threshold_tunings > 0
    assert any(t > 0 for t in controller.config.ordered_thresholds())


def test_budget_respected_throughout_adaptation(controller, executor):
    for step in range(40):
        ramp_ids, depths, thresholds, overheads = controller.deployed_config()
        difficulty = 0.1 if step < 20 else 0.6
        execution = executor.execute_batch([difficulty] * 8, [0.05] * 8, ramp_ids, depths,
                                           thresholds, overheads)
        controller.observe_batch(execution)
        assert controller.config.within_budget()
        assert controller.config.num_active() <= controller.catalog.max_active_ramps()


def test_ramp_adjustments_run_periodically(controller, executor):
    for _ in range(40):   # 40 * 8 = 320 samples > 2 adjustment periods
        ramp_ids, depths, thresholds, overheads = controller.deployed_config()
        execution = executor.execute_batch([0.2] * 8, [0.05] * 8, ramp_ids, depths,
                                           thresholds, overheads)
        controller.observe_batch(execution)
    assert controller.stats.ramp_adjustments >= 2


def test_config_history_recorded(controller):
    assert controller.stats.config_history[0][0] == 0
    assert controller.stats.config_history[0][1] == controller.config.active_ramp_ids


def test_apply_decision_threshold_update(controller):
    ramp = controller.config.active_ramp_ids[0]
    controller.apply_decision(AdjustmentDecision(action="retuned-thresholds",
                                                 new_thresholds={ramp: 0.4}))
    assert controller.config.thresholds[ramp] == pytest.approx(0.4)


def test_apply_decision_ramp_replacement(controller):
    remove = controller.config.active_ramp_ids[0]
    inactive = next(r for r in range(len(controller.catalog))
                    if r not in controller.config.active_ramp_ids)
    controller.apply_decision(AdjustmentDecision(action="replaced-negative-ramps",
                                                 ramps_to_remove=[remove],
                                                 ramps_to_add=[inactive]))
    assert remove not in controller.config.active_ramp_ids
    assert inactive in controller.config.active_ramp_ids
    # Newly added ramps start with threshold zero.
    assert controller.config.thresholds[inactive] == 0.0
    assert controller.window.ramp_ids == controller.config.active_ramp_ids


def test_tune_thresholds_noop_without_feedback(controller):
    controller.tune_thresholds()
    assert controller.stats.threshold_tunings == 0


def test_accuracy_triggered_tuning_counted(controller, executor):
    """Hard inputs misclassified after an easy phase trigger accuracy tunings."""
    for _ in range(12):
        ramp_ids, depths, thresholds, overheads = controller.deployed_config()
        execution = executor.execute_batch([0.05] * 16, [0.05] * 16, ramp_ids, depths,
                                           thresholds, overheads)
        controller.observe_batch(execution)
    # Shift to inputs that look confident (positive shift) but are hard.
    for _ in range(12):
        ramp_ids, depths, thresholds, overheads = controller.deployed_config()
        execution = executor.execute_batch([0.7] * 16, [0.05] * 16, ramp_ids, depths,
                                           thresholds, overheads,
                                           confidence_shifts=[0.35] * 16)
        controller.observe_batch(execution)
    assert controller.stats.samples_seen == 24 * 16
    assert controller.stats.threshold_tunings > 0


@pytest.mark.parametrize("name", ["tuning_window", "threshold_refresh_period",
                                  "ramp_adjustment_period", "min_tuning_samples"])
@pytest.mark.parametrize("value", [0, -1])
def test_controller_rejects_non_positive_periods(name, value):
    spec, profile, _pred, catalog, _exec = model_stack("resnet50", seed=0)
    with pytest.raises(ValueError, match=name):
        ApparateController(spec, catalog, profile, **{name: value})
