"""Tests for ramp adjustment (Algorithm 2, §3.3)."""

import numpy as np
import pytest

from repro.core.controller import ApparateController
from repro.core.pipeline import model_stack
from repro.exits.adjustment import RampAdjuster, RampUtility
from repro.exits.config import EEConfig
from repro.exits.evaluation import WindowBuffer
from repro.exits.thresholds import tune_thresholds_greedy


@pytest.fixture(scope="module")
def stack():
    return model_stack("resnet50", seed=0)


def make_window(ramp_ids, depths, required, sharpness=0.05, capacity=512):
    """Fill a window buffer from synthetic required depths."""
    from repro.models.prediction import ramp_error_score
    buffer = WindowBuffer(ramp_ids, capacity=capacity)
    for d in required:
        buffer.record([float(ramp_error_score(d, depth, sharpness)) for depth in depths],
                      [bool(depth >= d) for depth in depths])
    return buffer


def test_utilities_reflect_savings_and_overheads(stack):
    spec, _profile, _pred, catalog, _exec = stack
    adjuster = RampAdjuster(catalog)
    config = EEConfig(catalog=catalog, active_ramp_ids=[2, 10],
                      thresholds={2: 0.5, 10: 0.5})
    depths = config.ordered_depths()
    # Most inputs can exit at the first active ramp -> it has high utility.
    required = np.full(200, depths[0] - 0.05)
    window = make_window(config.active_ramp_ids, depths, required)
    evaluation = window.evaluate(config.ordered_thresholds(), depths,
                                 [o * spec.bs1_latency_ms for o in config.ordered_overheads()],
                                 spec.bs1_latency_ms)
    utilities = adjuster.compute_utilities(config, evaluation)
    assert len(utilities) == 2
    assert utilities[0].utility_ms > 0
    assert utilities[0].exit_rate > 0.9
    assert utilities[1].exit_rate == pytest.approx(0.0)


def test_probe_adds_ramp_before_best_when_budget_remains(stack):
    spec, _profile, _pred, catalog, _exec = stack
    adjuster = RampAdjuster(catalog)
    config = EEConfig(catalog=catalog, active_ramp_ids=[6], thresholds={6: 0.5})
    depth = config.ordered_depths()[0]
    required = np.full(200, depth - 0.1)
    window = make_window([6], [depth], required)
    decision = adjuster.propose(config, window, spec.bs1_latency_ms)
    assert decision.action == "probe-add-before-best"
    assert decision.ramps_to_add == [5]
    assert not decision.ramps_to_remove


def test_probe_shifts_worst_ramp_when_budget_exhausted(stack):
    spec, _profile, _pred, catalog, _exec = stack
    adjuster = RampAdjuster(catalog)
    max_active = catalog.max_active_ramps()
    active = list(range(2, 2 + max_active))
    config = EEConfig(catalog=catalog, active_ramp_ids=active,
                      thresholds={r: 0.5 for r in active})
    depths = config.ordered_depths()
    required = np.full(300, depths[0] - 0.05)   # everything exits at the first ramp
    window = make_window(active, depths, required)
    decision = adjuster.propose(config, window, spec.bs1_latency_ms)
    assert decision.action in ("probe-shift-worst-earlier", "replaced-negative-ramps",
                               "retuned-thresholds")


def test_negative_ramp_handling_removes_or_retunes(stack):
    spec, _profile, _pred, catalog, _exec = stack
    adjuster = RampAdjuster(catalog)
    config = EEConfig(catalog=catalog, active_ramp_ids=[1, 12],
                      thresholds={1: 0.5, 12: 0.5})
    depths = config.ordered_depths()
    # Nothing can exit at the early ramp, everything at the late one: the
    # early ramp has pure overhead (negative utility).
    required = np.full(300, (depths[0] + depths[1]) / 2)
    window = make_window(config.active_ramp_ids, depths, required)
    decision = adjuster.propose(config, window, spec.bs1_latency_ms)
    if decision.action == "replaced-negative-ramps":
        assert 1 in decision.ramps_to_remove
    else:
        assert decision.action == "retuned-thresholds"
        assert decision.new_thresholds is not None


def test_bootstrap_decision_when_no_active_ramps(stack):
    spec, _profile, _pred, catalog, _exec = stack
    adjuster = RampAdjuster(catalog)
    config = EEConfig(catalog=catalog, active_ramp_ids=[])
    window = WindowBuffer([], capacity=16)
    decision = adjuster.propose(config, window, spec.bs1_latency_ms)
    assert decision.action == "bootstrap-add-middle"
    assert decision.ramps_to_add == [len(catalog) // 2]


def test_upper_bound_exit_rate_rules():
    utils = [
        RampUtility(ramp_id=4, depth_fraction=0.3, exit_count=10, exit_rate=0.1,
                    savings_ms=0.0, overhead_ms=1.0),
        RampUtility(ramp_id=9, depth_fraction=0.6, exit_count=30, exit_rate=0.3,
                    savings_ms=0.0, overhead_ms=1.0),
    ]
    # Candidate between the two deactivated ramps: bound = earlier + next.
    bound = RampAdjuster._upper_bound_exit_rate(6, utils)
    assert bound == pytest.approx(0.1 + 0.3)
    # Candidate after every deactivation: only earlier deactivations count.
    bound_late = RampAdjuster._upper_bound_exit_rate(12, utils)
    assert bound_late == pytest.approx(0.4)
    # Bound never exceeds 1.
    big = [RampUtility(1, 0.2, 0, 0.8, 0.0, 0.0), RampUtility(2, 0.4, 0, 0.9, 0.0, 0.0)]
    assert RampAdjuster._upper_bound_exit_rate(3, big) == 1.0


def test_intervals_split_by_deactivated_ramps():
    intervals = RampAdjuster._intervals([5, 6, 7, 9, 10], [7])
    assert intervals == [[5, 6], [7, 9, 10]] or intervals == [[5, 6], [9, 10]] or \
        intervals == [[5, 6, 7], [9, 10]]
    flat = [r for interval in intervals for r in interval]
    assert set(flat) <= {5, 6, 7, 9, 10}


def test_round_position_moves_later_each_round():
    first = RampAdjuster._round_position(6, 0)
    second = RampAdjuster._round_position(6, 1)
    assert first == 3
    assert second == 4
    assert RampAdjuster._round_position(6, 10) is None
    assert RampAdjuster._round_position(0, 0) is None


def _replayed_retune(adjuster, config, window, full_latency_ms):
    """The negative path's retune check with its own window replays, as it
    stood before it reused ``propose``'s evaluation and the retune's:
    (retuned?, the new thresholds, their utilities)."""
    overheads_ms = [o * full_latency_ms for o in config.ordered_overheads()]
    retune = tune_thresholds_greedy(window.errors_matrix(), window.correct_matrix(),
                                    config.ordered_depths(), overheads_ms, full_latency_ms,
                                    accuracy_constraint=adjuster.accuracy_constraint)
    thresholds = retune.thresholds_by_ramp(config.active_ramp_ids)
    trial = config.copy()
    trial.set_thresholds(thresholds)
    trial_eval = window.evaluate(trial.ordered_thresholds(), trial.ordered_depths(),
                                 overheads_ms, full_latency_ms)
    current_eval = window.evaluate(config.ordered_thresholds(), config.ordered_depths(),
                                   overheads_ms, full_latency_ms)
    utilities = adjuster.compute_utilities(trial, trial_eval)
    retuned = all(u.positive for u in utilities) and \
        trial_eval.mean_savings_ms >= current_eval.mean_savings_ms
    return retuned, thresholds, utilities


def test_negative_path_decides_as_its_own_replays_did(monkeypatch):
    spec, profile, _pred, catalog, executor = model_stack("resnet50", seed=7)
    controller = ApparateController(spec, catalog, profile, accuracy_constraint=0.02,
                                    tuning_window=48, threshold_refresh_period=8,
                                    ramp_adjustment_period=20, min_tuning_samples=12)
    handle_negative = RampAdjuster._handle_negative
    outcomes = []

    def checked(self, config, window, full_latency_ms, evaluation, utilities):
        retuned, thresholds, retuned_utilities = _replayed_retune(self, config, window,
                                                                  full_latency_ms)
        decision = handle_negative(self, config, window, full_latency_ms, evaluation,
                                   utilities)
        assert (decision.action == "retuned-thresholds") == retuned
        if retuned:
            assert decision.new_thresholds == thresholds
            assert decision.utilities == retuned_utilities
        outcomes.append(retuned)
        return decision

    monkeypatch.setattr(RampAdjuster, "_handle_negative", checked)
    rng = np.random.default_rng(0)
    for step in range(60):
        regime = ("easy", "easy", "hard", "shifted")[step % 4]
        if regime == "easy":
            raws, shifts = rng.beta(2.0, 5.0, 8), rng.uniform(-0.02, 0.02, 8)
        elif regime == "hard":
            raws, shifts = rng.uniform(0.4, 1.0, 8), rng.uniform(-0.02, 0.02, 8)
        else:                       # over-confident: wrong exits escape
            raws, shifts = rng.uniform(0.2, 0.9, 8), rng.uniform(0.2, 0.5, 8)
        sharpness = rng.uniform(0.02, 0.1, 8)
        controller.observe_batch(executor.execute_batch(
            raws.tolist(), sharpness.tolist(), *controller.deployed_config(),
            confidence_shifts=shifts.tolist()))
    # Both outcomes of the retune check came up.
    assert True in outcomes and False in outcomes
