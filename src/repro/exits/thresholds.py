"""Threshold tuning (§3.2, Algorithm 1) plus a grid-search reference.

The tuner searches for per-ramp thresholds that maximize latency savings on
the most recent window of recorded observations, subject to the accuracy
constraint.  It exploits the monotone structure of the problem (raising any
threshold can only increase exits, increasing latency savings and decreasing
accuracy) with greedy hill climbing:

* all thresholds start at 0 (no exiting) with a per-ramp step size;
* each round tries raising every ramp's threshold in isolation (all of a
  round's trials are replayed in one batched pass) and applies the single
  change with the best marginal savings per unit of accuracy loss;
* step sizes follow multiplicative-increase / multiplicative-decrease: a
  chosen ramp doubles its step (promising direction), a ramp whose trial
  violated the constraint halves it (homing in on the accuracy boundary),
  lower-bounded at ``min_step``;
* the search ends when no ramp can be raised without violating the constraint
  and every step size has collapsed to the minimum.

``tune_thresholds_grid`` exhaustively evaluates a discretized grid and is used
as the optimality reference for Figure 10.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exits.evaluation import ConfigEvaluation, evaluate_thresholds

__all__ = ["ThresholdTuningResult", "tune_thresholds_greedy", "tune_thresholds_grid"]

# Accuracy-loss granularity below which extra loss is treated as free when
# ranking candidate moves (avoids division by ~0 for moves that add savings
# with no measurable accuracy change).
_EPS_LOSS = 1e-6


@dataclass
class ThresholdTuningResult:
    """Outcome of a threshold-tuning run."""

    thresholds: List[float]
    evaluation: ConfigEvaluation
    rounds: int
    evaluations: int
    runtime_ms: float

    def thresholds_by_ramp(self, ramp_ids: Sequence[int]) -> Dict[int, float]:
        return {int(r): float(t) for r, t in zip(ramp_ids, self.thresholds)}


def _evaluate(errors: np.ndarray, correct: np.ndarray, thresholds: Sequence[float],
              depths: Sequence[float], overheads_ms: Sequence[float],
              full_latency_ms: float) -> ConfigEvaluation:
    return evaluate_thresholds(errors, correct, thresholds, depths, overheads_ms,
                               full_latency_ms)


class _TrialReplay:
    """Replays a window under many trial threshold vectors in one pass.

    The window is converted once; each :meth:`score` call takes a (K, R)
    matrix of trial thresholds and returns, per trial, the accuracy and the
    mean latency savings that :func:`evaluate_thresholds` would report for
    it — the same integers divided by ``n`` and the same per-sample floats
    summed by the same pairwise routine (each trial's row is C-contiguous).
    """

    def __init__(self, errors: np.ndarray, correct: np.ndarray, depths: Sequence[float],
                 overheads_ms: Sequence[float], full_latency_ms: float) -> None:
        n, num_ramps = errors.shape
        self.n = int(n)
        # Column R is the "no exit" sentinel: its error (-inf) is below its
        # threshold (+inf) in every trial, so argmax over the R + 1 columns is
        # the first exiting ramp, or R when no ramp exits.
        self._errors = np.empty((n, num_ramps + 1), dtype=float)
        self._errors[:, :num_ramps] = errors
        self._errors[:, num_ramps] = -np.inf
        correct_ext = np.ones((n, num_ramps + 1), dtype=bool)
        correct_ext[:, :num_ramps] = correct
        self._correct = correct_ext.ravel()
        self._row_offsets = np.arange(n) * (num_ramps + 1)
        depths_arr = np.asarray(list(depths), dtype=float)
        cumulative_overhead = np.cumsum(np.asarray(list(overheads_ms), dtype=float))
        total_overhead = float(cumulative_overhead[-1]) if num_ramps else 0.0
        # Per-sample savings by first exit: what evaluate_thresholds writes
        # for an exit at ramp r, and -total_overhead for no exit.
        self._savings = np.append(full_latency_ms * (1.0 - depths_arr) - cumulative_overhead,
                                  -total_overhead)

    def score(self, trials: np.ndarray) -> Tuple[List[float], List[float]]:
        """(accuracy, mean savings) of each row of ``trials``."""
        if self.n == 0:
            return [1.0] * len(trials), [0.0] * len(trials)
        # A ramp exits a sample when error < threshold and threshold > 0;
        # a non-positive threshold becomes -inf, which no error is below.
        limits = np.where(trials > 0.0, trials, -np.inf)
        limits = np.concatenate((limits, np.full((len(trials), 1), np.inf)), axis=1)
        first_exit = (self._errors[None, :, :] < limits[:, None, :]).argmax(axis=2)
        released_correct = self._correct.take(first_exit + self._row_offsets)
        counts = np.count_nonzero(released_correct, axis=1).tolist()
        savings = self._savings.take(first_exit).mean(axis=1).tolist()
        return [count / self.n for count in counts], savings


def tune_thresholds_greedy(errors: np.ndarray, correct: np.ndarray,
                           depths: Sequence[float], overheads_ms: Sequence[float],
                           full_latency_ms: float, accuracy_constraint: float = 0.01,
                           initial_step: float = 0.1, min_step: float = 0.01,
                           max_rounds: int = 200,
                           conservative_margin: float = 0.0) -> ThresholdTuningResult:
    """Algorithm 1: greedy hill-climbing threshold search with MIMD steps.

    Each round raises every ramp still below 1.0 by its step in isolation and
    replays all of those trial configurations in one batched numpy pass over
    the window (converted once per call), then scans the trials in ramp
    order.  The returned ``evaluation`` is one :func:`evaluate_thresholds`
    call on the final thresholds; ``evaluations`` still counts one per
    trial.  The trial scores are bit-identical to evaluating each trial on
    its own, so the search takes exactly the steps a per-candidate replay
    would.

    Parameters
    ----------
    errors / correct:
        ``(num_samples, num_ramps)`` recorded observations for the window.
    depths / overheads_ms:
        Per-ramp depth fractions and per-input overheads (model order).
    full_latency_ms:
        Whole-model serving time for converting depths to milliseconds.
    accuracy_constraint:
        Maximum tolerable accuracy loss relative to the original model
        (e.g. 0.01 for the paper's default 1%).
    conservative_margin:
        Pseudo-count of wrong results added to the window when checking the
        constraint.  With a finite window, a candidate threshold can look
        perfect by luck; the margin demands statistical headroom (e.g. a
        margin of 1 on a 256-sample window only admits thresholds whose
        observed loss is at least one sample below the budget).
    """
    start = time.perf_counter()
    depths = list(depths)
    num_ramps = len(depths)
    thresholds = [0.0] * num_ramps
    step_sizes = [float(initial_step)] * num_ramps
    errors = np.atleast_2d(np.asarray(errors, dtype=float))
    correct = np.atleast_2d(np.asarray(correct, dtype=bool))
    num_samples = int(errors.shape[0]) if num_ramps else 0
    min_accuracy = 1.0 - float(accuracy_constraint)
    if conservative_margin > 0.0 and num_samples > 0:
        min_accuracy += conservative_margin / num_samples

    # The all-zero start (no exits); this call also validates the shapes.
    initial = evaluate_thresholds(errors, correct, thresholds, depths, overheads_ms,
                                  full_latency_ms)
    best_accuracy, best_savings = initial.accuracy, initial.mean_savings_ms
    evaluations = 1
    rounds = 0
    moved = False
    replay = _TrialReplay(errors, correct, depths, overheads_ms, full_latency_ms)

    while rounds < max_rounds:
        rounds += 1
        trial_ramps = [ramp for ramp in range(num_ramps) if thresholds[ramp] < 1.0]
        trial_values = [min(1.0, thresholds[ramp] + step_sizes[ramp]) for ramp in trial_ramps]
        evaluations += len(trial_ramps)
        best_trial: Optional[int] = None
        best_score = -np.inf
        overstepped: List[int] = []

        if trial_ramps:
            trials = np.tile(np.asarray(thresholds, dtype=float), (len(trial_ramps), 1))
            trials[np.arange(len(trial_ramps)), trial_ramps] = trial_values
            accuracies, savings = replay.score(trials)
            for k, ramp in enumerate(trial_ramps):
                if accuracies[k] < min_accuracy:
                    overstepped.append(ramp)
                    continue
                gain = savings[k] - best_savings
                loss = max(best_accuracy - accuracies[k], 0.0)
                if gain <= 0.0:
                    continue
                score = gain / max(loss, _EPS_LOSS)
                if score > best_score:
                    best_score = score
                    best_trial = k

        if best_trial is not None:
            best_ramp = trial_ramps[best_trial]
            thresholds[best_ramp] = trial_values[best_trial]
            best_accuracy, best_savings = accuracies[best_trial], savings[best_trial]
            moved = True
            step_sizes[best_ramp] = min(step_sizes[best_ramp] * 2.0, 0.5)
            # Overstepped ramps still shrink their steps to zoom into the
            # accuracy boundary in later rounds.
            for ramp in overstepped:
                step_sizes[ramp] = max(step_sizes[ramp] / 2.0, min_step)
            continue

        # No admissible improvement this round: shrink overstepped ramps and
        # stop once every step has collapsed to the minimum.
        progressed = False
        for ramp in overstepped:
            if step_sizes[ramp] > min_step:
                step_sizes[ramp] = max(step_sizes[ramp] / 2.0, min_step)
                progressed = True
        if not progressed:
            break

    evaluation = initial
    if moved:
        evaluation = evaluate_thresholds(errors, correct, thresholds, depths, overheads_ms,
                                         full_latency_ms)
    runtime_ms = (time.perf_counter() - start) * 1000.0
    return ThresholdTuningResult(thresholds=thresholds, evaluation=evaluation,
                                 rounds=rounds, evaluations=evaluations,
                                 runtime_ms=runtime_ms)


def tune_thresholds_grid(errors: np.ndarray, correct: np.ndarray,
                         depths: Sequence[float], overheads_ms: Sequence[float],
                         full_latency_ms: float, accuracy_constraint: float = 0.01,
                         step: float = 0.1) -> ThresholdTuningResult:
    """Exhaustive grid search over discretized thresholds (Figure 10 baseline).

    Cost grows as ``O((1/step + 1) ** num_ramps)`` and is only practical for a
    handful of ramps; it exists to quantify how close the greedy search gets
    to the optimum.
    """
    start = time.perf_counter()
    depths = list(depths)
    num_ramps = len(depths)
    values = np.round(np.arange(0.0, 1.0 + step / 2, step), 6)
    min_accuracy = 1.0 - float(accuracy_constraint)

    best_thresholds = [0.0] * num_ramps
    best_eval = _evaluate(errors, correct, best_thresholds, depths, overheads_ms, full_latency_ms)
    evaluations = 1
    for combo in itertools.product(values, repeat=num_ramps):
        candidate = _evaluate(errors, correct, list(combo), depths, overheads_ms, full_latency_ms)
        evaluations += 1
        if candidate.accuracy < min_accuracy:
            continue
        if candidate.mean_savings_ms > best_eval.mean_savings_ms:
            best_eval = candidate
            best_thresholds = list(float(v) for v in combo)

    runtime_ms = (time.perf_counter() - start) * 1000.0
    return ThresholdTuningResult(thresholds=best_thresholds, evaluation=best_eval,
                                 rounds=1, evaluations=evaluations, runtime_ms=runtime_ms)
