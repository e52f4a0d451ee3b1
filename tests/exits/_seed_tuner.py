"""Reference classification tuners and feedback window: the greedy
threshold search as it stood before the batched rewrite and before delta
scoring, and the feedback window before the ring buffer.

``seed_tune_thresholds_greedy`` is ``tune_thresholds_greedy`` evaluating
every trial configuration of every round with its own
``evaluate_thresholds`` call (which converts the window to numpy each time).
``batched_tune_thresholds_greedy`` is the next version: it converts the
window once (``TrialReplay``) and replays all of a round's trial
configurations in one numpy pass over the whole ``(K, n, R + 1)`` slab.
``SeedWindowBuffer`` is ``WindowBuffer`` with its rows kept in a deque of
1-D arrays that every read ``vstack``s.  All bodies are verbatim copies;
only the names changed (and the batched tuner's evaluation is eager, as it
was).

They are the test suite's oracles: ``tests/exits/test_tuner_equivalence.py``
feeds the same windows and operation sequences to them and to the live code
and requires **bit-identical** thresholds, counters, evaluations and
matrices, and ``benchmarks/test_tuner_speed.py`` races the live tuner
against both tuners here.  Do not use them for real runs, and do not "fix"
them to match the live code: when they disagree, the live code is wrong.
The one deliberate difference is ``latest(count)`` for ``count <= 0``: the
seed returns the whole window for 0 and drops the oldest row for -1, the
live buffer returns no rows and raises.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple

import numpy as np

from repro.exits.evaluation import ConfigEvaluation, evaluate_thresholds
from repro.exits.thresholds import ThresholdTuningResult
from tests.exits._seed_ee_batch import RampObservation

__all__ = ["SeedWindowBuffer", "TrialReplay", "batched_tune_thresholds_greedy",
           "seed_tune_thresholds_greedy"]

_EPS_LOSS = 1e-6


def _evaluate(errors: np.ndarray, correct: np.ndarray, thresholds: Sequence[float],
              depths: Sequence[float], overheads_ms: Sequence[float],
              full_latency_ms: float) -> ConfigEvaluation:
    return evaluate_thresholds(errors, correct, thresholds, depths, overheads_ms,
                               full_latency_ms)


def seed_tune_thresholds_greedy(errors: np.ndarray, correct: np.ndarray,
                                depths: Sequence[float], overheads_ms: Sequence[float],
                                full_latency_ms: float, accuracy_constraint: float = 0.01,
                                initial_step: float = 0.1, min_step: float = 0.01,
                                max_rounds: int = 200,
                                conservative_margin: float = 0.0) -> ThresholdTuningResult:
    """Algorithm 1: greedy hill-climbing threshold search with MIMD steps.

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
    num_samples = int(np.atleast_2d(np.asarray(errors)).shape[0]) if num_ramps else 0
    min_accuracy = 1.0 - float(accuracy_constraint)
    if conservative_margin > 0.0 and num_samples > 0:
        min_accuracy += conservative_margin / num_samples

    evaluations = 0
    rounds = 0
    best_eval = _evaluate(errors, correct, thresholds, depths, overheads_ms, full_latency_ms)
    evaluations += 1

    while rounds < max_rounds:
        rounds += 1
        best_ramp: Optional[int] = None
        best_score = -np.inf
        best_candidate_eval: Optional[ConfigEvaluation] = None
        best_candidate_threshold = 0.0
        overstepped: List[int] = []

        for ramp in range(num_ramps):
            if thresholds[ramp] >= 1.0:
                continue
            trial = list(thresholds)
            trial[ramp] = min(1.0, trial[ramp] + step_sizes[ramp])
            candidate = _evaluate(errors, correct, trial, depths, overheads_ms, full_latency_ms)
            evaluations += 1
            if candidate.accuracy < min_accuracy:
                overstepped.append(ramp)
                continue
            gain = candidate.mean_savings_ms - best_eval.mean_savings_ms
            loss = max(best_eval.accuracy - candidate.accuracy, 0.0)
            if gain <= 0.0:
                continue
            score = gain / max(loss, _EPS_LOSS)
            if score > best_score:
                best_score = score
                best_ramp = ramp
                best_candidate_eval = candidate
                best_candidate_threshold = trial[ramp]

        if best_ramp is not None and best_candidate_eval is not None:
            thresholds[best_ramp] = best_candidate_threshold
            best_eval = best_candidate_eval
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

    runtime_ms = (time.perf_counter() - start) * 1000.0
    return ThresholdTuningResult(thresholds=thresholds, evaluation=best_eval,
                                 rounds=rounds, evaluations=evaluations,
                                 runtime_ms=runtime_ms)


class TrialReplay:
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


def batched_tune_thresholds_greedy(errors: np.ndarray, correct: np.ndarray,
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
    replay = TrialReplay(errors, correct, depths, overheads_ms, full_latency_ms)

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


class SeedWindowBuffer:
    """Sliding window of per-ramp observations for the active ramp set.

    The buffer stores, for the most recent ``capacity`` requests, the error
    score and correctness recorded at every active ramp.  It is keyed by the
    active ramp ids; whenever the active set changes the buffer is rebuilt
    (old columns for removed ramps are dropped, new ramps start empty — their
    thresholds are 0 until enough feedback accumulates, so no accuracy risk).
    """

    def __init__(self, ramp_ids: Sequence[int], capacity: int = 512) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self.ramp_ids: List[int] = list(int(r) for r in ramp_ids)
        self._errors: Deque[np.ndarray] = deque(maxlen=self.capacity)
        self._correct: Deque[np.ndarray] = deque(maxlen=self.capacity)

    def __len__(self) -> int:
        return len(self._errors)

    # ----------------------------------------------------------------- write
    def record(self, observations: Sequence[RampObservation]) -> None:
        """Record one request's observations (must cover all active ramps)."""
        by_id = {obs.ramp_id: obs for obs in observations}
        try:
            errors = np.array([by_id[r].error_score for r in self.ramp_ids], dtype=float)
            correct = np.array([by_id[r].correct for r in self.ramp_ids], dtype=bool)
        except KeyError as exc:
            raise KeyError(f"missing observation for active ramp {exc}") from exc
        self._errors.append(errors)
        self._correct.append(correct)

    def rebuild(self, ramp_ids: Sequence[int]) -> None:
        """Re-key the buffer for a new active ramp set.

        History for ramps that remain active is preserved so threshold tuning
        keeps a full window of evidence across ramp-set changes.  Columns for
        newly added ramps are backfilled with "never exits" observations
        (error 1.0): the new ramp deploys with threshold 0 anyway, so it only
        starts influencing decisions once real feedback for it accumulates.
        """
        new_ids = [int(r) for r in ramp_ids]
        if new_ids == self.ramp_ids:
            return
        if self._errors:
            old_index = {rid: i for i, rid in enumerate(self.ramp_ids)}
            old_errors = self.errors_matrix()
            old_correct = self.correct_matrix()
            new_errors = np.ones((old_errors.shape[0], len(new_ids)), dtype=float)
            new_correct = np.ones((old_correct.shape[0], len(new_ids)), dtype=bool)
            for col, rid in enumerate(new_ids):
                if rid in old_index:
                    new_errors[:, col] = old_errors[:, old_index[rid]]
                    new_correct[:, col] = old_correct[:, old_index[rid]]
            self._errors.clear()
            self._correct.clear()
            for row in range(new_errors.shape[0]):
                self._errors.append(new_errors[row])
                self._correct.append(new_correct[row])
        self.ramp_ids = new_ids

    # ------------------------------------------------------------------ read
    def errors_matrix(self) -> np.ndarray:
        if not self._errors:
            return np.zeros((0, len(self.ramp_ids)))
        return np.vstack(list(self._errors))

    def correct_matrix(self) -> np.ndarray:
        if not self._correct:
            return np.zeros((0, len(self.ramp_ids)), dtype=bool)
        return np.vstack(list(self._correct))

    def latest(self, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return the most recent ``count`` rows of (errors, correctness)."""
        errors = self.errors_matrix()
        correct = self.correct_matrix()
        if count < errors.shape[0]:
            return errors[-count:], correct[-count:]
        return errors, correct

    def evaluate(self, thresholds: Sequence[float], depths: Sequence[float],
                 overheads_ms: Sequence[float], full_latency_ms: float,
                 window: Optional[int] = None) -> ConfigEvaluation:
        """Evaluate a candidate threshold assignment on the buffered window."""
        if window is None:
            errors, correct = self.errors_matrix(), self.correct_matrix()
        else:
            errors, correct = self.latest(window)
        return evaluate_thresholds(errors, correct, thresholds, depths,
                                   overheads_ms, full_latency_ms)
