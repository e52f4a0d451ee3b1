"""Threshold tuning (§3.2, Algorithm 1) plus a grid-search reference.

The tuner searches for per-ramp thresholds that maximize latency savings on
the most recent window of recorded observations, subject to the accuracy
constraint.  It exploits the monotone structure of the problem (raising any
threshold can only increase exits, increasing latency savings and decreasing
accuracy) with greedy hill climbing:

* all thresholds start at 0 (no exiting) with a per-ramp step size;
* each round tries raising every ramp's threshold in isolation and applies
  the single change with the best marginal savings per unit of accuracy loss;
* step sizes follow multiplicative-increase / multiplicative-decrease: a
  chosen ramp doubles its step (promising direction), a ramp whose trial
  violated the constraint halves it (homing in on the accuracy boundary),
  lower-bounded at ``min_step``;
* the search ends when no ramp can be raised without violating the constraint
  and every step size has collapsed to the minimum.

A trial is scored from the samples it moves rather than by replaying the
window.  Raising ramp ``r`` from ``t`` to ``t'`` changes the first exit of
exactly the samples whose error at ``r`` lies in ``[t, t')`` (below ``t'``
when ``t <= 0``) and whose current first exit lies after ``r``: each ramp's
errors are sorted once per call, and the search keeps every sample's first
exit, so a trial visits only those samples.  Its correct count is an exact
integer delta; its mean savings differ from the current ones by a delta sum,
which rounds differently from a replay's pairwise per-sample mean.  So when a
gain, or the gap between two trials' scores, falls within a float-rounding
bound (derived at :func:`_rounding_slack`), the round is re-ranked with the
replay's exact means.  The search therefore takes exactly the steps of a
per-trial :func:`~repro.exits.evaluation.evaluate_thresholds` replay.

``tune_thresholds_grid`` exhaustively evaluates a discretized grid and is used
as the optimality reference for Figure 10.
"""

from __future__ import annotations

import itertools
import time
from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exits.evaluation import ConfigEvaluation, evaluate_thresholds

__all__ = ["ThresholdTuningResult", "tune_thresholds_greedy", "tune_thresholds_grid"]

# Accuracy-loss granularity below which extra loss is treated as free when
# ranking candidate moves (avoids division by ~0 for moves that add savings
# with no measurable accuracy change).
_EPS_LOSS = 1e-6


def _rounding_slack(n: int, exit_savings: np.ndarray) -> float:
    """How far a delta gain may sit from the replay's exact gain on an
    ``n``-row window: ``(4n + 64) * u * M``, with ``u = 2**-53`` and ``M``
    the largest per-sample savings magnitude in ``exit_savings``.

    A sum of ``k`` terms of magnitude at most ``M``, in any order, errs by
    at most ``(k - 1) * u * k * M``, and every other operation by ``u``
    times its result:

    * the exact gain is the difference of two pairwise means of ``n``
      savings: each mean is within ``(n - 1) * u * M + u * M`` of its real
      value, and the subtraction adds ``u * 2M``, so ``(2n + 2) * u * M``;
    * the delta gain is ``(m * s_r - S) / n`` for the ``m <= n`` moved
      samples (``S`` the sum of their current savings): ``(m - 1) * u * m * M``
      for ``S``, ``u * m * M`` for the product, ``u * 2mM`` for the
      subtraction and ``u * 2M`` for the division, so ``(n + 4) * u * M``;
    * dividing either gain by a loss ``L`` adds ``u * 2M / L`` to its score.

    That is ``(3n + 10) * u * M / L`` between two scores to first order, so
    the slack over ``L`` bounds a score's gap too, with room for the
    ``O(n * u)`` factors the first-order terms leave out.
    """
    return (4 * n + 64) * 2.0 ** -53 * float(np.abs(exit_savings).max())


class ThresholdTuningResult:
    """Outcome of a threshold-tuning run.

    ``evaluation`` is the tuning window replayed under ``thresholds``.  The
    greedy tuner computes it on first access, from the window arrays it was
    given (the controller reads only the thresholds); a result built with an
    ``evaluation`` keeps that one.
    """

    def __init__(self, thresholds: List[float],
                 evaluation: Optional[ConfigEvaluation] = None, rounds: int = 0,
                 evaluations: int = 0, runtime_ms: float = 0.0,
                 replay: Optional[Callable[[], ConfigEvaluation]] = None) -> None:
        if evaluation is None and replay is None:
            raise ValueError("a tuning result needs an evaluation or a replay")
        self.thresholds = thresholds
        self.rounds = rounds
        self.evaluations = evaluations
        self.runtime_ms = runtime_ms
        self._evaluation = evaluation
        self._replay = replay

    @property
    def evaluation(self) -> ConfigEvaluation:
        if self._evaluation is None:
            self._evaluation = self._replay()
            self._replay = None
        return self._evaluation

    def thresholds_by_ramp(self, ramp_ids: Sequence[int]) -> Dict[int, float]:
        return {int(r): float(t) for r, t in zip(ramp_ids, self.thresholds)}


# A trial's effect: (moved sample ids, correct-count delta, savings delta).
_Delta = Tuple[List[int], int, float]


class _DeltaSearch:
    """The window as the greedy search sees it: per ramp, the sample ids in
    ascending error order, and per sample, its current first exit.

    Samples leave a ramp's order once they exit before that ramp: first exits
    only move earlier, so such a sample never moves at that ramp again.
    """

    def __init__(self, errors: np.ndarray, correct: np.ndarray, depths: Sequence[float],
                 overheads_ms: Sequence[float], full_latency_ms: float) -> None:
        n, num_ramps = errors.shape
        self.n = int(n)
        order = np.argsort(errors, axis=0)
        self._ids: List[List[int]] = order.T.tolist()
        self._errors: List[List[float]] = np.take_along_axis(errors, order, axis=0).T.tolist()
        self._agree: List[List[bool]] = correct.T.tolist()
        cumulative_overhead = np.cumsum(np.asarray(overheads_ms, dtype=float))
        total_overhead = float(cumulative_overhead[-1]) if num_ramps else 0.0
        # A sample's savings by its first exit, as evaluate_thresholds writes
        # them for an exit at ramp r; the last entry is no exit.
        self.exit_savings = np.append(
            full_latency_ms * (1.0 - np.asarray(depths, dtype=float)) - cumulative_overhead,
            -total_overhead)
        self._exit_savings: List[float] = self.exit_savings.tolist()
        # Per sample: its first exit, whether its released result is correct
        # and its savings.
        self.first_exit = [num_ramps] * self.n
        self._released = [True] * self.n
        self._sample_savings = [self._exit_savings[-1]] * self.n
        self.num_correct = self.n
        self.slack = _rounding_slack(self.n, self.exit_savings)

    def trial(self, ramp: int, threshold: float, value: float) -> _Delta:
        """The samples that raising ``ramp`` from ``threshold`` to ``value``
        moves, and the deltas of the correct count and the summed savings."""
        moved: List[int] = []
        if value > 0.0:     # a non-positive threshold exits nothing
            ids, errors = self._ids[ramp], self._errors[ramp]
            low = bisect_left(errors, threshold) if threshold > 0.0 else 0
            high = bisect_left(errors, value, low)
            first_exit = self.first_exit
            window = ids[low:high]
            moved = [i for i in window if first_exit[i] > ramp]
            if len(moved) < len(window):
                ids[low:high] = moved
                errors[low:high] = [e for i, e in zip(window, errors[low:high])
                                    if first_exit[i] > ramp]
        if not moved:
            return moved, 0, 0.0
        return (moved,
                sum(map(self._agree[ramp].__getitem__, moved))
                - sum(map(self._released.__getitem__, moved)),
                self._exit_savings[ramp] * len(moved)
                - sum(map(self._sample_savings.__getitem__, moved)))

    def apply(self, ramp: int, moved: List[int]) -> None:
        """Make ``ramp`` the first exit of ``moved``."""
        agree, savings = self._agree[ramp], self._exit_savings[ramp]
        first_exit, released, sample_savings = \
            self.first_exit, self._released, self._sample_savings
        for i in moved:
            self.num_correct += agree[i] - released[i]
            first_exit[i] = ramp
            released[i] = agree[i]
            sample_savings[i] = savings

    def exact_means(self, moves: Sequence[Tuple[int, List[int]]]) -> List[float]:
        """The replay's mean savings of the current configuration and of each
        ``(ramp, moved)`` trial: one C-contiguous first-exit row each, averaged
        by numpy's pairwise row sum, as a per-trial replay averages them."""
        rows = np.empty((len(moves) + 1, self.n), dtype=np.intp)
        rows[:] = self.first_exit
        for row, (ramp, moved) in enumerate(moves, 1):
            rows[row, moved] = ramp
        return self.exit_savings.take(rows).mean(axis=1).tolist()


# A scored admissible trial: (trial index, ramp, moved ids, delta gain, accuracy).
_Move = Tuple[int, int, List[int], float, float]


def _pick_by_delta(moves: Sequence[_Move], best_accuracy: float,
                   slack: float) -> Tuple[bool, Optional[int]]:
    """(decided, index into ``moves``) of the round's winner on delta gains.

    Undecided when a gain lies within ``slack`` of zero, or when another
    trial's score lies within the two trials' slacks of the best one's.
    """
    scored: List[Tuple[float, float, int]] = []
    for index, (_, _, _, gain, accuracy) in enumerate(moves):
        if -slack <= gain <= slack:
            return False, None
        if gain > 0.0:
            loss = max(max(best_accuracy - accuracy, 0.0), _EPS_LOSS)
            scored.append((gain / loss, slack / loss, index))
    if not scored:
        return True, None
    top = max(scored, key=lambda entry: entry[0])
    floor = top[0] - top[1]
    for entry in scored:
        if entry is not top and entry[0] + entry[1] >= floor:
            return False, None
    return True, top[2]


def _pick_exactly(search: _DeltaSearch, moves: Sequence[_Move],
                  best_accuracy: float) -> Optional[int]:
    """Index into ``moves`` of the round's winner, ranked as a per-trial
    replay ranks it: exact mean savings, first best score in ramp order."""
    means = search.exact_means([(ramp, moved) for _, ramp, moved, _, _ in moves])
    best_savings = means[0]
    best: Optional[int] = None
    best_score = -np.inf
    for index, ((_, _, _, _, accuracy), mean) in enumerate(zip(moves, means[1:])):
        gain = mean - best_savings
        loss = max(best_accuracy - accuracy, 0.0)
        if gain <= 0.0:
            continue
        score = gain / max(loss, _EPS_LOSS)
        if score > best_score:
            best_score = score
            best = index
    return best


def tune_thresholds_greedy(errors: np.ndarray, correct: np.ndarray,
                           depths: Sequence[float], overheads_ms: Sequence[float],
                           full_latency_ms: float, accuracy_constraint: float = 0.01,
                           initial_step: float = 0.1, min_step: float = 0.01,
                           max_rounds: int = 200,
                           conservative_margin: float = 0.0) -> ThresholdTuningResult:
    """Algorithm 1: greedy hill-climbing threshold search with MIMD steps.

    Each round raises every ramp still below 1.0 by its step in isolation,
    scores each trial from the samples it moves (see the module docstring),
    then scans the trials in ramp order.  ``evaluations`` counts one per
    trial, and the returned ``evaluation`` (the window replayed under the
    final thresholds) is computed on first access.  The steps taken are
    exactly those of evaluating every trial with :func:`evaluate_thresholds`.

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
    overheads_ms = list(overheads_ms)
    num_ramps = len(depths)
    thresholds = [0.0] * num_ramps
    step_sizes = [float(initial_step)] * num_ramps
    errors = np.atleast_2d(np.asarray(errors, dtype=float))
    correct = np.atleast_2d(np.asarray(correct, dtype=bool))
    overheads_arr = np.asarray(overheads_ms, dtype=float)
    _, num_columns = errors.shape
    if correct.shape != errors.shape:
        raise ValueError("errors and correct must have the same shape")
    if not num_ramps == overheads_arr.size == num_columns:
        raise ValueError("per-ramp arrays must match the number of ramp columns")
    num_samples = int(errors.shape[0]) if num_ramps else 0
    min_accuracy = 1.0 - float(accuracy_constraint)
    if conservative_margin > 0.0 and num_samples > 0:
        min_accuracy += conservative_margin / num_samples

    search = _DeltaSearch(errors, correct, depths, overheads_arr, full_latency_ms)
    n = search.n
    best_accuracy = 1.0
    evaluations = 1             # the all-zero start
    rounds = 0
    while rounds < max_rounds:
        rounds += 1
        trial_ramps = [ramp for ramp in range(num_ramps) if thresholds[ramp] < 1.0]
        trial_values = [min(1.0, thresholds[ramp] + step_sizes[ramp]) for ramp in trial_ramps]
        evaluations += len(trial_ramps)
        overstepped: List[int] = []
        # Admissible trials that move samples; a trial that moves none keeps
        # today's savings exactly, so its gain of 0 never wins.
        moves: List[_Move] = []
        for k, ramp in enumerate(trial_ramps):
            moved, correct_delta, savings_delta = search.trial(ramp, thresholds[ramp],
                                                               trial_values[k])
            accuracy = (search.num_correct + correct_delta) / n if n else 1.0
            if accuracy < min_accuracy:
                overstepped.append(ramp)
            elif moved:
                moves.append((k, ramp, moved, savings_delta / n, accuracy))

        decided, best = _pick_by_delta(moves, best_accuracy, search.slack)
        if not decided:
            best = _pick_exactly(search, moves, best_accuracy)
        if best is not None:
            k, best_ramp, moved, _, best_accuracy = moves[best]
            search.apply(best_ramp, moved)
            thresholds[best_ramp] = trial_values[k]
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

    final = list(thresholds)
    runtime_ms = (time.perf_counter() - start) * 1000.0
    return ThresholdTuningResult(
        thresholds=thresholds, rounds=rounds, evaluations=evaluations,
        runtime_ms=runtime_ms,
        replay=lambda: evaluate_thresholds(errors, correct, final, depths, overheads_ms,
                                           full_latency_ms))


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
    best_eval = evaluate_thresholds(errors, correct, best_thresholds, depths, overheads_ms,
                                    full_latency_ms)
    evaluations = 1
    for combo in itertools.product(values, repeat=num_ramps):
        candidate = evaluate_thresholds(errors, correct, list(combo), depths, overheads_ms,
                                        full_latency_ms)
        evaluations += 1
        if candidate.accuracy < min_accuracy:
            continue
        if candidate.mean_savings_ms > best_eval.mean_savings_ms:
            best_eval = candidate
            best_thresholds = list(float(v) for v in combo)

    runtime_ms = (time.perf_counter() - start) * 1000.0
    return ThresholdTuningResult(thresholds=best_thresholds, evaluation=best_eval,
                                 rounds=1, evaluations=evaluations, runtime_ms=runtime_ms)
