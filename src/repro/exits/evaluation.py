"""Replay-based evaluation of EE configurations (§3.2, "Evaluating threshold
configurations").

Because every input runs to the end of the model, Apparate records — for every
request and every active ramp — the ramp's error score and whether its top
prediction matches the original model.  Any candidate threshold assignment can
then be evaluated *without additional inference* by replaying those records:
find each request's earliest ramp whose error falls below the candidate
threshold, compare the resulting predictions against the original model's
outputs (accuracy), and translate exit depths into saved milliseconds using
the one-time latency profile (latency wins).

The same replay machinery also produces the per-ramp exit rates and overhead
accounting that ramp adjustment (§3.3) consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["WindowBuffer", "ConfigEvaluation", "evaluate_thresholds"]


@dataclass
class ConfigEvaluation:
    """Outcome of replaying a window of observations under given thresholds."""

    num_samples: int
    accuracy: float
    mean_savings_ms: float
    total_savings_ms: float
    exit_rate: float
    exit_counts: np.ndarray
    ramp_savings_ms: np.ndarray
    ramp_overhead_ms: np.ndarray

    def ramp_utilities(self) -> np.ndarray:
        """Per-ramp utility = savings − overheads (§3.3)."""
        return self.ramp_savings_ms - self.ramp_overhead_ms


def evaluate_thresholds(errors: np.ndarray, correct: np.ndarray,
                        thresholds: Sequence[float], depths: Sequence[float],
                        overheads_ms: Sequence[float], full_latency_ms: float) -> ConfigEvaluation:
    """Replay recorded observations under a candidate threshold assignment.

    Parameters
    ----------
    errors:
        ``(num_samples, num_ramps)`` error scores recorded at each active ramp.
    correct:
        Same shape; whether the ramp's prediction matched the original model.
    thresholds / depths / overheads_ms:
        Per-ramp candidate thresholds, depth fractions and per-input latency
        overheads, in model order (aligned with the columns of ``errors``).
    full_latency_ms:
        Whole-model serving time used to convert depths into milliseconds.
    """
    errors = np.atleast_2d(np.asarray(errors, dtype=float))
    correct = np.atleast_2d(np.asarray(correct, dtype=bool))
    thresholds_arr = np.asarray(list(thresholds), dtype=float)
    depths_arr = np.asarray(list(depths), dtype=float)
    overheads_arr = np.asarray(list(overheads_ms), dtype=float)
    n, num_ramps = errors.shape
    if correct.shape != errors.shape:
        raise ValueError("errors and correct must have the same shape")
    if not (thresholds_arr.size == depths_arr.size == overheads_arr.size == num_ramps):
        raise ValueError("per-ramp arrays must match the number of ramp columns")

    if n == 0 or num_ramps == 0:
        return ConfigEvaluation(num_samples=n, accuracy=1.0, mean_savings_ms=0.0,
                                total_savings_ms=0.0, exit_rate=0.0,
                                exit_counts=np.zeros(num_ramps),
                                ramp_savings_ms=np.zeros(num_ramps),
                                ramp_overhead_ms=np.zeros(num_ramps))

    exit_mask = (errors < thresholds_arr[None, :]) & (thresholds_arr[None, :] > 0.0)
    any_exit = exit_mask.any(axis=1)
    # Index of the earliest exiting ramp for each sample (undefined when no
    # exit; masked out below).
    first_exit = np.where(any_exit, exit_mask.argmax(axis=1), num_ramps)

    exit_counts = np.array([(first_exit == r).sum() for r in range(num_ramps)], dtype=float)

    # Accuracy: exited samples count as correct when the exiting ramp agreed
    # with the original model; non-exited samples are always correct (they use
    # the original model's result).
    exited_correct = np.zeros(n, dtype=bool)
    if any_exit.any():
        rows = np.nonzero(any_exit)[0]
        exited_correct[rows] = correct[rows, first_exit[rows]]
    num_correct = int((~any_exit).sum() + exited_correct.sum())
    accuracy = num_correct / n

    # Latency accounting.  cumulative_overhead[r] = overhead of ramps 0..r.
    cumulative_overhead = np.cumsum(overheads_arr)
    total_overhead = float(cumulative_overhead[-1]) if num_ramps else 0.0
    per_sample_savings = np.full(n, -total_overhead, dtype=float)
    ramp_savings = np.zeros(num_ramps, dtype=float)
    if any_exit.any():
        rows = np.nonzero(any_exit)[0]
        exit_idx = first_exit[rows]
        raw_saved = full_latency_ms * (1.0 - depths_arr[exit_idx])
        per_sample_savings[rows] = raw_saved - cumulative_overhead[exit_idx]
        np.add.at(ramp_savings, exit_idx, raw_saved)

    # Per-ramp overhead: each ramp delays every input whose result was still
    # pending when it ran and that did not exit there.
    ramp_overhead = np.zeros(num_ramps, dtype=float)
    for r in range(num_ramps):
        still_pending = (first_exit >= r)        # reached ramp r un-exited
        not_exiting_here = (first_exit != r)
        count = int((still_pending & not_exiting_here).sum())
        ramp_overhead[r] = overheads_arr[r] * count

    return ConfigEvaluation(
        num_samples=n,
        accuracy=float(accuracy),
        mean_savings_ms=float(per_sample_savings.mean()),
        total_savings_ms=float(per_sample_savings.sum()),
        exit_rate=float(any_exit.mean()),
        exit_counts=exit_counts,
        ramp_savings_ms=ramp_savings,
        ramp_overhead_ms=ramp_overhead,
    )


class WindowBuffer:
    """Sliding window of per-ramp observations for the active ramp set.

    The buffer stores, for the most recent ``capacity`` requests, the error
    score and correctness recorded at every active ramp, in two preallocated
    ``(capacity, num_ramps)`` numpy ring buffers (float errors, bool
    correctness): :meth:`record` writes one row in place, and the readers
    (:meth:`latest`, :meth:`errors_matrix`, :meth:`correct_matrix`) return
    chronological copies, oldest row first.  It is keyed by the active ramp
    ids; whenever the active set changes the buffer is rebuilt (old columns
    for removed ramps are dropped, new ramps start empty — their thresholds
    are 0 until enough feedback accumulates, so no accuracy risk).
    """

    def __init__(self, ramp_ids: Sequence[int], capacity: int = 512) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self.ramp_ids: List[int] = list(int(r) for r in ramp_ids)
        self._errors = np.empty((self.capacity, len(self.ramp_ids)), dtype=float)
        self._correct = np.empty((self.capacity, len(self.ramp_ids)), dtype=bool)
        self._next = 0      # ring slot the next record writes
        self._size = 0

    def __len__(self) -> int:
        return self._size

    # ----------------------------------------------------------------- write
    def record(self, errors: Sequence[float], agree: Sequence[bool]) -> None:
        """Record one request's row: its error score and its agreement with
        the original model at every window ramp, in ``ramp_ids`` order.

        This is the buffer's only write; the row lands in the ring slot
        after the newest, overwriting the oldest once the buffer is full.  A
        row whose length is not the number of window ramps raises
        :class:`ValueError`.
        """
        width = len(self.ramp_ids)
        if len(errors) != width or len(agree) != width:
            raise ValueError(f"a window row needs {width} errors and "
                             f"agreements (one per ramp of {self.ramp_ids}), "
                             f"got {len(errors)} and {len(agree)}")
        slot = self._next
        self._errors[slot] = errors
        self._correct[slot] = agree
        self._next = (slot + 1) % self.capacity
        if self._size < self.capacity:
            self._size += 1

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
        old_index = {rid: i for i, rid in enumerate(self.ramp_ids)}
        kept = [(col, old_index[rid]) for col, rid in enumerate(new_ids) if rid in old_index]
        new_cols = [col for col, _ in kept]
        old_cols = [old for _, old in kept]
        errors = np.ones((self.capacity, len(new_ids)), dtype=float)
        correct = np.ones((self.capacity, len(new_ids)), dtype=bool)
        # The history is rewritten oldest-first from slot 0.
        errors[:self._size, new_cols] = self.errors_matrix()[:, old_cols]
        correct[:self._size, new_cols] = self.correct_matrix()[:, old_cols]
        self._errors, self._correct = errors, correct
        self._next = self._size % self.capacity
        self.ramp_ids = new_ids

    # ------------------------------------------------------------------ read
    def _chronological(self, ring: np.ndarray, count: int) -> np.ndarray:
        """A copy of the newest ``count`` rows of ``ring``, oldest first."""
        first = self._next - count
        if first >= 0:
            return ring[first:self._next].copy()
        return np.concatenate((ring[first:], ring[:self._next]))

    def errors_matrix(self) -> np.ndarray:
        return self._chronological(self._errors, self._size)

    def correct_matrix(self) -> np.ndarray:
        return self._chronological(self._correct, self._size)

    def latest(self, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return the most recent ``count`` rows of (errors, correctness).

        ``count`` may exceed the number of buffered rows (all of them are
        returned); 0 returns no rows, and a negative count raises.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        count = min(int(count), self._size)
        return (self._chronological(self._errors, count),
                self._chronological(self._correct, count))

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
