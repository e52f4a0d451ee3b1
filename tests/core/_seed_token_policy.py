"""Reference token policy: the generative Apparate policy and the per-input
prediction methods as they stood before the O(1)-per-token rewrite.

``SeedTokenPolicy`` is ``ApparateTokenPolicy`` with its window kept as a
deque of ``(error, correct)`` tuples: every token rebuilds two numpy arrays
from the window to recompute the released accuracy, and every threshold
tuning does so once per candidate.  ``SeedPredictionModel`` is
``PredictionModel`` with the numpy-scalar ``required_depth``,
``error_score``, ``observe`` and ``exit_depth`` (each scalar goes through
the vectorized ``effective_difficulty`` / ``ramp_error_score``).  Both bodies
are verbatim copies; only the class names changed.

They are the test suite's oracle: ``tests/core/test_token_policy_equivalence.py``
feeds the same streams to both and requires **bit-identical** trajectories
and scores, and ``benchmarks/test_token_policy_speed.py`` races the live
policy against this one.  Do not use them for real runs, and do not "fix"
them to match the live code: when the two disagree, the live code is wrong.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple

import numpy as np

from repro.generative.parallel import TokenFeedback
from repro.models.prediction import (PredictionModel, RampObservation,
                                     effective_difficulty, ramp_error_score)
from repro.serving.hf_pipelines import TokenDecision

__all__ = ["SeedPredictionModel", "SeedTokenPolicy"]


class SeedPredictionModel(PredictionModel):
    """``PredictionModel`` with the numpy-scalar per-input methods."""

    def required_depth(self, raw_difficulty: float) -> float:
        """Earliest depth fraction at which this input's prediction emerges."""
        return float(effective_difficulty(raw_difficulty, self.spec.headroom))

    def error_score(self, raw_difficulty: float, depth_fraction: float,
                    sharpness: float = 0.06, confidence_shift: float = 0.0) -> float:
        """Error score of a ramp at ``depth_fraction`` for this input."""
        d = self.required_depth(raw_difficulty)
        return float(ramp_error_score(d, depth_fraction, sharpness, confidence_shift))

    def observe(self, raw_difficulty: float, sharpness: float,
                ramp_ids: Sequence[int], ramp_depths: Sequence[float],
                confidence_shift: float = 0.0) -> List[RampObservation]:
        """Produce the observations recorded for one input at active ramps.

        Observations are produced for *every* active ramp regardless of
        upstream exits, because with Apparate all inputs run to the end of the
        model (§3).
        """
        d = self.required_depth(raw_difficulty)
        observations: List[RampObservation] = []
        for ramp_id, depth in zip(ramp_ids, ramp_depths):
            err = float(ramp_error_score(d, depth, sharpness, confidence_shift))
            correct = self.is_correct(raw_difficulty, depth)
            observations.append(RampObservation(ramp_id=int(ramp_id),
                                                depth_fraction=float(depth),
                                                error_score=err,
                                                correct=correct))
        return observations

    def exit_depth(self, raw_difficulty: float, sharpness: float,
                   ramp_depths: Sequence[float], thresholds: Sequence[float],
                   confidence_shift: float = 0.0) -> float | None:
        """Depth fraction of the earliest ramp that exits, or ``None``.

        This mirrors the runtime exiting rule: walk ramps in order and exit at
        the first one whose error score is below its threshold.
        """
        d = self.required_depth(raw_difficulty)
        for depth, threshold in zip(ramp_depths, thresholds):
            if threshold <= 0.0:
                continue
            if float(ramp_error_score(d, depth, sharpness, confidence_shift)) < threshold:
                return float(depth)
        return None


class SeedTokenPolicy:
    """Adaptive single-ramp exit policy for generative decoding."""

    def __init__(self, prediction: PredictionModel, candidate_depths: Sequence[float],
                 accuracy_constraint: float = 0.01, window: int = 768,
                 refresh_period: int = 32, adjustment_period: int = 128,
                 initial_position: Optional[int] = None,
                 low_exit_rate: float = 0.50, high_exit_rate: float = 0.90,
                 tuning_safety: float = 0.25) -> None:
        if not candidate_depths:
            raise ValueError("candidate_depths must be non-empty")
        self.prediction = prediction
        self.candidate_depths = sorted(float(d) for d in candidate_depths)
        self.accuracy_constraint = float(accuracy_constraint)
        self.refresh_period = int(refresh_period)
        self.adjustment_period = int(adjustment_period)
        self.low_exit_rate = float(low_exit_rate)
        self.high_exit_rate = float(high_exit_rate)
        # Thresholds are tuned against a fraction of the allowed accuracy loss
        # so that drift between tuning rounds does not breach the constraint.
        self.tuning_safety = float(tuning_safety)

        self.position = int(initial_position) if initial_position is not None \
            else len(self.candidate_depths) // 2
        self.threshold = 0.0
        self._window: Deque[Tuple[float, bool]] = deque(maxlen=int(window))
        self.tokens_seen = 0
        self.tokens_since_move = 0
        self.threshold_tunings = 0
        self.position_moves = 0

    # --------------------------------------------------------------- helpers
    @property
    def ramp_depth(self) -> float:
        return self.candidate_depths[self.position]

    def _released_accuracy(self, threshold: float) -> Tuple[float, float]:
        """(accuracy, exit rate) on the feedback window under ``threshold``."""
        if not self._window:
            return 1.0, 0.0
        errors = np.array([e for e, _ in self._window])
        correct = np.array([c for _, c in self._window], dtype=bool)
        exits = errors < threshold if threshold > 0 else np.zeros_like(correct)
        n = errors.size
        num_exited = int(exits.sum())
        num_correct = int(correct[exits].sum()) + (n - num_exited)
        return num_correct / n, num_exited / n

    def _tune_threshold(self) -> None:
        """Pick the largest threshold that satisfies the (tightened) constraint."""
        target = 1.0 - self.accuracy_constraint * self.tuning_safety
        best = 0.0
        for candidate in np.arange(0.02, 0.99, 0.02):
            accuracy, _rate = self._released_accuracy(float(candidate))
            if accuracy >= target:
                best = float(candidate)
            else:
                break
        self.threshold = best
        self.threshold_tunings += 1

    def _adjust_position(self) -> None:
        """Move the ramp later when exits are rare, probe earlier when abundant.

        Moving later uses a coarse stride (a tenth of the candidate list) so
        that a badly placed ramp converges within a few adjustment rounds;
        probing earlier is conservative (one position at a time), matching the
        low-risk probing phase of §3.3.
        """
        accuracy, exit_rate = self._released_accuracy(self.threshold)
        moved = False
        later_stride = max(1, len(self.candidate_depths) // 10)
        if exit_rate < self.low_exit_rate and self.position < len(self.candidate_depths) - 1:
            self.position = min(self.position + later_stride, len(self.candidate_depths) - 1)
            moved = True
        elif (exit_rate > self.high_exit_rate
              and accuracy >= 1.0 - 0.5 * self.accuracy_constraint
              and self.position > 0):
            self.position -= 1
            moved = True
        if moved:
            self.position_moves += 1
            self.threshold = 0.0     # new position starts conservative (§3.3)
            self._window.clear()
            self.tokens_since_move = 0

    # --------------------------------------------------------------- policy API
    def decide(self, sequence_id: int, token_index: int, raw_difficulty: float,
               sharpness: float) -> TokenDecision:
        depth = self.ramp_depth
        error = self.prediction.error_score(raw_difficulty, depth, sharpness)
        correct = self.prediction.is_correct(raw_difficulty, depth)
        exited = self.threshold > 0.0 and error < self.threshold
        return TokenDecision(exited=exited, exit_depth=depth if exited else None,
                             error_score=error, correct=correct)

    def feedback(self, records: Sequence[TokenFeedback]) -> None:
        for record in records:
            self._window.append((record.error_score, record.correct))
            self.tokens_seen += 1
            self.tokens_since_move += 1

            accuracy, _ = self._released_accuracy(self.threshold)
            accuracy_violation = accuracy < 1.0 - self.accuracy_constraint
            periodic_refresh = self.tokens_seen % self.refresh_period == 0
            if (accuracy_violation or periodic_refresh) and len(self._window) >= 96:
                self._tune_threshold()
            # Position moves are rate-limited: the ramp must have been in
            # place (and its threshold re-tuned) for a full adjustment period
            # before its exit rate is judged, which prevents oscillation.
            if (self.tokens_since_move >= 2 * self.adjustment_period
                    and self.tokens_seen % self.adjustment_period == 0
                    and len(self._window) >= 128 and self.threshold > 0.0):
                self._adjust_position()
