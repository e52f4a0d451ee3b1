"""Synthetic prediction model: input difficulty -> per-ramp confidence.

The real system attaches small classifier ramps to intermediate layers and
compares the entropy of each ramp's prediction against a threshold.  Without
trained networks we model the quantity that matters to Apparate's algorithms:
for every input there is an *earliest depth* at which the original model's
prediction has emerged, and ramp confidence improves monotonically with depth
past that point.

Concretely, each input carries a latent ``raw difficulty`` in ``[0, 1]``
produced by the workload generator.  A model with overparameterization
``headroom`` maps it to an **effective difficulty**

    d = 1 - headroom + headroom * raw

interpreted as the fraction of model depth required before the ramp prediction
agrees with the final model.  A ramp at depth fraction ``p`` then reports an
entropy-like error score

    error(p) = sigmoid((d - p) / sharpness)

which decreases smoothly in ``p`` (sharpness is a per-input trait).  A ramp
exits when ``error < threshold``, so threshold 0 never exits and larger
thresholds exit strictly more inputs — the monotonicity property exploited by
the hill-climbing threshold search (§3.2).  The ramp's prediction matches the
original model's output iff ``p >= d``; below that depth it is correct only at
a small confusion rate.  This preserves the second property Apparate leans on:
later ramps exhibit exit rates at least as high as earlier ones (§3.3).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.models.zoo import ModelSpec

__all__ = ["PredictionModel", "effective_difficulty", "ramp_error_score"]

# Probability that a ramp placed before the input's required depth happens to
# agree with the original model anyway (label confusion floor).
_GUESS_AGREEMENT = 0.05


def effective_difficulty(raw_difficulty: np.ndarray | float, headroom: float) -> np.ndarray | float:
    """Map workload difficulty to the fraction of model depth an input needs."""
    return 1.0 - headroom + headroom * np.clip(raw_difficulty, 0.0, 1.0)


def ramp_error_score(difficulty: np.ndarray | float, depth: np.ndarray | float,
                     sharpness: np.ndarray | float = 0.06,
                     confidence_shift: np.ndarray | float = 0.0) -> np.ndarray | float:
    """Entropy-like error score of a ramp at ``depth`` for the given difficulty.

    ``confidence_shift`` models miscalibration: a positive shift lowers the
    reported error (over-confidence), so a fixed threshold admits inputs it
    should not; a negative shift raises it (under-confidence), suppressing
    exits that would have been correct.  Correctness itself is unaffected —
    only the confidence signal moves — which is exactly why statically tuned
    thresholds degrade under drift while Apparate's feedback-driven re-tuning
    does not.
    """
    z = (np.asarray(difficulty, dtype=float) - np.asarray(depth, dtype=float)) / np.maximum(
        np.asarray(sharpness, dtype=float), 1e-6)
    raw = 1.0 / (1.0 + np.exp(-z))
    return np.clip(raw - np.asarray(confidence_shift, dtype=float), 0.0, 1.0)


def _error_score(difficulty: float, depth: float, sharpness: float,
                 confidence_shift: float) -> float:
    """:func:`ramp_error_score` for one input and ramp, on plain floats.

    The same operations in the same order, so the result is bit-identical.
    The exponential stays ``np.exp``: ``math.exp`` rounds differently on
    some inputs.
    """
    z = (difficulty - float(depth)) / max(float(sharpness), 1e-6)
    raw = 1.0 / (1.0 + float(np.exp(-z)))
    return min(max(raw - float(confidence_shift), 0.0), 1.0)


def _confusion_draw(seed: int, raw_key: float, depth_key: float) -> float:
    """Deterministic pseudo-uniform used for the confusion floor.

    ``raw_key`` and ``depth_key`` are the input's raw difficulty and the
    ramp's depth fraction, each as ``round(float(x), 9)``; callers round
    each input and each ramp once, not once per pair.  Determinism matters:
    the oracle baseline and the controller's replay evaluation must see the
    same correctness for the same (input, ramp) pair, otherwise accuracy
    accounting would drift between passes.
    """
    return (hash((seed, raw_key, depth_key)) & 0xFFFFFFFF) / 4294967296.0


class PredictionModel:
    """Per-model synthetic prediction behaviour.

    The per-input methods (``required_depth``, ``error_score``,
    ``is_correct``, ``exit_depth``) run on plain Python floats, since the
    serving loops call them once per request or token; they give
    bit-identical results to the vectorized :func:`effective_difficulty` and
    :func:`ramp_error_score`, which ``required_depths`` and the whole-trace
    baselines use.  The classification batch path,
    :meth:`~repro.models.execution.ModelExecutor.execute_batch`, scores
    every (input, ramp) pair with the same operations inline.

    Parameters
    ----------
    spec:
        Model whose overparameterization (``headroom``) shapes difficulty.
    seed:
        Seed for the confusion-floor draws (kept separate from workloads so
        that the same workload replayed on two models stays comparable).
    """

    def __init__(self, spec: ModelSpec, seed: int = 0) -> None:
        self.spec = spec
        self.seed = int(seed)

    # ------------------------------------------------------------ per input
    def required_depth(self, raw_difficulty: float) -> float:
        """Earliest depth fraction at which this input's prediction emerges."""
        headroom = self.spec.headroom
        return 1.0 - headroom + headroom * min(max(float(raw_difficulty), 0.0), 1.0)

    def required_depths(self, raw_difficulties: Sequence[float]) -> np.ndarray:
        return np.asarray(effective_difficulty(np.asarray(raw_difficulties, dtype=float),
                                               self.spec.headroom))

    def error_score(self, raw_difficulty: float, depth_fraction: float,
                    sharpness: float = 0.06, confidence_shift: float = 0.0) -> float:
        """Error score of a ramp at ``depth_fraction`` for this input."""
        return _error_score(self.required_depth(raw_difficulty), depth_fraction,
                            sharpness, confidence_shift)

    def is_correct(self, raw_difficulty: float, depth_fraction: float) -> bool:
        """Whether a ramp at ``depth_fraction`` matches the original model."""
        d = self.required_depth(raw_difficulty)
        if depth_fraction >= d:
            return True
        return _confusion_draw(self.seed, round(float(raw_difficulty), 9),
                               round(float(depth_fraction), 9)) < _GUESS_AGREEMENT

    def ramp_signals(self, raw_difficulty: np.ndarray, depth_fraction: float,
                     sharpness: np.ndarray) -> Tuple[List[float], List[bool]]:
        """:meth:`error_score` and :meth:`is_correct` of one ramp for many
        inputs, as two lists.

        One numpy pass scores every input and finds those already past their
        required depth; only the others take the (per-input) confusion draw.
        Element by element the results are the scalar methods' bits.
        """
        raw = np.asarray(raw_difficulty, dtype=float)
        required = self.required_depths(raw)
        errors = np.asarray(ramp_error_score(required, depth_fraction, sharpness))
        past = depth_fraction >= required
        agree = past.tolist()
        seed = self.seed
        depth_key = round(float(depth_fraction), 9)
        for i in np.flatnonzero(~past).tolist():
            agree[i] = _confusion_draw(seed, round(float(raw[i]), 9),
                                       depth_key) < _GUESS_AGREEMENT
        return errors.tolist(), agree

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
            if _error_score(d, depth, sharpness, confidence_shift) < threshold:
                return float(depth)
        return None
