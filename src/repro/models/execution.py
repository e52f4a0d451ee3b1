"""Simulated model execution: turn batches of inputs into timing + feedback.

``ModelExecutor`` is the GPU stand-in.  Given a batch of inputs and the
currently-deployed early-exit configuration (active ramp depths, per-ramp
thresholds and per-ramp overhead fractions), it produces for every input:

* the time at which its *result* is released (either at the first exiting
  ramp or at the end of the model),
* the full batch processing time (which is what occupies the accelerator —
  with Apparate, inputs always run to completion, so platform throughput is
  governed by this number plus ramp overheads), and
* the per-ramp feedback streamed back to the controller (error score and
  agreement with the original model) for *all* active ramps.

The executor is deliberately stateless across batches (it only memoizes
constants derived from a ramp configuration); all adaptation state lives in
the controller (§3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.models.latency import LatencyProfile
from repro.models.prediction import (_GUESS_AGREEMENT, PredictionModel,
                                     _confusion_draw)
from repro.models.zoo import ModelSpec

__all__ = ["BatchExecution", "ModelExecutor"]


@dataclass
class BatchExecution:
    """Outcome of serving one batch, as per-input columns.

    Entry ``i`` of every list is the batch's ``i``-th input.  ``errors[i]``
    and ``agree[i]`` are its error score and its agreement with the original
    model at each ramp of ``ramp_ids`` (the active ramps, in model order):
    the row the controller records.  The other columns are what the serving
    platform consumes: when the result is released (``result_offsets_ms``,
    from batch start), whether and where the input exited (``exited``,
    ``exit_depths``, ``exit_ramp_ids``; ``None`` for the full model) and
    whether the released result matches the original model (``correct``).
    Every value is a plain Python float, int or bool, and the lists are
    read-only (``ramp_ids`` is shared by the batches of one configuration).
    """

    batch_size: int
    gpu_time_ms: float
    ramp_ids: List[int]
    errors: List[List[float]]
    agree: List[List[bool]]
    result_offsets_ms: List[float]
    exited: List[bool]
    exit_depths: List[Optional[float]]
    exit_ramp_ids: List[Optional[int]]
    correct: List[bool]


class ModelExecutor:
    """Simulated forward-pass executor for one model replica."""

    #: Ramp layouts kept by :meth:`_layout` before the memo starts over.
    _LAYOUTS = 256

    def __init__(self, spec: ModelSpec, profile: LatencyProfile,
                 prediction: PredictionModel) -> None:
        self.spec = spec
        self.profile = profile
        self.prediction = prediction
        self._layouts: Dict[Tuple, Tuple[List[int], List[float]]] = {}

    def _layout(self, ramp_ids: Sequence[int], ramp_depths: Sequence[float]
                ) -> Tuple[List[int], List[float]]:
        """The ramp ids as ints and each depth's confusion-draw key
        (``round(depth, 9)``), memoized per ramp configuration.

        ``round`` costs about a microsecond per call and consecutive batches
        almost always run a configuration seen before, so each depth is
        rounded once per configuration rather than once per (input, ramp)
        pair.  The memo holds derived values only: results do not depend on
        it.
        """
        key = (tuple(ramp_ids), tuple(ramp_depths))
        layout = self._layouts.get(key)
        if layout is None:
            if len(self._layouts) >= self._LAYOUTS:
                self._layouts.clear()
            layout = ([int(r) for r in ramp_ids],
                      [round(float(d), 9) for d in ramp_depths])
            self._layouts[key] = layout
        return layout

    # ------------------------------------------------------------------ main
    def execute_batch(
        self,
        raw_difficulties: Sequence[float],
        sharpness: Sequence[float],
        ramp_ids: Sequence[int],
        ramp_depths: Sequence[float],
        ramp_thresholds: Sequence[float],
        ramp_overhead_fractions: Sequence[float],
        batch_size: Optional[int] = None,
        confidence_shifts: Optional[Sequence[float]] = None,
    ) -> BatchExecution:
        """Serve one batch and return its per-input columns plus GPU occupancy.

        ``ramp_*`` sequences describe the currently active ramps in model
        order (distinct ids).  An empty configuration reproduces vanilla
        serving exactly.

        Each input takes one pass over the ramps on plain floats.  At every
        ramp it gets the error score of
        :meth:`~repro.models.prediction.PredictionModel.error_score` (the
        same operations, with a scalar ``np.exp``: ``math.exp`` rounds
        differently) and the agreement of ``is_correct`` (true at or past
        the input's required depth, the confusion draw below it).  It exits
        at the first ramp whose error is below a positive threshold, and is
        still scored at every later ramp: inputs run to the end of the model
        (§3), so the feedback row covers every active ramp.
        """
        n = len(raw_difficulties)
        if n == 0:
            raise ValueError("cannot execute an empty batch")
        if not (len(ramp_ids) == len(ramp_depths) == len(ramp_thresholds)
                == len(ramp_overhead_fractions)):
            raise ValueError("ramp description arrays must have equal length")
        bs = batch_size if batch_size is not None else n

        scale = self.profile.batch_scale(bs)
        base_full_ms = self.spec.bs1_latency_ms * scale
        ramp_overhead_ms = [float(f) * base_full_ms for f in ramp_overhead_fractions]
        total_overhead_ms = float(sum(ramp_overhead_ms))
        # GPU occupancy: every input runs the whole model plus every ramp.
        gpu_time_ms = float(base_full_ms + total_overhead_ms)

        ids, depth_keys = self._layout(ramp_ids, ramp_depths)
        depths = [float(d) for d in ramp_depths]
        ramps = list(zip(depths, depth_keys))
        # An exit at a ramp releases the result after the model up to the
        # ramp plus the overheads of every ramp so far.
        releases: List[float] = []
        elapsed_overhead = 0.0
        for depth, overhead in zip(depths, ramp_overhead_ms):
            elapsed_overhead += overhead
            releases.append(float(base_full_ms * depth + elapsed_overhead))
        # The ramps that can exit (positive threshold), in model order.
        exits = [(position, threshold)
                 for position, threshold in enumerate(ramp_thresholds)
                 if threshold > 0.0]

        prediction = self.prediction
        required_depth = prediction.required_depth
        seed = prediction.seed
        exp = np.exp
        errors: List[List[float]] = []
        agree: List[List[bool]] = []
        offsets: List[float] = []
        exited: List[bool] = []
        exit_depths: List[Optional[float]] = []
        exit_ramp_ids: List[Optional[int]] = []
        correct: List[bool] = []
        for idx in range(n):
            raw = float(raw_difficulties[idx])
            sharp = max(float(sharpness[idx]), 1e-6)
            shift = float(confidence_shifts[idx]) if confidence_shifts is not None else 0.0
            d = required_depth(raw)
            raw_key = round(raw, 9)
            # _error_score, clamped to [0, 1] as min(max(score, 0.0), 1.0).
            row_errors = [
                0.0 if (score := 1.0 / (1.0 + float(exp(-((d - depth) / sharp))))
                        - shift) < 0.0 else (1.0 if score > 1.0 else score)
                for depth in depths]
            row_agree = [depth >= d
                         or _confusion_draw(seed, raw_key, depth_key) < _GUESS_AGREEMENT
                         for depth, depth_key in ramps]
            errors.append(row_errors)
            agree.append(row_agree)
            for position, threshold in exits:
                if row_errors[position] < threshold:
                    offsets.append(releases[position])
                    exited.append(True)
                    exit_depths.append(depths[position])
                    exit_ramp_ids.append(ids[position])
                    correct.append(row_agree[position])
                    break
            else:
                offsets.append(gpu_time_ms)
                exited.append(False)
                exit_depths.append(None)
                exit_ramp_ids.append(None)
                correct.append(True)
        return BatchExecution(batch_size=bs, gpu_time_ms=gpu_time_ms, ramp_ids=ids,
                              errors=errors, agree=agree, result_offsets_ms=offsets,
                              exited=exited, exit_depths=exit_depths,
                              exit_ramp_ids=exit_ramp_ids, correct=correct)

    # -------------------------------------------------------------- vanilla
    def vanilla_batch_time_ms(self, batch_size: int) -> float:
        """Serving time of a batch without any ramps (vanilla model)."""
        return self.spec.bs1_latency_ms * self.profile.batch_scale(batch_size)
