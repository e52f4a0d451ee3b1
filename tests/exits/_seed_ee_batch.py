"""Reference classification EE batch path: per-input feedback objects.

These are the executor, prediction, window and controller entry points as
they stood before the columnar batch path:

* ``seed_execute_batch`` is ``ModelExecutor.execute_batch`` building one
  :class:`ExecutionResult` per input, each holding one frozen
  :class:`RampObservation` per active ramp from ``seed_observe``
  (``PredictionModel.observe``), whose agreement comes from
  ``seed_is_correct`` and ``seed_confusion_draw`` (``is_correct`` and
  ``_confusion_draw``, which rounded the input and the depth once per pair);
* ``SeedRingWindowBuffer.record`` is ``WindowBuffer.record`` taking one
  request's observations and ordering them by ramp id;
* ``SeedApparateController.observe_batch`` is ``ApparateController.observe_batch``
  walking ``execution.results`` and ``SeedSyncedReplicaController`` is the
  shared-fleet replica view counting them;
* ``seed_apparate_call`` and ``seed_static_call`` are the ``__call__`` of
  ``ApparateExecutor`` and ``_StaticEEExecutor``, which turned the results
  into a ``BatchResult``.

The bodies are verbatim copies; only the names changed (``self`` is the
live object a method used to be bound to).  The live path is held to them
bit for bit by ``tests/exits/test_ee_batch_equivalence.py``.  Do not use
them for real runs, and do not "fix" them to match the live code: when the
two disagree, the live code is wrong.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.controller import ApparateController
from repro.exits.evaluation import WindowBuffer
from repro.models.prediction import _GUESS_AGREEMENT, _error_score
from repro.serving.platform import BatchResult

__all__ = ["RampObservation", "ExecutionResult", "SeedBatchExecution",
           "seed_confusion_draw", "seed_is_correct", "seed_observe",
           "seed_execute_batch", "SeedRingWindowBuffer",
           "SeedApparateController", "SeedSyncedReplicaController",
           "seed_apparate_call", "seed_static_call"]


@dataclass(frozen=True)
class RampObservation:
    """What the controller records for one (input, ramp) pair (§3.2).

    Attributes
    ----------
    ramp_id:
        Identifier of the ramp (its position index in the model).
    depth_fraction:
        Fraction of model latency elapsed at the ramp.
    error_score:
        Entropy-style error of the ramp's top prediction (lower = more
        confident); the ramp exits when this is *below* its threshold.
    correct:
        Whether the ramp's top prediction matches the original model's output
        (Apparate always has this because inputs run to completion).
    """

    ramp_id: int
    depth_fraction: float
    error_score: float
    correct: bool

    def would_exit(self, threshold: float) -> bool:
        """Whether this observation exits under ``threshold``."""
        return self.error_score < threshold


@dataclass
class ExecutionResult:
    """Outcome of serving one input within a batch."""

    sample_index: int
    exit_depth: Optional[float]
    exit_ramp_id: Optional[int]
    result_latency_ms: float
    full_latency_ms: float
    final_correct: bool
    observations: List[RampObservation] = field(default_factory=list)

    @property
    def exited(self) -> bool:
        return self.exit_depth is not None


@dataclass
class SeedBatchExecution:
    """Outcome of serving one batch."""

    batch_size: int
    gpu_time_ms: float
    results: List[ExecutionResult]


# ------------------------------------------------------------- prediction

def seed_confusion_draw(self, raw_difficulty: float, depth_fraction: float) -> float:
    """Deterministic pseudo-uniform used for the confusion floor.

    Determinism matters: the oracle baseline and the controller's replay
    evaluation must see the same correctness for the same (input, ramp)
    pair, otherwise accuracy accounting would drift between passes.
    """
    key = (self.seed, round(float(raw_difficulty), 9), round(float(depth_fraction), 9))
    return (hash(key) & 0xFFFFFFFF) / float(0x100000000)


def seed_is_correct(self, raw_difficulty: float, depth_fraction: float) -> bool:
    """Whether a ramp at ``depth_fraction`` matches the original model."""
    d = self.required_depth(raw_difficulty)
    if depth_fraction >= d:
        return True
    return seed_confusion_draw(self, raw_difficulty, depth_fraction) < _GUESS_AGREEMENT


def seed_observe(self, raw_difficulty: float, sharpness: float,
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
        err = _error_score(d, depth, sharpness, confidence_shift)
        correct = seed_is_correct(self, raw_difficulty, depth)
        observations.append(RampObservation(ramp_id=int(ramp_id),
                                            depth_fraction=float(depth),
                                            error_score=err,
                                            correct=correct))
    return observations


# --------------------------------------------------------------- executor

def seed_execute_batch(
    self,
    raw_difficulties: Sequence[float],
    sharpness: Sequence[float],
    ramp_ids: Sequence[int],
    ramp_depths: Sequence[float],
    ramp_thresholds: Sequence[float],
    ramp_overhead_fractions: Sequence[float],
    batch_size: Optional[int] = None,
    confidence_shifts: Optional[Sequence[float]] = None,
) -> SeedBatchExecution:
    """Serve one batch and return per-input results plus GPU occupancy.

    ``ramp_*`` sequences describe the currently active ramps in model
    order.  An empty configuration reproduces vanilla serving exactly.
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
    gpu_time_ms = base_full_ms + total_overhead_ms

    results: List[ExecutionResult] = []
    for idx in range(n):
        raw = float(raw_difficulties[idx])
        sharp = float(sharpness[idx])
        shift = float(confidence_shifts[idx]) if confidence_shifts is not None else 0.0
        observations = seed_observe(self.prediction, raw, sharp, ramp_ids, ramp_depths,
                                    confidence_shift=shift)

        exit_depth: Optional[float] = None
        exit_ramp: Optional[int] = None
        elapsed_overhead = 0.0
        result_latency = gpu_time_ms
        for obs, threshold, overhead in zip(observations, ramp_thresholds, ramp_overhead_ms):
            elapsed_overhead += overhead
            if threshold > 0.0 and obs.error_score < threshold:
                exit_depth = obs.depth_fraction
                exit_ramp = obs.ramp_id
                result_latency = base_full_ms * obs.depth_fraction + elapsed_overhead
                break

        exited_correct = True
        if exit_depth is not None:
            exited_correct = next(o.correct for o in observations if o.ramp_id == exit_ramp)
        results.append(ExecutionResult(
            sample_index=idx,
            exit_depth=exit_depth,
            exit_ramp_id=exit_ramp,
            result_latency_ms=float(result_latency),
            full_latency_ms=float(gpu_time_ms),
            final_correct=bool(exited_correct),
            observations=observations,
        ))
    return SeedBatchExecution(batch_size=bs, gpu_time_ms=float(gpu_time_ms), results=results)


def seed_apparate_call(self, batch, batch_start_ms: float) -> BatchResult:
    ramp_ids, depths, thresholds, overheads = self.controller.deployed_config()
    difficulties = [r.sample.raw_difficulty for r in batch]
    sharpness = [r.sample.sharpness for r in batch]
    shifts = [r.sample.confidence_shift for r in batch]
    execution = self.executor.execute_batch(difficulties, sharpness, ramp_ids, depths,
                                            thresholds, overheads,
                                            confidence_shifts=shifts)
    self.controller.observe_batch(execution)
    return BatchResult(
        gpu_time_ms=execution.gpu_time_ms,
        result_offsets_ms=[r.result_latency_ms for r in execution.results],
        exited=[r.exited for r in execution.results],
        exit_depths=[r.exit_depth for r in execution.results],
        correct=[r.final_correct for r in execution.results],
    )


def seed_static_call(self, batch, batch_start_ms: float) -> BatchResult:
    difficulties = [r.sample.raw_difficulty for r in batch]
    sharpness = [r.sample.sharpness for r in batch]
    shifts = [r.sample.confidence_shift for r in batch]
    execution = self.executor.execute_batch(difficulties, sharpness, self.ramp_ids,
                                            self.depths, self.thresholds, self.overheads,
                                            confidence_shifts=shifts)
    return BatchResult(
        gpu_time_ms=execution.gpu_time_ms,
        result_offsets_ms=[r.result_latency_ms for r in execution.results],
        exited=[r.exited for r in execution.results],
        exit_depths=[r.exit_depth for r in execution.results],
        correct=[r.final_correct for r in execution.results],
    )


# ----------------------------------------------------------------- window

class SeedRingWindowBuffer(WindowBuffer):
    """``WindowBuffer`` whose ``record`` takes one request's observations."""

    def record(self, observations: Sequence[RampObservation]) -> None:
        """Record one request's observations (must cover all active ramps)."""
        by_id = {obs.ramp_id: obs for obs in observations}
        try:
            ordered = [by_id[r] for r in self.ramp_ids]
        except KeyError as exc:
            raise KeyError(f"missing observation for active ramp {exc}") from exc
        slot = self._next
        self._errors[slot] = [obs.error_score for obs in ordered]
        self._correct[slot] = [obs.correct for obs in ordered]
        self._next = (slot + 1) % self.capacity
        if self._size < self.capacity:
            self._size += 1


# ------------------------------------------------------------- controller

class SeedApparateController(ApparateController):
    """``ApparateController`` ingesting per-input results into a
    :class:`SeedRingWindowBuffer`."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.window = SeedRingWindowBuffer(self.window.ramp_ids,
                                           capacity=self.window.capacity)

    def observe_batch(self, execution: SeedBatchExecution) -> None:
        """Ingest one batch's streamed profiling data and adapt if needed."""
        window_ids = set(self.window.ramp_ids)
        for result in execution.results:
            observed_ids = {obs.ramp_id for obs in result.observations}
            # A ramp-set change mid-batch leaves earlier observations keyed to
            # the previous configuration; only matching records are ingested.
            if self.config.num_active() > 0 and window_ids <= observed_ids:
                self.window.record(result.observations)
            self.accuracy_monitor.record(result.final_correct)
            self.stats.samples_seen += 1

            accuracy_violation = (self.accuracy_monitor.full()
                                  and self.accuracy_monitor.accuracy() < 1.0 - self.accuracy_constraint)
            periodic_refresh = (self.stats.samples_seen % self.threshold_refresh_period == 0)
            if accuracy_violation:
                # Immediate multiplicative backoff: wrong exits are already
                # escaping, so cut every threshold before the (asynchronous)
                # re-tuning settles on new values.
                for ramp_id in self.config.active_ramp_ids:
                    self.config.set_threshold(ramp_id, self.config.thresholds[ramp_id] * 0.5)
            if ((accuracy_violation or periodic_refresh)
                    and len(self.window) >= self.min_tuning_samples):
                self.tune_thresholds(triggered_by_accuracy=accuracy_violation)
                if accuracy_violation:
                    self.accuracy_monitor.reset()

            if (self.stats.samples_seen % self.ramp_adjustment_period == 0
                    and len(self.window) >= self.min_tuning_samples):
                self.adjust_ramps()
                window_ids = set(self.window.ramp_ids)


class SeedSyncedReplicaController:
    """Replica-side view of a shared fleet controller.

    Reads (``deployed_config``) always reflect the shared controller's latest
    decision — configuration changes propagate to every replica immediately.
    Writes (``observe_batch``) are buffered locally and flushed to the shared
    controller every ``sync_period`` samples, modelling the periodic feedback
    sync a real fleet would run instead of a per-batch RPC per replica.
    """

    def __init__(self, shared: ApparateController, sync_period: int) -> None:
        if sync_period < 1:
            raise ValueError("sync_period must be >= 1")
        self.shared = shared
        self.sync_period = int(sync_period)
        self._buffer: List[SeedBatchExecution] = []
        self._buffered_samples = 0

    def deployed_config(self) -> Tuple[List[int], List[float], List[float], List[float]]:
        return self.shared.deployed_config()

    def observe_batch(self, execution: SeedBatchExecution) -> None:
        self._buffer.append(execution)
        self._buffered_samples += len(execution.results)
        if self._buffered_samples >= self.sync_period:
            self.flush()

    def flush(self) -> None:
        """Replay buffered feedback into the shared controller."""
        for execution in self._buffer:
            self.shared.observe_batch(execution)
        self._buffer.clear()
        self._buffered_samples = 0
