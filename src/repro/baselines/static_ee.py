"""Existing early-exit models: BranchyNet / DeeBERT style static EEs (§4.4).

These proposals ship a fixed EE architecture — ramps after *every* layer, all
always active — and prescribe one-time threshold tuning on a sample of data.
Three tuning variants are modelled, matching Table 2:

* ``shared``  — the default recommendation: one threshold shared by all ramps,
  tuned on bootstrap data;
* ``per_ramp`` ("+" in the paper) — per-ramp thresholds tuned on the same
  bootstrap data with the greedy search;
* ``oracle`` ("opt") — per-ramp thresholds tuned directly on the test stream
  (an upper bound no deployed system can achieve).

None of the variants adapt at runtime, so workload drift degrades accuracy
and always-on ramps tax tail latency — the two failure modes Apparate fixes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.pipeline import Fleet, Workload, model_stack
from repro.exits.config import EEConfig
from repro.exits.evaluation import evaluate_thresholds
from repro.exits.ramps import RampStyle
from repro.exits.thresholds import tune_thresholds_greedy
from repro.models.prediction import PredictionModel, ramp_error_score
from repro.models.zoo import ModelSpec, get_model
from repro.serving.metrics import ClusterMetrics
from repro.serving.platform import BatchResult
from repro.serving.request import Request, make_requests
from repro.workloads.difficulty import DifficultyTrace

__all__ = ["StaticEEVariant", "StaticEEResult", "calibrate_static_thresholds"]


class StaticEEVariant(str, enum.Enum):
    """Threshold-tuning variants of the static EE baselines (Table 2)."""

    SHARED = "shared"
    PER_RAMP = "per_ramp"
    ORACLE = "oracle"


@dataclass
class StaticEEResult:
    """Outcome of serving with a static EE baseline."""

    metrics: ClusterMetrics
    thresholds: List[float]
    ramp_depths: List[float]

    def summary(self) -> Dict[str, float]:
        data = self.metrics.summary()
        data["num_ramps"] = float(len(self.ramp_depths))
        return data


def _observation_matrices(trace: DifficultyTrace, prediction: PredictionModel,
                          depths: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Error/correctness matrices of a trace at the given ramp depths."""
    depths_arr = np.asarray(list(depths), dtype=float)
    required = prediction.required_depths(trace.raw_difficulty)
    sharpness = trace.sharpness
    shift = trace.confidence_shift
    errors = ramp_error_score(required[:, None], depths_arr[None, :], sharpness[:, None],
                              shift[:, None])
    correct = required[:, None] <= depths_arr[None, :]
    return np.asarray(errors, dtype=float), np.asarray(correct, dtype=bool)


def calibrate_static_thresholds(trace: DifficultyTrace, prediction: PredictionModel,
                                depths: Sequence[float], overheads_ms: Sequence[float],
                                full_latency_ms: float, variant: StaticEEVariant,
                                accuracy_constraint: float = 0.01) -> List[float]:
    """One-time threshold tuning on ``trace`` for the given variant."""
    errors, correct = _observation_matrices(trace, prediction, depths)
    if variant is StaticEEVariant.SHARED:
        best = 0.0
        best_savings = -np.inf
        for candidate in np.arange(0.0, 1.0001, 0.05):
            thresholds = [float(candidate)] * len(depths)
            evaluation = evaluate_thresholds(errors, correct, thresholds, depths,
                                             overheads_ms, full_latency_ms)
            if evaluation.accuracy >= 1.0 - accuracy_constraint and \
                    evaluation.mean_savings_ms > best_savings:
                best_savings = evaluation.mean_savings_ms
                best = float(candidate)
        return [best] * len(depths)
    result = tune_thresholds_greedy(errors, correct, depths, overheads_ms, full_latency_ms,
                                    accuracy_constraint=accuracy_constraint)
    return list(result.thresholds)


class _StaticEEExecutor:
    """Batch executor with a frozen EE configuration (no adaptation)."""

    def __init__(self, executor, ramp_ids: Sequence[int], depths: Sequence[float],
                 thresholds: Sequence[float], overheads: Sequence[float]) -> None:
        self.executor = executor
        self.ramp_ids = list(ramp_ids)
        self.depths = list(depths)
        self.thresholds = list(thresholds)
        self.overheads = list(overheads)

    def __call__(self, batch: Sequence[Request], batch_start_ms: float) -> BatchResult:
        difficulties = [r.sample.raw_difficulty for r in batch]
        sharpness = [r.sample.sharpness for r in batch]
        shifts = [r.sample.confidence_shift for r in batch]
        execution = self.executor.execute_batch(difficulties, sharpness, self.ramp_ids,
                                                self.depths, self.thresholds, self.overheads,
                                                confidence_shifts=shifts)
        return BatchResult(
            gpu_time_ms=execution.gpu_time_ms,
            result_offsets_ms=execution.result_offsets_ms,
            exited=execution.exited,
            exit_depths=execution.exit_depths,
            correct=execution.correct,
        )


def _static_ee_impl(model: Union[str, ModelSpec], workload: Workload, fleet: Fleet,
                    variant: StaticEEVariant = StaticEEVariant.SHARED,
                    ramp_style: RampStyle = RampStyle.LIGHTWEIGHT,
                    slo_ms: Optional[float] = None,
                    accuracy_constraint: float = 0.01, calibration_fraction: float = 0.10,
                    seed: int = 0) -> StaticEEResult:
    spec, profile, prediction, catalog, executor = model_stack(
        model, seed=seed, ramp_budget=1.0, ramp_style=ramp_style)
    slo = slo_ms if slo_ms is not None else spec.default_slo_ms

    # Ramps after every layer/block are always active (the prescribed
    # architecture): one ramp per coarse block, as in BranchyNet / DeeBERT.
    num_ramps = max(1, min(len(catalog), spec.num_blocks or len(catalog)))
    stride = max(1, len(catalog) // num_ramps)
    selected = list(catalog.ramps[::stride])[:num_ramps]
    ramp_ids = [r.ramp_id for r in selected]
    depths = [r.depth_fraction for r in selected]
    overhead_fractions = [r.overhead_fraction for r in selected]
    overheads_ms = [f * spec.bs1_latency_ms for f in overhead_fractions]

    if variant is StaticEEVariant.ORACLE:
        calibration = workload.trace
    else:
        count = max(1, int(len(workload.trace) * calibration_fraction))
        calibration = workload.trace.slice(0, count)
    thresholds = calibrate_static_thresholds(calibration, prediction, depths, overheads_ms,
                                             spec.bs1_latency_ms, variant,
                                             accuracy_constraint=accuracy_constraint)

    requests = make_requests(workload.trace, workload.arrival_times_ms, slo)
    # The executor is frozen (no adaptation), so every replica shares it.
    static_executor = _StaticEEExecutor(executor, ramp_ids, depths, thresholds,
                                        overhead_fractions)
    metrics = fleet(profile).run(requests, lambda ordinal: static_executor)
    return StaticEEResult(metrics=metrics, thresholds=thresholds, ramp_depths=depths)
