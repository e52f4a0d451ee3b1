"""Two-layer inference systems: Tabi (NLP) and FilterForward (CV) style (§4.2).

These systems run a compressed model on every input and escalate only
low-confidence inputs to the base model.  We model the compressed model as a
predictor with capability equal to a fraction of the base model's depth
(i.e. it behaves like the base model truncated at that depth) and a runtime
that is a fraction of the base model's.  As in the paper's evaluation, the
comparison is deliberately favourable to the baseline: hosting overheads,
data-pruning compute and queuing between the two models are all ignored —
per-request latency is simply the vanilla queuing delay plus the compressed
model time, plus the base-model serving time for escalated inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.pipeline import (Fleet, Workload, _vanilla_cluster_impl,
                                 model_stack)
from repro.models.prediction import PredictionModel, ramp_error_score
from repro.models.zoo import ModelSpec, Task, get_model
from repro.workloads.difficulty import DifficultyTrace

__all__ = ["TwoLayerSystem", "TwoLayerResult"]


@dataclass
class TwoLayerSystem:
    """Compressed-model front end in front of a base model.

    Attributes
    ----------
    capability_depth:
        The compressed model behaves like the base model truncated at this
        depth fraction (its predictions are reliable for inputs whose
        required depth is below it).
    runtime_fraction:
        Compressed-model runtime as a fraction of the base model's bs=1 time.
    confidence_threshold:
        Escalation rule: inputs whose compressed-model error score is below
        the threshold are answered by the compressed model alone.
    """

    capability_depth: float
    runtime_fraction: float
    confidence_threshold: float = 0.5

    def calibrate(self, trace: DifficultyTrace, prediction: PredictionModel,
                  accuracy_constraint: float = 0.01) -> float:
        """Pick the largest escalation threshold that meets the accuracy budget."""
        required = prediction.required_depths(trace.raw_difficulty)
        errors = np.asarray(ramp_error_score(required, self.capability_depth, trace.sharpness,
                                             trace.confidence_shift))
        correct = required <= self.capability_depth
        best = 0.0
        n = len(trace)
        for candidate in np.arange(0.02, 0.99, 0.02):
            served_by_compressed = errors < candidate
            num_compressed = int(served_by_compressed.sum())
            num_correct = int(correct[served_by_compressed].sum()) + (n - num_compressed)
            if num_correct / n >= 1.0 - accuracy_constraint:
                best = float(candidate)
            else:
                break
        self.confidence_threshold = best
        return best


@dataclass
class TwoLayerResult:
    """Outcome of a two-layer serving run."""

    latencies_ms: np.ndarray
    accuracy: float
    escalation_rate: float

    def summary(self) -> Dict[str, float]:
        return {
            "p25_ms": float(np.percentile(self.latencies_ms, 25)) if self.latencies_ms.size else 0.0,
            "p50_ms": float(np.percentile(self.latencies_ms, 50)) if self.latencies_ms.size else 0.0,
            "p95_ms": float(np.percentile(self.latencies_ms, 95)) if self.latencies_ms.size else 0.0,
            "accuracy": self.accuracy,
            "escalation_rate": self.escalation_rate,
        }


# Default two-layer configurations per task, loosely matching the paper's
# comparators: FilterForward's micro-classifiers for CV, Tabi's compressed
# language model (DistilBERT-like) for NLP.
_DEFAULTS = {
    Task.CV_CLASSIFICATION: {"capability_depth": 0.42, "runtime_fraction": 0.40},
    Task.NLP_CLASSIFICATION: {"capability_depth": 0.55, "runtime_fraction": 0.50},
}


def _two_layer_impl(model: Union[str, ModelSpec], workload: Workload, fleet: Fleet,
                    slo_ms: Optional[float] = None,
                    accuracy_constraint: float = 0.01, calibration_fraction: float = 1.0,
                    capability_depth: Optional[float] = None,
                    runtime_fraction: Optional[float] = None,
                    seed: int = 0) -> TwoLayerResult:
    """Serve ``workload`` with a two-layer (compressed + base) system.

    As in the paper, the evaluation is favourable to the baseline: by default
    the escalation threshold is calibrated on the full stream (so the system
    operates within the same accuracy budget as Apparate), and the costs of
    hosting the compressed model and of moving data between the two models
    are ignored.
    """
    spec, _profile, prediction, _catalog, _executor = model_stack(model, seed=seed)
    defaults = _DEFAULTS.get(spec.task, _DEFAULTS[Task.NLP_CLASSIFICATION])
    system = TwoLayerSystem(
        capability_depth=capability_depth if capability_depth is not None
        else defaults["capability_depth"],
        runtime_fraction=runtime_fraction if runtime_fraction is not None
        else defaults["runtime_fraction"],
    )
    calibration_count = max(1, int(len(workload.trace) * calibration_fraction))
    system.calibrate(workload.trace.slice(0, calibration_count), prediction,
                     accuracy_constraint=accuracy_constraint)

    # Like the oracle, the two-layer comparator replays the vanilla run's
    # schedule and discounts latencies analytically, so recorded spans show
    # the vanilla serving timeline.
    vanilla = _vanilla_cluster_impl(spec, workload, fleet, slo_ms=slo_ms,
                            seed=seed).aggregate()

    required = prediction.required_depths(workload.trace.raw_difficulty)
    sharpness = workload.trace.sharpness
    compressed_time = system.runtime_fraction * spec.bs1_latency_ms

    latencies: List[float] = []
    correct_count = 0
    escalations = 0
    shifts = workload.trace.confidence_shift
    for response in vanilla.served():
        rid = response.request_id
        error = float(ramp_error_score(required[rid], system.capability_depth,
                                       sharpness[rid], shifts[rid]))
        if error < system.confidence_threshold:
            latency = response.queueing_ms + compressed_time
            correct = bool(required[rid] <= system.capability_depth) or \
                prediction.is_correct(float(workload.trace.raw_difficulty[rid]),
                                      system.capability_depth)
        else:
            escalations += 1
            latency = response.queueing_ms + compressed_time + response.serving_ms
            correct = True
        latencies.append(latency)
        correct_count += int(correct)

    n = max(len(latencies), 1)
    return TwoLayerResult(latencies_ms=np.asarray(latencies, dtype=float),
                          accuracy=correct_count / n,
                          escalation_rate=escalations / n)
