"""Optimal early exiting (§2.2): the upper bound Apparate is compared against.

For classification, the optimal strategy knows — for every input — the
earliest ramp position whose prediction matches the original model, exits
there with zero ramp overhead, and leaves queuing/scheduling untouched
(latencies of the vanilla run are reduced by exactly the serving time the
exit avoided).  For generative serving, every token exits at the earliest
candidate ramp that produces the correct value, ignoring the delay of
generating the remaining KV states (§4.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.core.generative import GenerativeFleet, generative_ramp_depths
from repro.core.pipeline import (Fleet, Workload, _vanilla_cluster_impl,
                                 model_stack)
from repro.generative.parallel import TokenFeedback
from repro.generative.sequences import GenerativeWorkload
from repro.models.prediction import PredictionModel
from repro.models.zoo import ModelSpec, get_model
from repro.serving.hf_pipelines import TokenDecision
from repro.serving.metrics import ServingMetrics
from repro.workloads.difficulty import DifficultyTrace

__all__ = ["optimal_exit_depths", "optimal_latencies", "OracleTokenPolicy"]


def optimal_exit_depths(trace: DifficultyTrace, prediction: PredictionModel,
                        candidate_depths: Sequence[float]) -> np.ndarray:
    """Earliest candidate depth at which each input's prediction is correct.

    Inputs whose prediction never emerges before the model end get depth 1.0
    (no exit).
    """
    depths = np.asarray(sorted(candidate_depths), dtype=float)
    required = prediction.required_depths(trace.raw_difficulty)
    result = np.ones(len(trace), dtype=float)
    if depths.size == 0:
        return result
    # For each input, the first candidate depth >= required depth.
    idx = np.searchsorted(depths, required, side="left")
    has_exit = idx < depths.size
    result[has_exit] = depths[idx[has_exit]]
    return result


def optimal_latencies(vanilla: ServingMetrics, trace: DifficultyTrace,
                      prediction: PredictionModel,
                      candidate_depths: Sequence[float]) -> np.ndarray:
    """Per-request latencies under optimal exiting, derived from a vanilla run.

    As in §2.2, queuing and scheduling decisions are untouched: each request's
    vanilla latency is reduced by the serving time between its optimal exit
    point and the end of the model.
    """
    exit_depths = optimal_exit_depths(trace, prediction, candidate_depths)
    latencies: List[float] = []
    for response in vanilla.served():
        depth = float(exit_depths[response.request_id])
        saved = response.serving_ms * (1.0 - depth)
        latencies.append(response.latency_ms - saved)
    return np.asarray(latencies, dtype=float)


def _optimal_classification_impl(model: Union[str, ModelSpec], workload: Workload,
                                 fleet: Fleet, slo_ms: Optional[float] = None,
                                 seed: int = 0) -> np.ndarray:
    # The oracle replays the vanilla run's schedule, so the recorded spans
    # are the vanilla serving timeline (its latencies are then discounted
    # analytically and do not correspond to any simulated timeline).
    spec, _profile, prediction, catalog, _executor = model_stack(model, seed=seed)
    vanilla = _vanilla_cluster_impl(spec, workload, fleet, slo_ms=slo_ms,
                                    seed=seed)
    return optimal_latencies(vanilla.aggregate(), workload.trace, prediction,
                             [r.depth_fraction for r in catalog.ramps])


class OracleTokenPolicy:
    """Generative oracle: exit every token at its earliest correct ramp."""

    def __init__(self, prediction: PredictionModel, candidate_depths: Sequence[float]) -> None:
        self.prediction = prediction
        self.candidate_depths = sorted(float(d) for d in candidate_depths)

    def decide(self, sequence_id: int, token_index: int, raw_difficulty: float,
               sharpness: float) -> TokenDecision:
        required = self.prediction.required_depth(raw_difficulty)
        for depth in self.candidate_depths:
            if depth >= required:
                return TokenDecision(exited=True, exit_depth=depth, error_score=0.0,
                                     correct=True)
        return TokenDecision(exited=False, exit_depth=None, error_score=1.0, correct=True)

    def feedback(self, records: Sequence[TokenFeedback]) -> None:
        return None


def _optimal_generative_cluster_impl(model: Union[str, ModelSpec],
                                     workload: GenerativeWorkload,
                                     fleet: GenerativeFleet,
                                     seed: int = 0):
    """The generative oracle on a generative fleet: every token on every
    decode replica exits at its earliest correct ramp with zero overhead."""
    spec = get_model(model) if isinstance(model, str) else model
    policy = OracleTokenPolicy(PredictionModel(spec, seed=seed),
                               generative_ramp_depths(spec, seed=seed))
    return fleet(0.0).run(workload, lambda ordinal: policy)
