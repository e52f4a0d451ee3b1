"""Latency-focused ramp adjustment (§3.3, Algorithm 2, Figure 11).

Every adjustment period (128 requests by default) the controller scores each
active ramp by its *utility* — milliseconds of latency saved by inputs exiting
at the ramp minus the milliseconds of overhead it added to inputs it could not
exit — and conservatively alters the active ramp set:

* When negative-utility ramps exist, it first retries a fast round of
  threshold tuning (thresholds are the finer knob); if that cannot make all
  utilities positive, the negative ramps are deactivated and a replacement
  candidate is selected from positions *after the latest positive ramp* using
  upper-bound exit-rate estimates (a candidate can exit at most the inputs
  that went on to exit at the deactivated ramps downstream of it).
* When every ramp is positive, it enters a low-risk probing phase: add a ramp
  immediately before the highest-utility ramp when budget remains, otherwise
  shift the lowest-utility ramp one position earlier (never touching the most
  positive ramp).

New or moved ramps always start with threshold 0, so they cannot harm accuracy
until the next threshold-tuning round assigns them a real threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exits.config import EEConfig
from repro.exits.evaluation import ConfigEvaluation, WindowBuffer
from repro.exits.placement import RampCatalog
from repro.exits.thresholds import tune_thresholds_greedy

__all__ = ["RampUtility", "AdjustmentDecision", "RampAdjuster"]


@dataclass(frozen=True)
class RampUtility:
    """Utility accounting for one active ramp over the last period."""

    ramp_id: int
    depth_fraction: float
    exit_count: int
    exit_rate: float
    savings_ms: float
    overhead_ms: float

    @property
    def utility_ms(self) -> float:
        return self.savings_ms - self.overhead_ms

    @property
    def positive(self) -> bool:
        return self.utility_ms >= 0.0


@dataclass
class AdjustmentDecision:
    """What the adjuster wants the controller to change."""

    action: str
    ramps_to_remove: List[int] = field(default_factory=list)
    ramps_to_add: List[int] = field(default_factory=list)
    new_thresholds: Optional[Dict[int, float]] = None
    utilities: List[RampUtility] = field(default_factory=list)

    @property
    def changes_ramp_set(self) -> bool:
        return bool(self.ramps_to_remove or self.ramps_to_add)


class RampAdjuster:
    """Implements Algorithm 2 against a ramp catalog."""

    def __init__(self, catalog: RampCatalog, accuracy_constraint: float = 0.01) -> None:
        self.catalog = catalog
        self.accuracy_constraint = float(accuracy_constraint)
        # Ramps deactivated in the most recent round are not re-trialed in the
        # very next probing round, which prevents add/remove churn on ramps
        # that keep proving unfruitful.
        self._recently_removed: set = set()

    # ------------------------------------------------------------- utilities
    def compute_utilities(self, config: EEConfig, evaluation: ConfigEvaluation) -> List[RampUtility]:
        """Convert a window evaluation into per-ramp utilities."""
        utilities: List[RampUtility] = []
        n = max(evaluation.num_samples, 1)
        for idx, ramp_id in enumerate(config.active_ramp_ids):
            ramp = self.catalog.ramp(ramp_id)
            utilities.append(RampUtility(
                ramp_id=ramp_id,
                depth_fraction=ramp.depth_fraction,
                exit_count=int(evaluation.exit_counts[idx]),
                exit_rate=float(evaluation.exit_counts[idx]) / n,
                savings_ms=float(evaluation.ramp_savings_ms[idx]),
                overhead_ms=float(evaluation.ramp_overhead_ms[idx]),
            ))
        return utilities

    # ----------------------------------------------------------------- main
    def propose(self, config: EEConfig, window: WindowBuffer,
                full_latency_ms: float) -> AdjustmentDecision:
        """Produce an adjustment decision from the current window of feedback."""
        if config.num_active() == 0:
            return self._bootstrap_decision()

        evaluation = window.evaluate(config.ordered_thresholds(), config.ordered_depths(),
                                     [o * full_latency_ms for o in config.ordered_overheads()],
                                     full_latency_ms)
        utilities = self.compute_utilities(config, evaluation)
        negative = [u for u in utilities if not u.positive]

        if negative:
            return self._handle_negative(config, window, full_latency_ms, evaluation,
                                         utilities)
        return self._probe(config, utilities)

    # ------------------------------------------------------------- negatives
    def _handle_negative(self, config: EEConfig, window: WindowBuffer,
                         full_latency_ms: float, evaluation: ConfigEvaluation,
                         utilities: List[RampUtility]) -> AdjustmentDecision:
        """Negative-utility path: retune thresholds, else replace ramps.

        ``evaluation`` is the whole window replayed under the current
        thresholds; the retune's own evaluation replays the same window under
        the new ones (the tuner returns thresholds in ``[0, 1]``, which
        setting them on the configuration leaves unchanged).
        """
        overheads_ms = [o * full_latency_ms for o in config.ordered_overheads()]
        retune = tune_thresholds_greedy(window.errors_matrix(), window.correct_matrix(),
                                        config.ordered_depths(), overheads_ms,
                                        full_latency_ms,
                                        accuracy_constraint=self.accuracy_constraint)
        trial_utilities = self.compute_utilities(config, retune.evaluation)
        if all(u.positive for u in trial_utilities) and \
                retune.evaluation.mean_savings_ms >= evaluation.mean_savings_ms:
            return AdjustmentDecision(
                action="retuned-thresholds",
                new_thresholds=retune.thresholds_by_ramp(config.active_ramp_ids),
                utilities=trial_utilities,
            )

        to_remove = [u.ramp_id for u in utilities if not u.positive]
        addition = self._select_addition(config, utilities, to_remove, full_latency_ms)
        self._recently_removed = set(to_remove)
        return AdjustmentDecision(
            action="replaced-negative-ramps",
            ramps_to_remove=to_remove,
            ramps_to_add=[addition] if addition is not None else [],
            utilities=utilities,
        )

    def _select_addition(self, config: EEConfig, utilities: List[RampUtility],
                         removed: Sequence[int], full_latency_ms: float) -> Optional[int]:
        """Pick a replacement ramp after the latest positive ramp (Figure 11)."""
        positive = [u for u in utilities if u.positive]
        removed_set = set(removed)
        removed_utils = sorted((u for u in utilities if u.ramp_id in removed_set),
                               key=lambda u: u.ramp_id)
        latest_positive_id = max((u.ramp_id for u in positive), default=-1)

        # Candidate positions: inactive catalog ramps after the latest
        # positive ramp, excluding the ones just removed.
        active = set(config.active_ramp_ids)
        candidates = [r.ramp_id for r in self.catalog.ramps
                      if r.ramp_id > latest_positive_id
                      and r.ramp_id not in active]
        if not candidates:
            return None

        # Intervals are separated by the removed (deactivated) ramps.
        boundaries = [u.ramp_id for u in removed_utils if u.ramp_id > latest_positive_id]
        intervals = self._intervals(candidates, boundaries)

        per_exit_savings = {
            rid: full_latency_ms * (1.0 - self.catalog.ramp(rid).depth_fraction)
            for rid in candidates
        }
        overhead_ms = {
            rid: self.catalog.ramp(rid).overhead_fraction * full_latency_ms
            for rid in candidates
        }

        # Round-by-round: start from the middle of each interval, then move to
        # later positions if every candidate projects a negative utility.
        pools = [list(interval) for interval in intervals if interval]
        round_index = 0
        while True:
            round_candidates: List[int] = []
            for pool in pools:
                idx = self._round_position(len(pool), round_index)
                if idx is not None:
                    round_candidates.append(pool[idx])
            if not round_candidates:
                return None
            best_ramp: Optional[int] = None
            best_utility = 0.0
            for rid in round_candidates:
                exit_rate_ub = self._upper_bound_exit_rate(rid, removed_utils)
                utility = exit_rate_ub * per_exit_savings[rid] - \
                    (1.0 - exit_rate_ub) * overhead_ms[rid]
                if utility > best_utility:
                    best_utility = utility
                    best_ramp = rid
            if best_ramp is not None:
                return best_ramp
            round_index += 1
            if round_index > max(len(p) for p in pools):
                return None

    @staticmethod
    def _round_position(pool_size: int, round_index: int) -> Optional[int]:
        """Position to probe within an interval for the given search round.

        Round 0 probes the middle of the interval; later rounds move toward
        the end (later ramps have higher exit-rate upper bounds).
        """
        if pool_size == 0:
            return None
        idx = pool_size // 2 + round_index
        if idx >= pool_size:
            return None
        return idx

    @staticmethod
    def _intervals(candidates: Sequence[int], boundaries: Sequence[int]) -> List[List[int]]:
        """Split candidate ids into intervals separated by deactivated ramps."""
        intervals: List[List[int]] = []
        current: List[int] = []
        boundary_iter = sorted(boundaries)
        b_idx = 0
        for rid in sorted(candidates):
            while b_idx < len(boundary_iter) and boundary_iter[b_idx] < rid:
                if current:
                    intervals.append(current)
                    current = []
                b_idx += 1
            current.append(rid)
        if current:
            intervals.append(current)
        return intervals

    @staticmethod
    def _upper_bound_exit_rate(candidate_id: int, removed_utils: Sequence[RampUtility]) -> float:
        """Upper bound on a candidate's exit rate (Figure 11).

        Inputs that exited at deactivated ramps at or after the candidate's
        position *might* have exited at the candidate; inputs from earlier
        deactivations would also have reached it.  The bound sums the profiled
        exit rates of the next deactivated ramp downstream plus all earlier
        deactivations.
        """
        earlier = [u.exit_rate for u in removed_utils if u.ramp_id < candidate_id]
        later = [u.exit_rate for u in removed_utils if u.ramp_id >= candidate_id]
        bound = sum(earlier) + (later[0] if later else 0.0)
        return float(min(bound, 1.0))

    # --------------------------------------------------------------- probing
    def _probe(self, config: EEConfig, utilities: List[RampUtility]) -> AdjustmentDecision:
        """All-positive path: probe earlier positions for extra savings."""
        if not utilities:
            return AdjustmentDecision(action="noop", utilities=utilities)
        best = max(utilities, key=lambda u: u.utility_ms)
        worst = min(utilities, key=lambda u: u.utility_ms)
        active = set(config.active_ramp_ids)

        budget_left = len(active) < self.catalog.max_active_ramps()
        if budget_left:
            candidate = self._nearest_inactive_before(best.ramp_id, active | self._recently_removed)
            self._recently_removed = set()
            if candidate is not None:
                return AdjustmentDecision(action="probe-add-before-best",
                                          ramps_to_add=[candidate], utilities=utilities)
            return AdjustmentDecision(action="noop", utilities=utilities)

        if worst.ramp_id == best.ramp_id:
            return AdjustmentDecision(action="noop", utilities=utilities)
        candidate = self._nearest_inactive_before(worst.ramp_id, active)
        if candidate is None:
            return AdjustmentDecision(action="noop", utilities=utilities)
        return AdjustmentDecision(action="probe-shift-worst-earlier",
                                  ramps_to_remove=[worst.ramp_id],
                                  ramps_to_add=[candidate], utilities=utilities)

    def _nearest_inactive_before(self, ramp_id: int, active: set) -> Optional[int]:
        for candidate in range(ramp_id - 1, -1, -1):
            if candidate not in active:
                return candidate
        return None

    # ------------------------------------------------------------- bootstrap
    def _bootstrap_decision(self) -> AdjustmentDecision:
        """With no active ramps, re-seed from the middle of the catalog."""
        if len(self.catalog) == 0:
            return AdjustmentDecision(action="noop")
        middle = len(self.catalog) // 2
        return AdjustmentDecision(action="bootstrap-add-middle", ramps_to_add=[middle])
