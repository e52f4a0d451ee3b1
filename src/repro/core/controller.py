"""Apparate's runtime controller (§3.2–§3.3).

The controller runs on a CPU next to each model replica.  GPUs stream per-ramp
profiling information (top-prediction error score and agreement with the
original model) for every input; the controller:

* maintains a sliding accuracy window (16 samples) over *released* results and
  triggers threshold tuning whenever it falls below the accuracy constraint;
* periodically refreshes thresholds even without a violation (thresholds start
  at 0 — no exiting — so the first tuning round is what activates exits; the
  paper couples this with the ramp-adjustment cadence);
* every ``ramp_adjustment_period`` requests (128 by default) runs the
  utility-driven ramp adjustment of Algorithm 2 and applies its decision.

All tuning happens by replaying recorded observations; no extra inference is
ever issued (§3.2, "Evaluating threshold configurations").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exits.adjustment import AdjustmentDecision, RampAdjuster
from repro.exits.config import EEConfig
from repro.exits.evaluation import WindowBuffer
from repro.exits.placement import RampCatalog, initial_ramp_selection
from repro.exits.thresholds import tune_thresholds_greedy
from repro.models.execution import BatchExecution
from repro.models.latency import LatencyProfile
from repro.models.zoo import ModelSpec
from repro.utils.stats import WindowedAccuracy

__all__ = ["ControllerStats", "ApparateController", "FleetController"]


@dataclass
class ControllerStats:
    """Bookkeeping about the controller's own activity."""

    samples_seen: int = 0
    threshold_tunings: int = 0
    accuracy_triggered_tunings: int = 0
    ramp_adjustments: int = 0
    ramp_set_changes: int = 0
    config_history: List[Tuple[int, List[int]]] = field(default_factory=list)

    def record_config(self, sample_index: int, active_ramp_ids: Sequence[int]) -> None:
        self.config_history.append((sample_index, list(active_ramp_ids)))


class ApparateController:
    """Runtime manager of one model replica's early-exit configuration."""

    def __init__(self, spec: ModelSpec, catalog: RampCatalog, profile: LatencyProfile,
                 accuracy_constraint: float = 0.01,
                 accuracy_window: int = 16,
                 tuning_window: int = 256,
                 threshold_refresh_period: int = 32,
                 ramp_adjustment_period: int = 128,
                 min_tuning_samples: int = 48,
                 tuning_safety: float = 0.75,
                 initial_ramp_ids: Optional[Sequence[int]] = None) -> None:
        for name, value in (("tuning_window", tuning_window),
                            ("threshold_refresh_period", threshold_refresh_period),
                            ("ramp_adjustment_period", ramp_adjustment_period),
                            ("min_tuning_samples", min_tuning_samples)):
            if int(value) < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        self.spec = spec
        self.catalog = catalog
        self.profile = profile
        self.accuracy_constraint = float(accuracy_constraint)
        self.tuning_window = int(tuning_window)
        self.threshold_refresh_period = int(threshold_refresh_period)
        self.ramp_adjustment_period = int(ramp_adjustment_period)
        self.min_tuning_samples = int(min_tuning_samples)
        # Thresholds are tuned against a fraction of the allowed accuracy loss
        # so that drift between tuning rounds does not breach the constraint.
        self.tuning_safety = float(tuning_safety)

        ramp_ids = list(initial_ramp_ids) if initial_ramp_ids is not None \
            else initial_ramp_selection(catalog)
        self.config = EEConfig(catalog=catalog, active_ramp_ids=ramp_ids)
        self.window = WindowBuffer(self.config.active_ramp_ids, capacity=max(tuning_window, 512))
        self.accuracy_monitor = WindowedAccuracy(window=accuracy_window)
        self.adjuster = RampAdjuster(catalog, accuracy_constraint=accuracy_constraint)
        self.stats = ControllerStats()
        self._full_latency_ms = spec.bs1_latency_ms
        self.stats.record_config(0, self.config.active_ramp_ids)

    # ----------------------------------------------------------- config view
    def deployed_config(self) -> Tuple[Tuple[int, ...], Tuple[float, ...],
                                       Tuple[float, ...], Tuple[float, ...]]:
        """Return (ramp_ids, depths, thresholds, overhead fractions) for the
        GPU: read-only tuples, rebuilt only when the configuration changes."""
        return self.config.deployed()

    def overhead_budget_ok(self) -> bool:
        return self.config.within_budget()

    # -------------------------------------------------------------- feedback
    def observe_batch(self, execution: BatchExecution) -> None:
        """Ingest one batch's streamed profiling data and adapt if needed.

        Input by input: record its feedback row in the window, feed the
        accuracy monitor, back off on a violation, refresh thresholds on
        schedule and adjust the ramp set on schedule.  An adjustment that
        changes the ramp set re-keys the window, so the rest of the batch is
        ingested only if its ramps still cover the window's.
        """
        window, monitor, stats = self.window, self.accuracy_monitor, self.stats
        rows = self._window_rows(execution)
        for i, final_correct in enumerate(execution.correct):
            if rows is not None:
                window.record(rows[0][i], rows[1][i])
            monitor.record(final_correct)
            stats.samples_seen += 1

            accuracy_violation = (monitor.full()
                                  and monitor.accuracy() < 1.0 - self.accuracy_constraint)
            periodic_refresh = (stats.samples_seen % self.threshold_refresh_period == 0)
            if accuracy_violation:
                # Immediate multiplicative backoff: wrong exits are already
                # escaping, so cut every threshold before the (asynchronous)
                # re-tuning settles on new values.
                for ramp_id in self.config.active_ramp_ids:
                    self.config.set_threshold(ramp_id, self.config.thresholds[ramp_id] * 0.5)
            if ((accuracy_violation or periodic_refresh)
                    and len(window) >= self.min_tuning_samples):
                self.tune_thresholds(triggered_by_accuracy=accuracy_violation)
                if accuracy_violation:
                    monitor.reset()

            if (stats.samples_seen % self.ramp_adjustment_period == 0
                    and len(window) >= self.min_tuning_samples):
                self.adjust_ramps()
                rows = self._window_rows(execution)

    def _window_rows(self, execution: BatchExecution
                     ) -> Optional[Tuple[List[List[float]], List[List[bool]]]]:
        """The batch's (errors, agree) rows in window-ramp order, or ``None``
        when the window takes none of them: no ramp is active, or a window
        ramp is missing from the batch (the ramp set changed after the batch
        ran, so its rows are keyed to the previous configuration)."""
        if self.config.num_active() == 0:
            return None
        window_ids = self.window.ramp_ids
        if window_ids == execution.ramp_ids:
            return execution.errors, execution.agree
        position = {rid: col for col, rid in enumerate(execution.ramp_ids)}
        if any(rid not in position for rid in window_ids):
            return None
        columns = [position[rid] for rid in window_ids]
        return ([[row[col] for col in columns] for row in execution.errors],
                [[row[col] for col in columns] for row in execution.agree])

    # -------------------------------------------------------- threshold loop
    def tune_thresholds(self, triggered_by_accuracy: bool = False) -> None:
        """Re-tune thresholds of the active ramps on the recent window."""
        if self.config.num_active() == 0 or len(self.window) == 0:
            return
        # A violation means the workload just shifted: tune on the freshest
        # samples only, so the new regime dominates the replay.  Periodic
        # refreshes use the full tuning window for stability.
        window = self.min_tuning_samples if triggered_by_accuracy else self.tuning_window
        errors, correct = self.window.latest(window)
        overheads_ms = [o * self._full_latency_ms for o in self.config.ordered_overheads()]
        result = tune_thresholds_greedy(errors, correct, self.config.ordered_depths(),
                                        overheads_ms, self._full_latency_ms,
                                        accuracy_constraint=self.accuracy_constraint
                                        * self.tuning_safety,
                                        conservative_margin=0.5)
        self.config.set_thresholds(result.thresholds_by_ramp(self.config.active_ramp_ids))
        self.stats.threshold_tunings += 1
        if triggered_by_accuracy:
            self.stats.accuracy_triggered_tunings += 1

    # ------------------------------------------------------------- ramp loop
    def adjust_ramps(self) -> None:
        """Run Algorithm 2 and apply its decision."""
        decision = self.adjuster.propose(self.config, self.window, self._full_latency_ms)
        self.stats.ramp_adjustments += 1
        self.apply_decision(decision)

    def apply_decision(self, decision: AdjustmentDecision) -> None:
        if decision.new_thresholds:
            self.config.set_thresholds(decision.new_thresholds)
        if decision.changes_ramp_set:
            for ramp_id in decision.ramps_to_remove:
                self.config.remove_ramp(ramp_id)
            for ramp_id in decision.ramps_to_add:
                if len(self.config.active_ramp_ids) < self.catalog.max_active_ramps():
                    self.config.add_ramp(ramp_id, threshold=0.0)
            self.window.rebuild(self.config.active_ramp_ids)
            self.stats.ramp_set_changes += 1
            self.stats.record_config(self.stats.samples_seen, self.config.active_ramp_ids)


# ---------------------------------------------------------------------------
# Fleet-scale control (cluster serving).
# ---------------------------------------------------------------------------

class _SyncedReplicaController:
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
        self._buffer: List[BatchExecution] = []
        self._buffered_samples = 0

    def deployed_config(self) -> Tuple[Tuple[int, ...], Tuple[float, ...],
                                       Tuple[float, ...], Tuple[float, ...]]:
        return self.shared.deployed_config()

    def observe_batch(self, execution: BatchExecution) -> None:
        self._buffer.append(execution)
        self._buffered_samples += len(execution.correct)
        if self._buffered_samples >= self.sync_period:
            self.flush()

    def flush(self) -> None:
        """Replay buffered feedback into the shared controller."""
        for execution in self._buffer:
            self.shared.observe_batch(execution)
        self._buffer.clear()
        self._buffered_samples = 0


class FleetController:
    """EE control for a fleet of replicas serving the same model.

    Two modes reproduce the paper's controller at cluster scale:

    ``independent``
        One :class:`ApparateController` per replica.  Each replica adapts its
        thresholds/ramps to the slice of traffic the balancer routes to it —
        robust to skewed dispatch, but every controller pays its own warm-up.
    ``shared``
        One controller for the whole fleet.  Every replica serves the shared
        deployed configuration; profiling feedback is aggregated across
        replicas with a periodic sync (every ``sync_period`` samples per
        replica), so the controller tunes on fleet-wide evidence and converges
        with N× the sample rate of a single replica.

    The membership is *elastic*: ``replica_controller`` grows the view list on
    demand, so a cluster autoscaler can bring replicas online mid-run —
    independent mode gives the newcomer a fresh controller (it pays its own
    warm-up, as a newly booted machine would), shared mode hands it a synced
    view of the fleet controller (it serves the converged configuration
    immediately).

    ``ramp_adjustment_enabled=False`` is the §4.5 ablation switch: every
    controller keeps its initial ramp set for the whole run.
    """

    MODES = ("independent", "shared")

    def __init__(self, spec: ModelSpec, catalog: RampCatalog, profile: LatencyProfile,
                 num_replicas: int, mode: str = "independent",
                 sync_period: int = 64, ramp_adjustment_enabled: bool = True,
                 **controller_kwargs) -> None:
        if num_replicas < 1:
            raise ValueError("num_replicas must be >= 1")
        mode = mode.lower()
        if mode not in self.MODES:
            raise ValueError(f"unknown fleet mode {mode!r}; choose from {self.MODES}")
        if not ramp_adjustment_enabled:
            controller_kwargs["ramp_adjustment_period"] = 10 ** 9
        self.mode = mode
        self.num_replicas = int(num_replicas)
        self.sync_period = int(sync_period)
        self._build_controller = lambda: ApparateController(
            spec, catalog, profile, **controller_kwargs)

        if mode == "independent":
            self.shared: Optional[ApparateController] = None
            self.controllers: List[ApparateController] = [
                self._build_controller() for _ in range(self.num_replicas)]
            self._replica_views: List[object] = list(self.controllers)
        else:
            self.shared = self._build_controller()
            self.controllers = [self.shared]
            self._replica_views = [
                _SyncedReplicaController(self.shared, sync_period)
                for _ in range(self.num_replicas)]

    def replica_controller(self, index: int):
        """The controller-like object replica ``index`` should serve through.

        Indices past the initial fleet grow the membership (autoscaling):
        views are created on demand and kept, so a replica ordinal always maps
        to the same controller for the whole run.
        """
        if index < 0:
            raise ValueError(f"replica index must be >= 0, got {index}")
        while index >= len(self._replica_views):
            if self.mode == "independent":
                controller = self._build_controller()
                self.controllers.append(controller)
                self._replica_views.append(controller)
            else:
                self._replica_views.append(
                    _SyncedReplicaController(self.shared, self.sync_period))
        return self._replica_views[index]

    def primary(self) -> ApparateController:
        """The controller used for fleet-level reporting."""
        return self.shared if self.shared is not None else self.controllers[0]

    def flush(self) -> None:
        """Drain any buffered feedback (call once at the end of a run)."""
        if self.shared is not None:
            for view in self._replica_views:
                view.flush()

    # ------------------------------------------------------------- reporting
    def total_samples_seen(self) -> int:
        return sum(c.stats.samples_seen for c in self.controllers)

    def stats_summary(self) -> Dict[str, float]:
        """Fleet-wide controller activity, summed across controllers."""
        return {
            "fleet_mode": float(self.MODES.index(self.mode)),
            "num_controllers": float(len(self.controllers)),
            "samples_seen": float(self.total_samples_seen()),
            "threshold_tunings": float(sum(c.stats.threshold_tunings
                                           for c in self.controllers)),
            "ramp_adjustments": float(sum(c.stats.ramp_adjustments
                                          for c in self.controllers)),
            "ramp_set_changes": float(sum(c.stats.ramp_set_changes
                                          for c in self.controllers)),
        }
