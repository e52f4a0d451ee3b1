"""The deployed early-exit configuration: active ramps and their thresholds."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.exits.placement import RampCatalog

__all__ = ["EEConfig"]


@dataclass
class EEConfig:
    """Active ramp set plus per-ramp thresholds.

    The configuration is always expressed against a :class:`RampCatalog`; ramp
    ids index into the catalog.  Thresholds live in ``[0, 1]``: a threshold of
    0 disables exiting at that ramp (the state every newly added ramp starts
    in, §3.1/§3.3).  Change the ramp set and thresholds through the methods:
    they keep :meth:`deployed` current.
    """

    catalog: RampCatalog
    active_ramp_ids: List[int] = field(default_factory=list)
    thresholds: Dict[int, float] = field(default_factory=dict)
    _deployed: Optional[Tuple[Tuple[int, ...], Tuple[float, ...], Tuple[float, ...],
                              Tuple[float, ...]]] = field(default=None, init=False,
                                                          repr=False, compare=False)

    def __post_init__(self) -> None:
        self.active_ramp_ids = sorted(set(int(r) for r in self.active_ramp_ids))
        for ramp_id in self.active_ramp_ids:
            self.thresholds.setdefault(ramp_id, 0.0)
        self._validate()

    # ---------------------------------------------------------------- access
    def ordered_thresholds(self) -> List[float]:
        """Thresholds of the active ramps, in model order."""
        return [self.thresholds[r] for r in self.active_ramp_ids]

    def ordered_depths(self) -> List[float]:
        return [self.catalog.ramp(r).depth_fraction for r in self.active_ramp_ids]

    def ordered_overheads(self) -> List[float]:
        return [self.catalog.ramp(r).overhead_fraction for r in self.active_ramp_ids]

    def num_active(self) -> int:
        return len(self.active_ramp_ids)

    def total_overhead_fraction(self) -> float:
        return self.catalog.overhead_of(self.active_ramp_ids)

    def within_budget(self) -> bool:
        return self.catalog.within_budget(self.active_ramp_ids)

    def deployed(self) -> Tuple[Tuple[int, ...], Tuple[float, ...], Tuple[float, ...],
                                Tuple[float, ...]]:
        """(ramp ids, depths, thresholds, overhead fractions) of the active
        ramps in model order, as tuples kept until the next change."""
        if self._deployed is None:
            self._deployed = (tuple(self.active_ramp_ids), tuple(self.ordered_depths()),
                              tuple(self.ordered_thresholds()),
                              tuple(self.ordered_overheads()))
        return self._deployed

    # ------------------------------------------------------------- mutation
    def set_threshold(self, ramp_id: int, threshold: float) -> None:
        if ramp_id not in self.thresholds:
            raise KeyError(f"ramp {ramp_id} is not active")
        self.thresholds[ramp_id] = float(min(max(threshold, 0.0), 1.0))
        self._deployed = None

    def set_thresholds(self, thresholds: Dict[int, float]) -> None:
        for ramp_id, value in thresholds.items():
            self.set_threshold(ramp_id, value)

    def add_ramp(self, ramp_id: int, threshold: float = 0.0) -> None:
        """Activate a ramp (new ramps start with threshold 0: no exiting)."""
        ramp_id = int(ramp_id)
        if ramp_id < 0 or ramp_id >= len(self.catalog):
            raise KeyError(f"ramp {ramp_id} not in catalog")
        if ramp_id in self.active_ramp_ids:
            return
        self.active_ramp_ids.append(ramp_id)
        self.active_ramp_ids.sort()
        self.thresholds[ramp_id] = float(min(max(threshold, 0.0), 1.0))
        self._deployed = None

    def remove_ramp(self, ramp_id: int) -> None:
        if ramp_id in self.active_ramp_ids:
            self.active_ramp_ids.remove(ramp_id)
            self.thresholds.pop(ramp_id, None)
            self._deployed = None

    def disable_all_exits(self) -> None:
        """Set every threshold to 0 (behaves exactly like the vanilla model)."""
        for ramp_id in self.active_ramp_ids:
            self.thresholds[ramp_id] = 0.0
        self._deployed = None

    def copy(self) -> "EEConfig":
        return EEConfig(catalog=self.catalog,
                        active_ramp_ids=list(self.active_ramp_ids),
                        thresholds=dict(self.thresholds))

    # ------------------------------------------------------------ validation
    def _validate(self) -> None:
        for ramp_id in self.active_ramp_ids:
            if ramp_id < 0 or ramp_id >= len(self.catalog):
                raise ValueError(f"active ramp {ramp_id} not in catalog of size {len(self.catalog)}")
        for ramp_id, threshold in self.thresholds.items():
            if not 0.0 <= threshold <= 1.0:
                raise ValueError(f"threshold for ramp {ramp_id} out of range: {threshold}")

    def describe(self) -> str:
        """Human-readable one-line summary (used in logs and examples)."""
        parts = [
            f"{self.catalog.ramp(r).node_name}@{self.catalog.ramp(r).depth_fraction:.2f}"
            f"(t={self.thresholds[r]:.2f})"
            for r in self.active_ramp_ids
        ]
        return f"EEConfig[{', '.join(parts) if parts else 'no active ramps'}]"
