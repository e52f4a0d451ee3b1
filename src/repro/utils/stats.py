"""Statistics helpers shared by the controller, serving metrics and benches."""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Sequence

import numpy as np

__all__ = [
    "percentile",
    "summarize_latencies",
    "WindowedAccuracy",
]


def percentile(values: Sequence[float], pct: float) -> float:
    """Return the ``pct``-th percentile of ``values`` (empty -> 0.0)."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), pct))


def summarize_latencies(values: Sequence[float]) -> Dict[str, float]:
    """Return the latency summary used throughout the evaluation.

    Keys mirror the statistics the paper reports: 25th percentile, median,
    95th/99th percentile, mean and count.
    """
    arr = np.asarray(list(values), dtype=float)
    # Non-finite samples (e.g. sentinel NaNs from runs where nothing
    # completed) would poison every percentile; drop them so an empty or
    # degenerate run reports zeroed statistics instead of NaN/raising.
    arr = arr[np.isfinite(arr)]
    if arr.size == 0:
        return {"p25": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0, "count": 0}
    # One vectorized quantile pass: np.percentile sorts (partitions) per
    # call, so a single call over all four ranks does a quarter of the work
    # of four separate calls — this runs once per batch flush fleet-wide.
    p25, p50, p95, p99 = np.percentile(arr, (25.0, 50.0, 95.0, 99.0))
    return {
        "p25": float(p25),
        "p50": float(p50),
        "p95": float(p95),
        "p99": float(p99),
        "mean": float(arr.mean()),
        "count": int(arr.size),
    }


class WindowedAccuracy:
    """Sliding-window accuracy monitor.

    Apparate triggers threshold tuning whenever the accuracy of exited results
    over the most recent ``window`` samples (16 in the paper) drops below the
    user constraint.  ``record`` ingests one sample; ``accuracy`` returns the
    current window accuracy (1.0 when the window is empty so that a cold start
    never triggers tuning).
    """

    def __init__(self, window: int = 16) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = int(window)
        self._hits: Deque[bool] = deque(maxlen=self.window)

    def record(self, correct: bool) -> None:
        self._hits.append(bool(correct))

    def accuracy(self) -> float:
        if not self._hits:
            return 1.0
        return sum(self._hits) / len(self._hits)

    def full(self) -> bool:
        return len(self._hits) == self.window

    def reset(self) -> None:
        self._hits.clear()

    def __len__(self) -> int:
        return len(self._hits)


def savings_percent(baseline: float, improved: float) -> float:
    """Relative latency saving (%) of ``improved`` over ``baseline``."""
    if baseline <= 0:
        return 0.0
    return 100.0 * (baseline - improved) / baseline
