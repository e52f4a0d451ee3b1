"""Shared utilities: seeded randomness and windowed statistics."""

from repro.utils.rng import RngFactory, derive_seed
from repro.utils.stats import (
    WindowedAccuracy,
    percentile,
    summarize_latencies,
)

__all__ = [
    "RngFactory",
    "derive_seed",
    "WindowedAccuracy",
    "percentile",
    "summarize_latencies",
]
