"""Input-difficulty processes underlying every workload.

Each request carries a *raw difficulty* in ``[0, 1]`` (how much of a model's
predictive power it needs — see :mod:`repro.models.prediction`) and a
*sharpness* describing how quickly ramp confidence improves with extra depth.
Workloads differ in how difficulty evolves over the stream:

* :class:`RandomWalkDifficulty` — bounded random walk with occasional jumps;
  adjacent requests are highly correlated (video frames).
* :class:`RegimeSwitchDifficulty` — piecewise-stationary: difficulty is drawn
  i.i.d. around a regime mean, and the mean jumps at regime boundaries
  (product categories / users in review streams).

Both produce :class:`DifficultyTrace` objects: plain arrays that the serving
pipeline and the offline analyses (optimal exits, config-drift studies) can
share without re-simulating.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence

import numpy as np

__all__ = [
    "InputSample",
    "DifficultyTrace",
    "RandomWalkDifficulty",
    "RegimeSwitchDifficulty",
    "resolve_preset",
]


def resolve_preset(presets: Mapping[str, Mapping[str, float]], name: str,
                   overrides: Optional[Mapping[str, float]] = None) -> Dict[str, float]:
    """The parameters of preset ``name`` with ``overrides`` applied.  Every
    workload factory resolves its preset here, so an unknown preset name or
    an override key the preset does not have raises :class:`ValueError`
    naming it before any trace is drawn."""
    if name not in presets:
        raise ValueError(f"unknown workload preset {name!r}; "
                         f"choose from {sorted(presets)}")
    preset = dict(presets[name])
    if overrides:
        unknown = sorted(set(overrides) - set(preset))
        if unknown:
            raise ValueError(f"unknown workload override key(s) {unknown}; "
                             f"choose from {sorted(preset)}")
        preset.update(overrides)
    return preset


@dataclass(frozen=True)
class InputSample:
    """One request's latent properties.

    ``confidence_shift`` models confidence miscalibration: a positive shift
    makes ramps look more confident than they should be for this input (the
    failure mode that breaks one-time-tuned thresholds under workload drift,
    §2.3/C3), a negative shift makes them under-confident.
    """

    index: int
    raw_difficulty: float
    sharpness: float
    confidence_shift: float = 0.0


@dataclass
class DifficultyTrace:
    """A materialized stream of input samples."""

    name: str
    raw_difficulty: np.ndarray
    sharpness: np.ndarray
    confidence_shift: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.raw_difficulty = np.clip(np.asarray(self.raw_difficulty, dtype=float), 0.0, 1.0)
        self.sharpness = np.asarray(self.sharpness, dtype=float)
        if self.confidence_shift is None:
            self.confidence_shift = np.zeros_like(self.raw_difficulty)
        self.confidence_shift = np.asarray(self.confidence_shift, dtype=float)
        if self.raw_difficulty.shape != self.sharpness.shape:
            raise ValueError("difficulty and sharpness must have the same length")
        if self.raw_difficulty.shape != self.confidence_shift.shape:
            raise ValueError("difficulty and confidence_shift must have the same length")

    def __len__(self) -> int:
        return int(self.raw_difficulty.size)

    def sample(self, index: int) -> InputSample:
        return InputSample(index=index,
                           raw_difficulty=float(self.raw_difficulty[index]),
                           sharpness=float(self.sharpness[index]),
                           confidence_shift=float(self.confidence_shift[index]))

    def samples(self) -> Iterator[InputSample]:
        for i in range(len(self)):
            yield self.sample(i)

    def slice(self, start: int, stop: int) -> "DifficultyTrace":
        return DifficultyTrace(name=f"{self.name}[{start}:{stop}]",
                               raw_difficulty=self.raw_difficulty[start:stop],
                               sharpness=self.sharpness[start:stop],
                               confidence_shift=self.confidence_shift[start:stop])

    def mean_difficulty(self) -> float:
        return float(self.raw_difficulty.mean()) if len(self) else 0.0


def _draw_sharpness(rng: np.random.Generator, n: int,
                    low: float = 0.03, high: float = 0.10) -> np.ndarray:
    """Per-input confidence sharpness (how quickly entropy falls past depth d)."""
    return rng.uniform(low, high, size=n)


def _draw_confidence_shift(rng: np.random.Generator, n: int,
                           amplitude: float = 0.06, period_fraction: float = 0.6,
                           noise: float = 0.01) -> np.ndarray:
    """Slowly drifting confidence miscalibration across the stream.

    Ramp confidence is not perfectly calibrated, and the miscalibration
    changes as the data distribution shifts (lighting changes, new product
    categories, ...).  A positive shift makes ramps *over*-confident: a
    threshold that was safe when it was tuned starts admitting wrong exits —
    exactly the failure mode that forces continual threshold re-tuning
    (Table 1) and breaks statically tuned EE models (Table 2).
    """
    if n <= 1:
        return np.zeros(n)
    period = max(int(n * period_fraction), 2)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    positions = np.arange(n)
    smooth = np.sin(2.0 * np.pi * positions / period + phase)
    wobble = rng.normal(0.0, 0.1, size=n).cumsum() / np.sqrt(n)
    drift = amplitude * (0.6 * smooth + 0.4 * np.clip(wobble, -1.0, 1.0))
    drift = np.clip(drift, -amplitude, amplitude)
    # Per-input calibration noise: confidence is an imperfect proxy for
    # correctness even within one regime.  Workloads with little continuity
    # (NLP review streams) have much noisier confidence than video frames,
    # which is why the paper finds a wider gap to the optimal for NLP (§4.2).
    if noise > 0.0:
        drift = drift + rng.normal(0.0, noise, size=n)
    return drift


class RandomWalkDifficulty:
    """Bounded random-walk difficulty with occasional scene changes.

    Parameters
    ----------
    mean:
        Long-run mean difficulty the walk reverts to.
    volatility:
        Per-step standard deviation of the walk.
    scene_change_prob:
        Probability per step of an abrupt jump to a new local mean (scene
        change in a video).
    phase_period / phase_amplitude:
        Slow sinusoidal modulation of the mean (day/night lighting changes).
    """

    def __init__(self, mean: float = 0.25, volatility: float = 0.02,
                 scene_change_prob: float = 0.002, reversion: float = 0.02,
                 phase_period: int = 20_000, phase_amplitude: float = 0.08,
                 confidence_noise: float = 0.01) -> None:
        self.mean = float(mean)
        self.volatility = float(volatility)
        self.scene_change_prob = float(scene_change_prob)
        self.reversion = float(reversion)
        self.phase_period = int(phase_period)
        self.phase_amplitude = float(phase_amplitude)
        self.confidence_noise = float(confidence_noise)

    def generate(self, n: int, rng: np.random.Generator, name: str = "random-walk") -> DifficultyTrace:
        difficulty = np.empty(n, dtype=float)
        local_mean = self.mean
        value = float(np.clip(rng.normal(self.mean, 0.05), 0.0, 1.0))
        for i in range(n):
            if rng.random() < self.scene_change_prob:
                local_mean = float(np.clip(rng.normal(self.mean, 0.15), 0.02, 0.95))
                value = float(np.clip(rng.normal(local_mean, 0.05), 0.0, 1.0))
            phase = self.phase_amplitude * np.sin(2.0 * np.pi * i / max(self.phase_period, 1))
            target = np.clip(local_mean + phase, 0.0, 1.0)
            value += self.reversion * (target - value) + rng.normal(0.0, self.volatility)
            value = float(np.clip(value, 0.0, 1.0))
            difficulty[i] = value
        return DifficultyTrace(name=name, raw_difficulty=difficulty,
                               sharpness=_draw_sharpness(rng, n),
                               confidence_shift=_draw_confidence_shift(
                                   rng, n, noise=self.confidence_noise))


class RegimeSwitchDifficulty:
    """Piecewise-stationary difficulty with abrupt regime changes.

    Each regime (product category, frequent reviewer, ...) has its own mean
    difficulty; within a regime requests are weakly correlated.  Regime
    lengths are geometric with the given expected length.
    """

    def __init__(self, base_mean: float = 0.55, regime_spread: float = 0.18,
                 within_spread: float = 0.12, expected_regime_length: int = 400,
                 confidence_noise: float = 0.05) -> None:
        self.base_mean = float(base_mean)
        self.regime_spread = float(regime_spread)
        self.within_spread = float(within_spread)
        self.expected_regime_length = int(expected_regime_length)
        self.confidence_noise = float(confidence_noise)

    def generate(self, n: int, rng: np.random.Generator, name: str = "regime-switch") -> DifficultyTrace:
        difficulty = np.empty(n, dtype=float)
        i = 0
        switch_prob = 1.0 / max(self.expected_regime_length, 1)
        regime_mean = float(np.clip(rng.normal(self.base_mean, self.regime_spread), 0.05, 0.95))
        while i < n:
            if rng.random() < switch_prob:
                regime_mean = float(np.clip(rng.normal(self.base_mean, self.regime_spread), 0.05, 0.95))
            difficulty[i] = np.clip(rng.normal(regime_mean, self.within_spread), 0.0, 1.0)
            i += 1
        return DifficultyTrace(name=name, raw_difficulty=difficulty,
                               sharpness=_draw_sharpness(rng, n),
                               confidence_shift=_draw_confidence_shift(
                                   rng, n, noise=self.confidence_noise))
