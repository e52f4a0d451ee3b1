"""CV workloads: real-time object classification over streamed video.

The paper uses 8 one-hour videos (urban scenes, day/night) sampled at 30 fps.
We synthesize video-like difficulty streams: consecutive frames are highly
correlated (objects move slowly relative to the frame rate), scenes change
occasionally, and lighting phases modulate how hard classification is.
Arrival times are fixed-rate at the video frame rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.utils.rng import RngFactory
from repro.workloads.arrivals import fixed_rate_arrivals
from repro.workloads.difficulty import (DifficultyTrace, RandomWalkDifficulty,
                                        resolve_preset)

__all__ = ["VideoWorkload", "make_video_workload", "VIDEO_SCENE_PRESETS"]

# Named scene presets loosely matching the paper's corpus (urban day / night /
# highway) — they differ in mean difficulty and how often scenes change.
VIDEO_SCENE_PRESETS: Dict[str, Dict[str, float]] = {
    "urban-day": {"mean": 0.22, "volatility": 0.018, "scene_change_prob": 0.0015},
    "urban-night": {"mean": 0.34, "volatility": 0.025, "scene_change_prob": 0.0025},
    "highway": {"mean": 0.16, "volatility": 0.012, "scene_change_prob": 0.0008},
    "crossroads": {"mean": 0.28, "volatility": 0.022, "scene_change_prob": 0.0030},
}


@dataclass
class VideoWorkload:
    """A video classification workload: difficulty trace + arrival times."""

    name: str
    trace: DifficultyTrace
    arrival_times_ms: np.ndarray
    fps: float

    def __len__(self) -> int:
        return len(self.trace)


def make_video_workload(name: str = "urban-day", num_frames: int = 20_000,
                        fps: float = 30.0, seed: int = 0,
                        preset_overrides: Optional[Dict[str, float]] = None) -> VideoWorkload:
    """Create a synthetic video workload.

    Parameters
    ----------
    name:
        Scene preset name (see :data:`VIDEO_SCENE_PRESETS`); an unknown
        name raises :class:`ValueError`.
    num_frames:
        Number of requests (frames) in the stream.
    fps:
        Frame rate; frames arrive at a fixed interval of ``1000 / fps`` ms.
    seed:
        Workload seed (independent streams for difficulty and arrivals).
    """
    rng_factory = RngFactory(seed)
    preset = resolve_preset(VIDEO_SCENE_PRESETS, name, preset_overrides)
    process = RandomWalkDifficulty(
        mean=preset["mean"],
        volatility=preset["volatility"],
        scene_change_prob=preset["scene_change_prob"],
    )
    trace = process.generate(num_frames, rng_factory.generator(f"video:{name}:difficulty"),
                             name=f"video:{name}")
    arrivals = fixed_rate_arrivals(num_frames, rate_qps=fps)
    return VideoWorkload(name=name, trace=trace, arrival_times_ms=arrivals, fps=fps)
