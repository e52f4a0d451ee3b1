#!/usr/bin/env python3
"""Live video analytics across scenes and models (the paper's CV workloads).

Serves four synthetic one-hour-style video streams (urban day/night, highway,
crossroads) with three ResNet/VGG models each, comparing vanilla serving,
Apparate, and the optimal-exit upper bound.  This is the §4.2 CV experiment in
miniature: expect 40-90% median latency wins with tails inside the 2% budget.

Run:  python examples/video_analytics.py
"""

from repro.api import Experiment
from repro.workloads import make_video_workload

MODELS = ["resnet18", "resnet50", "vgg13"]
SCENES = ["urban-day", "urban-night", "highway", "crossroads"]
NUM_FRAMES = 4000


def main() -> None:
    print(f"{'model':<10s} {'scene':<12s} {'vanilla p50':>12s} {'Apparate p50':>13s} "
          f"{'win %':>7s} {'optimal p50':>12s} {'accuracy':>9s} {'p95 ratio':>10s}")
    for model in MODELS:
        for scene in SCENES:
            workload = make_video_workload(scene, num_frames=NUM_FRAMES, seed=7)
            report = Experiment(model=model, workload=workload) \
                .run(["vanilla", "apparate", "optimal"])
            vanilla, apparate, optimal = (
                report.result(name).summary
                for name in ("vanilla", "apparate", "optimal"))

            win = 100.0 * (vanilla["p50_ms"] - apparate["p50_ms"]) / vanilla["p50_ms"]
            p95_ratio = apparate["p95_ms"] / max(vanilla["p95_ms"], 1e-9)
            print(f"{model:<10s} {scene:<12s} {vanilla['p50_ms']:12.2f} "
                  f"{apparate['p50_ms']:13.2f} {win:7.1f} "
                  f"{optimal['p50_ms']:12.2f} "
                  f"{apparate['accuracy']:9.3f} {p95_ratio:10.3f}")


if __name__ == "__main__":
    main()
