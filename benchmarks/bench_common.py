"""Shared helpers for the benchmark harness.

Every benchmark file regenerates one table or figure from the paper's
evaluation: it builds the same workload/model pairing (scaled down to run on a
laptop in seconds rather than hours), runs the systems being compared, prints
the rows/series the paper reports, and asserts the qualitative *shape* of the
result (who wins, roughly by how much, where the crossovers are).  Absolute
milliseconds are simulated and are not expected to match the authors' testbed.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Sequence

from repro.api import Experiment, RunReport
from repro.workloads.nlp import make_nlp_workload
from repro.workloads.video import make_video_workload

__all__ = ["pct_win", "print_table", "cv_workload", "nlp_workload", "run_once",
           "run_systems", "CV_BENCH_FRAMES", "NLP_BENCH_REQUESTS"]

# Benchmark workload sizes: large enough for the adaptation loops to settle,
# small enough for the whole harness to finish in minutes.
CV_BENCH_FRAMES = 4000
NLP_BENCH_REQUESTS = 4000

# Arrival rates chosen per model so that vanilla serving keeps dropped
# requests well below 20%, mirroring the paper's trace-selection criterion.
NLP_RATES_QPS = {
    "distilbert-base": 30.0,
    "bert-base": 20.0,
    "bert-large": 10.0,
    "gpt2-medium": 6.0,
    "bert-base-int8": 30.0,
    "bert-large-int8": 12.0,
}

CV_FPS = {
    "resnet18": 30.0,
    "resnet50": 30.0,
    "resnet101": 20.0,
    "vgg11": 30.0,
    "vgg13": 30.0,
    "vgg16": 30.0,
}


def cv_workload(model: str, scene: str = "urban-day", seed: int = 1,
                num_frames: int = CV_BENCH_FRAMES):
    """Video workload paired with a CV model (frame rate scaled to capacity)."""
    return make_video_workload(scene, num_frames=num_frames,
                               fps=CV_FPS.get(model, 30.0), seed=seed)


def nlp_workload(model: str, dataset: str = "amazon", seed: int = 2,
                 num_requests: int = NLP_BENCH_REQUESTS):
    """Review-stream workload paired with an NLP model."""
    return make_nlp_workload(dataset, num_requests=num_requests,
                             rate_qps=NLP_RATES_QPS.get(model, 20.0), seed=seed)


def run_systems(model, workload, systems: Sequence[str],
                **experiment) -> RunReport:
    """Run registered ``systems`` on one configuration (a one-replica fleet
    unless ``cluster=`` says otherwise)."""
    return Experiment(model=model, workload=workload, **experiment) \
        .run(list(systems))


def pct_win(baseline: float, value: float) -> float:
    """Relative improvement (%) of ``value`` over ``baseline``."""
    if baseline <= 0:
        return 0.0
    return 100.0 * (baseline - value) / baseline


def print_table(title: str, rows: Iterable[Dict[str, object]]) -> None:
    """Print one experiment's rows in a readable fixed-width table."""
    rows = list(rows)
    print(f"\n=== {title} ===")
    if not rows:
        print("(no rows)")
        return
    keys = list(rows[0].keys())
    header = " | ".join(f"{k:>18s}" for k in keys)
    print(header)
    print("-" * len(header))
    for row in rows:
        cells = []
        for key in keys:
            value = row[key]
            if isinstance(value, float):
                cells.append(f"{value:18.2f}")
            else:
                cells.append(f"{str(value):>18s}")
        print(" | ".join(cells))


def run_once(benchmark, fn: Callable, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1,
                              warmup_rounds=0)
