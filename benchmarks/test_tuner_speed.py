"""Tuner speed benchmark: the classification threshold tuner vs its seed.

Not a paper figure — this guards the host cost of Apparate's classification
controller, whose greedy threshold search (Algorithm 1,
:func:`repro.exits.thresholds.tune_thresholds_greedy`) is the measured
end-to-end bottleneck of every classification apparate run.  It is measured
two ways:

* **In isolation:** a fixed, seeded set of 10-ramp feedback windows of 48 and
  256 rows (the controller's violation and periodic tuning windows) is tuned
  by the seed tuner (``seed_tune_thresholds_greedy`` in
  ``tests/exits/_seed_tuner.py``, one ``evaluate_thresholds`` call per trial
  configuration), by the batched tuner that followed it
  (``batched_tune_thresholds_greedy``, one replay of the whole window per
  round) and by the live tuner (each trial scored from the samples it
  moves).  All three must return identical thresholds, counters and
  evaluations; in the fastest of ``ISOLATION_PASSES`` alternating passes
  each, the live tuner must be at least ``MIN_SPEEDUP`` times faster than
  the seed, and its speedup over the batched tuner is recorded.
* **End to end:** ``Experiment.run`` with ``vanilla`` and ``apparate`` on a
  4-replica resnet50 ``video``/``urban-day`` fleet near capacity (600 frames
  at 250 fps, ``join_shortest_queue``, one crash at 1 s for 800 ms,
  ``drop_expired``), where the controller tunes every 32 frames per replica.
  Apparate's median wall time must stay within ``MAX_RATIO`` times vanilla's.

Modes (``BENCH_TUNER`` environment variable)
--------------------------------------------
unset
    Smoke window set (40 windows) — runs under plain pytest and in the tier-1
    suite; nothing is written.
``smoke``
    Smoke window set, and the measurements are written to
    ``BENCH_tuner.json`` (used by the CI gate).
``full`` or ``1``
    The tracked baseline: 200 windows, written to ``BENCH_tuner.json``.
    Refresh with::

        BENCH_TUNER=full PYTHONPATH=src python -m pytest -q -s benchmarks/test_tuner_speed.py
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path

import numpy as np

from repro.api import ClusterSpec, Experiment, WorkloadSpec
from repro.exits.thresholds import tune_thresholds_greedy
from tests.exits._seed_tuner import (batched_tune_thresholds_greedy,
                                     seed_tune_thresholds_greedy)

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_tuner.json"

#: The live tuner must get through the isolation windows at least this many
#: times faster than the seed tuner.
MIN_SPEEDUP = 15.0
#: Apparate's median ``Experiment.run`` wall time on the fleet may be at most
#: this many times vanilla's.
MAX_RATIO = 3.0

SMOKE_WINDOWS = 40
#: Alternating timed passes of the three tuners over the windows; each
#: tuner's fastest pass counts, so one slow moment of a shared host does not
#: decide the race.
ISOLATION_PASSES = 3
FULL_WINDOWS = 200
WINDOW_SEED = 2024
NUM_RAMPS = 10
#: The controller's tuning windows: ``min_tuning_samples`` after an accuracy
#: violation, ``tuning_window`` on a periodic refresh.
WINDOW_ROWS = (48, 256)
#: The controller's tuning arguments (``accuracy_constraint`` x
#: ``tuning_safety`` at the default 1% constraint, and its margin).
ACCURACY_CONSTRAINT = 0.01 * 0.75
CONSERVATIVE_MARGIN = 0.5
FULL_LATENCY_MS = 16.4          # resnet50 at batch size 1

MODEL = "resnet50"
FRAMES = 600
RATE_FPS = 250.0
REPLICAS = 4
BALANCER = "join_shortest_queue"
FAULTS = "1000:800"             # crash_ms:down_ms
#: Timed ``Experiment.run`` calls per system (alternating, after a warm-up);
#: the medians are compared.
E2E_REPEATS = 3


def _mode():
    value = os.environ.get("BENCH_TUNER", "").strip().lower()
    if value in ("full", "1"):
        return FULL_WINDOWS, True
    if value == "smoke":
        return SMOKE_WINDOWS, True
    return SMOKE_WINDOWS, False


def _windows(count, seed=WINDOW_SEED):
    """``count`` tuner inputs, alternating 48- and 256-row windows.

    Each input has a difficulty; a ramp at depth ``p`` is confident (low
    error) on inputs easier than ``p`` and agrees with the original model
    less often the less confident it is, so deeper ramps earn higher
    thresholds and the search runs many rounds.
    """
    rng = np.random.default_rng(seed)
    windows = []
    for i in range(count):
        rows = WINDOW_ROWS[i % len(WINDOW_ROWS)]
        depths = np.sort(rng.uniform(0.1, 0.9, NUM_RAMPS))
        difficulty = rng.beta(2.0, 5.0, rows)[:, None]
        errors = 1.0 / (1.0 + np.exp(-(difficulty - depths[None, :]) / 0.06))
        errors = np.clip(errors + rng.normal(0.0, 0.05, errors.shape), 0.0, 1.0)
        correct = rng.random(errors.shape) >= 0.3 * errors
        overheads_ms = rng.uniform(0.02, 0.06, NUM_RAMPS) * FULL_LATENCY_MS
        windows.append((errors, correct, depths.tolist(), overheads_ms.tolist()))
    return windows


def _race(tuners, windows):
    """``ISOLATION_PASSES`` alternating passes of every tuner over every
    window; per tuner, (its fastest pass in wall seconds, its results)."""
    fastest = [float("inf")] * len(tuners)
    results = [None] * len(tuners)
    for _ in range(ISOLATION_PASSES):
        for k, tuner in enumerate(tuners):
            t0 = time.perf_counter()
            results[k] = [tuner(errors, correct, depths, overheads_ms, FULL_LATENCY_MS,
                                accuracy_constraint=ACCURACY_CONSTRAINT,
                                conservative_margin=CONSERVATIVE_MARGIN)
                          for errors, correct, depths, overheads_ms in windows]
            fastest[k] = min(fastest[k], time.perf_counter() - t0)
    return list(zip(fastest, results))


def _same_result(live, seed):
    a, b = live.evaluation, seed.evaluation
    return (live.thresholds == seed.thresholds and live.rounds == seed.rounds
            and live.evaluations == seed.evaluations
            and (a.num_samples, a.accuracy, a.mean_savings_ms, a.total_savings_ms,
                 a.exit_rate) == (b.num_samples, b.accuracy, b.mean_savings_ms,
                                  b.total_savings_ms, b.exit_rate)
            and all(np.array_equal(x, y) for x, y in
                    ((a.exit_counts, b.exit_counts),
                     (a.ramp_savings_ms, b.ramp_savings_ms),
                     (a.ramp_overhead_ms, b.ramp_overhead_ms))))


def _fleet_experiment():
    return Experiment(
        model=MODEL,
        workload=WorkloadSpec("video", "urban-day", requests=FRAMES,
                              rate=RATE_FPS, seed=0),
        cluster=ClusterSpec(replicas=REPLICAS, balancer=BALANCER, faults=FAULTS),
        drop_expired=True)


def _timed_run(system):
    t0 = time.perf_counter()
    result = _fleet_experiment().run([system]).result(system)
    return time.perf_counter() - t0, result.summary


def test_tuner_speed():
    n, write = _mode()
    windows = _windows(n)

    (seed_s, seed_results), (batched_s, batched_results), (live_s, live_results) = _race(
        (seed_tune_thresholds_greedy, batched_tune_thresholds_greedy, tune_thresholds_greedy),
        windows)

    # Speed means nothing if the decisions drift: identical results.
    assert all(_same_result(live, seed) and _same_result(batched, seed)
               for live, batched, seed in zip(live_results, batched_results, seed_results))
    # The windows must make the search work: rounds pile up, and every
    # 256-row window gets exits.  (At 48 rows the controller's margin of 0.5
    # wrong results needs an observed loss below 0.75% - 1.04% < 0, so the
    # search halves its steps down to the minimum and keeps every threshold
    # at 0, as the controller's violation tunings do.)
    rounds = sum(r.rounds for r in live_results)
    evaluations = sum(r.evaluations for r in live_results)
    assert all(any(r.thresholds) for r in live_results[1::2])
    assert rounds >= 10 * n
    speedup = seed_s / live_s
    speedup_over_batched = batched_s / live_s

    # End to end: warm the trace cache and model stacks, then alternate.
    _timed_run("vanilla")
    _timed_run("apparate")
    vanilla_s, apparate_s = [], []
    for _ in range(E2E_REPEATS):
        wall, vanilla = _timed_run("vanilla")
        vanilla_s.append(wall)
        wall, apparate = _timed_run("apparate")
        apparate_s.append(wall)
    # Both systems served the trace (drop_expired sheds some frames near
    # capacity and around the crash).
    assert apparate["num_served"] >= FRAMES / 2 and vanilla["num_served"] >= FRAMES / 2
    vanilla_wall, apparate_wall = statistics.median(vanilla_s), statistics.median(apparate_s)
    ratio = apparate_wall / vanilla_wall

    print(f"\ntuner ({n} windows, {evaluations:,} trial evaluations): seed "
          f"{seed_s:.3f} s, batched {batched_s:.3f} s, live {live_s:.3f} s, "
          f"speedup {speedup:.1f}x ({speedup_over_batched:.1f}x over batched); fleet "
          f"({FRAMES} frames): vanilla {vanilla_wall:.3f} s, apparate "
          f"{apparate_wall:.3f} s, ratio {ratio:.2f}x")

    if write:
        BENCH_PATH.write_text(json.dumps({
            "isolation": {
                "windows": n, "window_seed": WINDOW_SEED,
                "passes": ISOLATION_PASSES,
                "window_rows": list(WINDOW_ROWS), "ramps": NUM_RAMPS,
                "rounds": rounds, "evaluations": evaluations,
                "seed_wall_s": round(seed_s, 3),
                "batched_wall_s": round(batched_s, 3),
                "live_wall_s": round(live_s, 3),
                "speedup": round(speedup, 2),
                "speedup_over_batched": round(speedup_over_batched, 2),
            },
            "end_to_end": {
                "model": MODEL, "workload": "video/urban-day",
                "frames": FRAMES, "rate_fps": RATE_FPS,
                "replicas": REPLICAS, "balancer": BALANCER,
                "faults": FAULTS, "drop_expired": True,
                "repeats": E2E_REPEATS,
                "vanilla_wall_s": round(vanilla_wall, 3),
                "apparate_wall_s": round(apparate_wall, 3),
                "apparate_vanilla_ratio": round(ratio, 2),
            },
            "min_speedup": MIN_SPEEDUP,
            "max_ratio": MAX_RATIO,
        }, indent=2) + "\n")

    assert speedup >= MIN_SPEEDUP, (
        f"live tuner {live_s:.3f} s vs seed {seed_s:.3f} s — only "
        f"{speedup:.2f}x, need {MIN_SPEEDUP}x")
    assert ratio <= MAX_RATIO, (
        f"apparate {apparate_wall:.3f} s vs vanilla {vanilla_wall:.3f} s "
        f"— {ratio:.2f}x, allowed {MAX_RATIO}x")
