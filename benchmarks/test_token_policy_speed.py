"""Token-policy speed benchmark: the generative Apparate policy vs its seed.

Not a paper figure — this guards the host cost of Apparate's generative
controller, :class:`repro.core.generative.ApparateTokenPolicy`, which judges
the released accuracy after every token and re-tunes its threshold every
``refresh_period`` tokens.  It is measured two ways:

* **In isolation:** one fixed, seeded feedback stream (drifting difficulty,
  confident-but-wrong bursts and a hard stretch, so the threshold is
  re-tuned on violations and the ramp moves) is pushed through the seed
  policy (``SeedTokenPolicy`` in ``tests/core/_seed_token_policy.py``, which
  rescans its window per token and per candidate threshold) and through the
  live policy.  Both must take identical threshold and position
  trajectories; the live policy must be at least ``MIN_SPEEDUP`` times
  faster.
* **End to end:** ``Experiment.run`` with ``vanilla`` and ``apparate`` on a
  4-replica t5-large ``cnn-dailymail`` fleet (120 sequences at 12 seq/s,
  ``least_work_left``), where the policy runs on every token.  Apparate's
  wall time must stay within ``MAX_RATIO`` times vanilla's.

Modes (``BENCH_POLICY`` environment variable)
---------------------------------------------
unset
    Smoke stream (10k records) — runs under plain pytest and in the tier-1
    suite; nothing is written.
``smoke``
    Smoke stream, and the measurements are written to ``BENCH_policy.json``
    (used by the CI gate).
``full`` or ``1``
    The tracked baseline: a 30k-record stream, written to
    ``BENCH_policy.json``.  Refresh with::

        BENCH_POLICY=full PYTHONPATH=src python -m pytest -q -s benchmarks/test_token_policy_speed.py
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.api import ClusterSpec, Experiment, WorkloadSpec
from repro.core.generative import ApparateTokenPolicy, generative_ramp_depths
from repro.generative.parallel import TokenFeedback
from repro.models.prediction import PredictionModel
from repro.models.zoo import get_model
from tests.core._seed_token_policy import SeedPredictionModel, SeedTokenPolicy

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_policy.json"

#: The live policy must process the isolation stream at least this many
#: times faster than the seed policy.
MIN_SPEEDUP = 5.0
#: Apparate's ``Experiment.run`` wall time on the fleet may be at most this
#: many times vanilla's.
MAX_RATIO = 3.0

SMOKE_RECORDS = 10_000
FULL_RECORDS = 30_000
STREAM_SEED = 2024

MODEL = "t5-large"
SEQUENCES = 120
RATE_QPS = 12.0
REPLICAS = 4
BALANCER = "least_work_left"
#: Timed ``Experiment.run`` calls per system (alternating, after a warm-up);
#: the fastest of each is compared, which discounts other tenants' bursts.
E2E_REPEATS = 3


def _mode():
    value = os.environ.get("BENCH_POLICY", "").strip().lower()
    if value in ("full", "1"):
        return FULL_RECORDS, True
    if value == "smoke":
        return SMOKE_RECORDS, True
    return SMOKE_RECORDS, False


def _feedback_stream(n, seed=STREAM_SEED):
    """``n`` feedback records in parallel-decoding instances of 1-8 tokens.

    Errors are skewed low and agreement falls with the error, so thresholds
    climb; every 2,500 tokens a 60-token confident-but-wrong burst forces
    violation re-tunes, and the tokens from 40% to 50% of the stream are
    hard (rarely confident), so the ramp moves later and probes back
    earlier afterwards.
    """
    rng = np.random.default_rng(seed)
    errors = rng.random(n) ** 2
    correct = rng.random(n) >= 0.08 * errors
    for start in range(2_500, n, 2_500):
        errors[start:start + 60] = rng.uniform(0.0, 0.05, min(60, n - start))
        correct[start:start + 60] = False
    hard = slice(4 * n // 10, n // 2)
    errors[hard] = rng.uniform(0.85, 1.0, errors[hard].size)
    correct[hard] = rng.random(errors[hard].size) < 0.4
    records = [TokenFeedback(0, i, e, False, c)
               for i, (e, c) in enumerate(zip(errors.tolist(), correct.tolist()))]
    batches, start = [], 0
    for size in rng.integers(1, 9, n).tolist():
        if start >= n:
            break
        batches.append(records[start:start + size])
        start += size
    return batches


def _replay(policy, batches):
    """Feed ``batches`` to ``policy``; (wall seconds, trajectory)."""
    trajectory = []
    t0 = time.perf_counter()
    for batch in batches:
        policy.feedback(batch)
        trajectory.append((policy.threshold, policy.position))
    return time.perf_counter() - t0, trajectory


def _fleet_experiment():
    return Experiment(
        model=MODEL,
        workload=WorkloadSpec("generative", "cnn-dailymail", requests=SEQUENCES,
                              rate=RATE_QPS, seed=0),
        cluster=ClusterSpec(replicas=REPLICAS, balancer=BALANCER))


def _timed_run(system):
    t0 = time.perf_counter()
    result = _fleet_experiment().run([system]).result(system)
    return time.perf_counter() - t0, result.summary


def test_token_policy_speed():
    n, write = _mode()
    batches = _feedback_stream(n)
    spec, depths = get_model(MODEL), generative_ramp_depths(MODEL)

    seed_policy = SeedTokenPolicy(SeedPredictionModel(spec), depths)
    seed_s, seed_trajectory = _replay(seed_policy, batches)
    live_policy = ApparateTokenPolicy(PredictionModel(spec), depths)
    live_s, live_trajectory = _replay(live_policy, batches)

    # Speed means nothing if the decisions drift: identical trajectories.
    assert live_trajectory == seed_trajectory
    assert (live_policy.threshold_tunings, live_policy.position_moves) \
        == (seed_policy.threshold_tunings, seed_policy.position_moves)
    # The stream must exercise tuning and both kinds of position move.
    assert live_policy.threshold_tunings > n // 64
    assert live_policy.position_moves >= 2
    speedup = seed_s / live_s

    # End to end: warm the trace cache and model stacks, then alternate.
    _timed_run("vanilla")
    _timed_run("apparate")
    vanilla_s, apparate_s = [], []
    for _ in range(E2E_REPEATS):
        wall, vanilla = _timed_run("vanilla")
        vanilla_s.append(wall)
        wall, apparate = _timed_run("apparate")
        apparate_s.append(wall)
    assert apparate["num_tokens"] == vanilla["num_tokens"]
    ratio = min(apparate_s) / min(vanilla_s)
    tokens = vanilla["num_tokens"]

    print(f"\ntoken policy ({n:,} records): seed {seed_s:.3f} s, "
          f"live {live_s:.3f} s, speedup {speedup:.1f}x; fleet "
          f"({tokens:,.0f} tokens): vanilla {min(vanilla_s):.3f} s, apparate "
          f"{min(apparate_s):.3f} s, ratio {ratio:.2f}x")

    if write:
        BENCH_PATH.write_text(json.dumps({
            "isolation": {
                "records": n, "stream_seed": STREAM_SEED,
                "feedback_calls": len(batches),
                "threshold_tunings": live_policy.threshold_tunings,
                "position_moves": live_policy.position_moves,
                "seed_wall_s": round(seed_s, 3),
                "live_wall_s": round(live_s, 3),
                "speedup": round(speedup, 2),
            },
            "end_to_end": {
                "model": MODEL, "dataset": "cnn-dailymail",
                "sequences": SEQUENCES, "rate_qps": RATE_QPS,
                "replicas": REPLICAS, "balancer": BALANCER,
                "tokens": int(tokens), "repeats": E2E_REPEATS,
                "vanilla_wall_s": round(min(vanilla_s), 3),
                "apparate_wall_s": round(min(apparate_s), 3),
                "apparate_vanilla_ratio": round(ratio, 2),
            },
            "min_speedup": MIN_SPEEDUP,
            "max_ratio": MAX_RATIO,
        }, indent=2) + "\n")

    assert speedup >= MIN_SPEEDUP, (
        f"live policy {live_s:.3f} s vs seed {seed_s:.3f} s — only "
        f"{speedup:.2f}x, need {MIN_SPEEDUP}x")
    assert ratio <= MAX_RATIO, (
        f"apparate {min(apparate_s):.3f} s vs vanilla {min(vanilla_s):.3f} s "
        f"— {ratio:.2f}x, allowed {MAX_RATIO}x")
