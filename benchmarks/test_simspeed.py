"""Simulator-speed regression benchmark: the event kernel vs the seed loops.

Not a paper figure — this guards the heap-scheduled discrete-event kernel
(:mod:`repro.serving.kernel`) the serving platforms run on.  A diurnal
arrival trace (raised-cosine cycle between 200 and 2000 qps) is served by a
32-replica TensorFlow-Serving-style fleet twice: once through the preserved
pre-kernel rescan loop (``seed_cluster_run`` in ``tests/serving/_seed_loops.py``,
O(replicas) bookkeeping per visited timestamp) and once through the kernel
(O(changed replicas) per timestamp).  Both must produce bit-identical
metrics; the kernel must simulate at least ``MIN_SPEEDUP`` times more
requests per wall-clock second.

A second race times the cluster's SLO-salvage phase on the ``cv-fleet``
end-to-end configuration (resnet50 on 4 Clockwork replicas, join shortest
queue, ``drop_expired``, 600 frames at 250 fps, one crash at 1 s for 800 ms):
``Experiment.run`` of vanilla with the live salvage (inline doom check over
completion-offset tables) against the same run with the seed scan
(``seed_salvage_doomed``) substituted.  Metrics must be bit-identical; the
speedup is recorded under the ``salvage`` key (the CI gate applies a floor).

Modes (``BENCH_SIMSPEED`` environment variable)
-----------------------------------------------
unset
    Smoke trace (60k requests, a few seconds) — runs under plain pytest and
    in the tier-1 suite; nothing is written.
``smoke``
    Smoke trace, and the measurements are written to ``BENCH_simspeed.json``
    (used by the CI speed gate to apply an absolute requests/sec floor).
``full`` or ``1``
    The tracked baseline: the 1M-request trace, written to
    ``BENCH_simspeed.json``.  Refresh with::

        BENCH_SIMSPEED=full PYTHONPATH=src python -m pytest -q benchmarks/test_simspeed.py
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import time
from pathlib import Path

from repro.api import ClusterSpec, Experiment, WorkloadSpec
from repro.obs.recorder import NULL_RECORDER
from repro.serving.cluster import ClusterPlatform
from repro.serving.platform import BatchResult
from repro.serving.request import Request
from repro.serving.tfserve import TFServingPlatform
from repro.workloads.arrivals import diurnal_arrivals
from repro.workloads.difficulty import InputSample
from tests.serving._seed_loops import seed_cluster_run, seed_salvage_doomed

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_simspeed.json"

#: The kernel must simulate at least this many times more requests per
#: wall-clock second than the seed rescan loop on the benchmark trace.
MIN_SPEEDUP = 3.0

SMOKE_REQUESTS = 60_000
FULL_REQUESTS = 1_000_000

REPLICAS = 32
MAX_BATCH = 16
BATCH_TIMEOUT_MS = 4.0
GPU_TIME_MS = 8.0
LOW_QPS, HIGH_QPS, PERIOD_S = 200.0, 2000.0, 60.0

#: The salvage race: cv-fleet's configuration on its eight seed-0 traces,
#: each run ``SALVAGE_REPEATS`` times per variant (alternating, after a
#: warm-up); per trace the median wall times are compared.
SALVAGE_TRACES = 8
SALVAGE_REPEATS = 3


def _mode():
    value = os.environ.get("BENCH_SIMSPEED", "").strip().lower()
    if value in ("full", "1"):
        return FULL_REQUESTS, True
    if value == "smoke":
        return SMOKE_REQUESTS, True
    return SMOKE_REQUESTS, False


def _make_trace(n):
    # Deterministic diurnal cycle (no rng): the same trace on every machine.
    times = diurnal_arrivals(n, low_qps=LOW_QPS, high_qps=HIGH_QPS,
                             period_s=PERIOD_S)
    return [Request(request_id=i, arrival_ms=float(t),
                    sample=InputSample(index=i, raw_difficulty=0.3,
                                       sharpness=0.05, confidence_shift=0.0),
                    slo_ms=1000.0)
            for i, t in enumerate(times)]


def _make_cluster():
    return ClusterPlatform(
        [TFServingPlatform(max_batch_size=MAX_BATCH,
                           batch_timeout_ms=BATCH_TIMEOUT_MS)
         for _ in range(REPLICAS)],
        balancer="round_robin")


def _executor(batch, batch_start_ms):
    return BatchResult(gpu_time_ms=GPU_TIME_MS,
                       result_offsets_ms=[GPU_TIME_MS] * len(batch))


def test_kernel_simulation_speed():
    n, write = _mode()
    requests = _make_trace(n)

    # Whoever runs second pays gen-2 GC traversals over the first run's
    # millions of surviving objects; freeze long-lived data out of the
    # collector before each timed region so the order doesn't skew the ratio.
    gc.collect()
    gc.freeze()

    t0 = time.perf_counter()
    seed_metrics = seed_cluster_run(_make_cluster(), requests,
                                    lambda ordinal: _executor)
    seed_wall_s = time.perf_counter() - t0

    # Speed means nothing if the answers drift: the runs must agree exactly.
    # Keep only the comparison fields so the seed run's per-request metrics
    # can be freed before the kernel run is timed.
    seed_makespan_ms = seed_metrics.makespan_ms
    seed_dispatch_counts = seed_metrics.dispatch_counts
    del seed_metrics
    gc.collect()
    gc.freeze()

    t0 = time.perf_counter()
    kernel_metrics = _make_cluster().run(requests, lambda ordinal: _executor)
    kernel_wall_s = time.perf_counter() - t0

    assert kernel_metrics.makespan_ms == seed_makespan_ms
    assert kernel_metrics.dispatch_counts == seed_dispatch_counts

    seed_rps = n / seed_wall_s
    kernel_rps = n / kernel_wall_s
    speedup = seed_wall_s / kernel_wall_s
    print(f"\nsimspeed ({n:,} requests, {REPLICAS} replicas): "
          f"seed {seed_rps:,.0f} req/s, kernel {kernel_rps:,.0f} req/s, "
          f"speedup {speedup:.2f}x")

    if write:
        _record({
            "trace": {"requests": n, "arrivals": "diurnal",
                      "low_qps": LOW_QPS, "high_qps": HIGH_QPS,
                      "period_s": PERIOD_S},
            "cluster": {"replicas": REPLICAS, "balancer": "round_robin",
                        "max_batch_size": MAX_BATCH,
                        "batch_timeout_ms": BATCH_TIMEOUT_MS,
                        "gpu_time_ms": GPU_TIME_MS},
            "seed_loop": {"wall_s": round(seed_wall_s, 3),
                          "simulated_rps": round(seed_rps)},
            "kernel": {"wall_s": round(kernel_wall_s, 3),
                       "simulated_rps": round(kernel_rps)},
            "speedup": round(speedup, 2),
        })

    assert speedup >= MIN_SPEEDUP, (
        f"kernel simulated {kernel_rps:,.0f} req/s vs seed loop "
        f"{seed_rps:,.0f} req/s — only {speedup:.2f}x, need {MIN_SPEEDUP}x")


def _record(entries):
    """Merge ``entries`` into ``BENCH_simspeed.json`` (each race owns its
    keys, so either test can refresh the file alone)."""
    bench = json.loads(BENCH_PATH.read_text()) if BENCH_PATH.exists() else {}
    bench.update(entries)
    BENCH_PATH.write_text(json.dumps(bench, indent=2) + "\n")


def _cv_fleet(seed):
    return Experiment(
        model="resnet50",
        workload=WorkloadSpec("video", "urban-day", requests=600, rate=250.0,
                              seed=seed),
        cluster=ClusterSpec(replicas=4, balancer="join_shortest_queue",
                            faults="1000:800"),
        drop_expired=True)


class _FleetView:
    """The fleet reads of the seed salvage scan over a live run: its serving
    members, rebuilt into a new list on every pass as the seed loops'
    ``FleetState`` (``tests/serving/_seed_loops.py``) does, and its recorder
    (the race runs untraced).  The scan reads the frozen ``ReplicaState``
    fields through ``entry.state``; a live member holds those fields itself,
    so each member stands in for its own state."""

    obs = NULL_RECORDER

    def __init__(self, serving):
        self._serving = serving
        for entry in serving:
            entry.state = entry

    def serving(self):
        return [entry for entry in self._serving]


def _seed_salvage(cluster, serving, active, now_ms, rerouted_ids):
    return seed_salvage_doomed(cluster, _FleetView(serving), active, now_ms,
                               rerouted_ids)


def test_salvage_speed(monkeypatch):
    _, write = _mode()
    experiments = [_cv_fleet(seed) for seed in range(SALVAGE_TRACES)]
    live_salvage = ClusterPlatform._salvage_doomed

    def timed(experiment, salvage):
        monkeypatch.setattr(ClusterPlatform, "_salvage_doomed", salvage)
        t0 = time.perf_counter()
        result = experiment.run(["vanilla"]).result("vanilla")
        return time.perf_counter() - t0, result

    live_s, seed_s = [], []
    rerouted = 0
    for experiment in experiments:
        timed(experiment, live_salvage)         # warm the trace cache
        live_runs, seed_runs = [], []
        for _ in range(SALVAGE_REPEATS):
            wall, live = timed(experiment, live_salvage)
            live_runs.append(wall)
            wall, seed = timed(experiment, _seed_salvage)
            seed_runs.append(wall)
            # Speed means nothing if the answers drift: identical results.
            assert live.to_json() == seed.to_json()
        live_s.append(statistics.median(live_runs))
        seed_s.append(statistics.median(seed_runs))
        rerouted += int(live.summary["rerouted"])
    monkeypatch.setattr(ClusterPlatform, "_salvage_doomed", live_salvage)
    assert rerouted > 0     # the race exercised salvage moves

    speedup = sum(seed_s) / sum(live_s)
    print(f"\nsalvage ({SALVAGE_TRACES} cv-fleet traces, vanilla): seed scan "
          f"{sum(seed_s):.3f} s, inline check {sum(live_s):.3f} s, "
          f"speedup {speedup:.2f}x ({rerouted} reroutes)")
    if write:
        _record({"salvage": {
            "model": "resnet50", "workload": "video/urban-day",
            "frames": 600, "rate_fps": 250.0, "replicas": 4,
            "balancer": "join_shortest_queue", "faults": "1000:800",
            "drop_expired": True, "system": "vanilla",
            "traces": SALVAGE_TRACES, "repeats": SALVAGE_REPEATS,
            "rerouted": rerouted,
            "seed_wall_s": round(sum(seed_s), 3),
            "live_wall_s": round(sum(live_s), 3),
            "speedup": round(speedup, 2),
        }})
