"""Observability overhead benchmark: tracing must be free when off, cheap
when on, and never change the answer.

Not a paper figure — this guards the instrumentation contract of
:mod:`repro.obs`: the hooks in the kernel and platform hot paths are no-ops
against :data:`~repro.obs.recorder.NULL_RECORDER` (the default), so an
untraced run simulates at effectively ``BENCH_simspeed`` throughput, and a
traced run produces **bit-identical metrics** — the recorder only reads
timestamps the simulator already computed.

The benchmark serves the simspeed diurnal trace through the same 32-replica
fleet twice — tracing off, then tracing on — and asserts:

* the two runs' makespans and dispatch counts are identical,
* every request yields exactly one closed span (conservation),
* traced throughput stays within ``MAX_TRACED_SLOWDOWN`` of untraced.

Modes (``BENCH_OBS`` environment variable)
------------------------------------------
unset
    Smoke trace (30k requests, a couple of seconds); nothing is written.
``smoke`` / ``full`` / ``1``
    Same run, and the measurements land in ``BENCH_obs.json`` — the CI
    overhead gate compares ``off.simulated_rps`` against the
    ``BENCH_simspeed.json`` kernel throughput (within 3%).
"""

from __future__ import annotations

import gc
import json
import os
import time
from pathlib import Path

from repro.obs import TraceRecorder
from repro.serving.cluster import ClusterPlatform
from repro.serving.platform import BatchResult
from repro.serving.request import Request
from repro.serving.tfserve import TFServingPlatform
from repro.workloads.arrivals import diurnal_arrivals
from repro.workloads.difficulty import InputSample

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_obs.json"

#: A traced run records ~3 span events per request; allow it to cost at most
#: this factor in wall clock over the untraced run.
MAX_TRACED_SLOWDOWN = 2.0

SMOKE_REQUESTS = 60_000   # the BENCH_simspeed smoke trace, for a fair gate

REPLICAS = 32
MAX_BATCH = 16
BATCH_TIMEOUT_MS = 4.0
GPU_TIME_MS = 8.0
LOW_QPS, HIGH_QPS, PERIOD_S = 200.0, 2000.0, 60.0


def _write_enabled() -> bool:
    return os.environ.get("BENCH_OBS", "").strip().lower() in ("smoke", "full",
                                                               "1")


def _make_trace(n):
    times = diurnal_arrivals(n, low_qps=LOW_QPS, high_qps=HIGH_QPS,
                             period_s=PERIOD_S)
    return [Request(request_id=i, arrival_ms=float(t),
                    sample=InputSample(index=i, raw_difficulty=0.3,
                                       sharpness=0.05, confidence_shift=0.0),
                    slo_ms=1000.0)
            for i, t in enumerate(times)]


def _make_cluster(obs=None):
    return ClusterPlatform(
        [TFServingPlatform(max_batch_size=MAX_BATCH,
                           batch_timeout_ms=BATCH_TIMEOUT_MS)
         for _ in range(REPLICAS)],
        balancer="round_robin", obs=obs)


def _executor(batch, batch_start_ms):
    return BatchResult(gpu_time_ms=GPU_TIME_MS,
                       result_offsets_ms=[GPU_TIME_MS] * len(batch))


def test_observability_overhead():
    n = SMOKE_REQUESTS
    requests = _make_trace(n)

    # Best of two untraced timings: the CI gate compares this number across
    # process boundaries (vs BENCH_simspeed), so shave scheduler noise.
    off_wall_s = float("inf")
    for _ in range(2):
        gc.collect()
        gc.freeze()
        t0 = time.perf_counter()
        off_metrics = _make_cluster().run(requests, lambda ordinal: _executor)
        off_wall_s = min(off_wall_s, time.perf_counter() - t0)

    recorder = TraceRecorder()
    gc.collect()
    gc.freeze()
    t0 = time.perf_counter()
    on_metrics = _make_cluster(obs=recorder).run(requests,
                                                 lambda ordinal: _executor)
    on_wall_s = time.perf_counter() - t0

    # Tracing must never change the answer.
    assert on_metrics.makespan_ms == off_metrics.makespan_ms
    assert on_metrics.dispatch_counts == off_metrics.dispatch_counts
    assert on_metrics.aggregate().summary() == off_metrics.aggregate().summary()

    # ... and must account for every request exactly once.
    spans = recorder.spans()
    assert len(spans) == n
    assert all(span.closed for span in spans)

    off_rps = n / off_wall_s
    on_rps = n / on_wall_s
    slowdown = on_wall_s / off_wall_s
    print(f"\nobs overhead ({n:,} requests, {REPLICAS} replicas): "
          f"off {off_rps:,.0f} req/s, traced {on_rps:,.0f} req/s, "
          f"traced slowdown {slowdown:.2f}x")

    if _write_enabled():
        BENCH_PATH.write_text(json.dumps({
            "trace": {"requests": n, "arrivals": "diurnal",
                      "low_qps": LOW_QPS, "high_qps": HIGH_QPS,
                      "period_s": PERIOD_S},
            "cluster": {"replicas": REPLICAS, "balancer": "round_robin",
                        "max_batch_size": MAX_BATCH,
                        "batch_timeout_ms": BATCH_TIMEOUT_MS,
                        "gpu_time_ms": GPU_TIME_MS},
            "off": {"wall_s": round(off_wall_s, 3),
                    "simulated_rps": round(off_rps)},
            "traced": {"wall_s": round(on_wall_s, 3),
                       "simulated_rps": round(on_rps),
                       "spans": len(spans),
                       "gauge_samples": len(recorder.gauges)},
            "traced_slowdown": round(slowdown, 3),
        }, indent=2) + "\n")

    assert slowdown <= MAX_TRACED_SLOWDOWN, (
        f"traced run took {slowdown:.2f}x the untraced run "
        f"(cap {MAX_TRACED_SLOWDOWN}x)")
