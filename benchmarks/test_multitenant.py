"""Multi-tenant isolation and fault-recovery acceptance benchmarks.

Not a paper figure — this extends the reproduction into a scenario harness
(ISSUE 7): shared fleets and machine churn.  Two scenarios, each asserted:

* **Isolation under batch saturation** — an interactive tenant (``chat``)
  runs at ~82% of fleet capacity while a batch tenant (``backfill``) piles
  another ~45% of capacity on top, saturating the fleet.  Weighted-fair
  dispatch must keep chat's p99 within 15% of its *solo* run — the same
  chat request stream, replayed timestamp-for-timestamp on the same fleet
  with no batch tenant.  (The batch tenant's p99 is allowed to grow without
  bound; it is the backlog sponge.)

* **Crash-and-recover with a reactive autoscaler** — a replica dies mid-run
  and stays down for six seconds.  The reactive autoscaler must restore SLO
  attainment to within 2% of the fault-free run without losing a single
  request, while the same fault on a static fleet visibly melts — the
  contrast that shows the autoscaler, not slack capacity, does the healing.
"""

import numpy as np
import pytest

from bench_common import print_table, run_once
from repro.api import ClusterSpec, Experiment, WorkloadSpec
from repro.serving.cluster import ClusterPlatform
from repro.serving.platform import BatchResult
from repro.serving.request import Request
from repro.serving.tfserve import TFServingPlatform
from repro.workloads.arrivals import poisson_arrivals
from repro.workloads.difficulty import InputSample

# --------------------------------------------------------------------------
# Scenario 1: weighted-fair isolation while a batch tenant saturates.
#
# Synthetic latency profile: a batch of b costs 4 + 6b ms, so a replica
# serves ~143 req/s at max_batch_size=4 and the 2-replica fleet ~287 req/s.
# chat at 235 qps is ~82% utilisation; backfill adds another 130 qps, so
# total demand is ~1.27x capacity — the fleet is saturated and backfill's
# queue grows for the whole run.
# --------------------------------------------------------------------------

REPLICAS = 2
MAX_BATCH = 4
BATCH_TIMEOUT_MS = 15.0
CHAT_QPS, BACKFILL_QPS = 235.0, 130.0
N_CHAT, N_BACKFILL = 4000, 2200
ISOLATION_LIMIT = 1.15


def _batch_cost_ms(batch_size: int) -> float:
    return 4.0 + 6.0 * batch_size


def _executor(batch, batch_start_ms):
    cost = _batch_cost_ms(len(batch))
    return BatchResult(gpu_time_ms=cost, result_offsets_ms=[cost] * len(batch))


def _tenant_stream(seed: int):
    """Merged pre-tagged arrival stream plus chat's exact sub-stream."""
    rng = np.random.default_rng(seed)
    chat = poisson_arrivals(N_CHAT, CHAT_QPS, rng)
    backfill = poisson_arrivals(N_BACKFILL, BACKFILL_QPS, rng)
    items = sorted([(t, "chat") for t in chat] +
                   [(t, "backfill") for t in backfill])
    mixed = [Request(request_id=i, arrival_ms=float(t),
                     sample=InputSample(index=i, raw_difficulty=0.3,
                                        sharpness=0.05, confidence_shift=0.0),
                     slo_ms=10_000.0, tenant=tenant)
             for i, (t, tenant) in enumerate(items)]
    solo = [r for r in mixed if r.tenant == "chat"]
    return mixed, solo


def _run_fleet(requests, tenancy):
    platforms = [TFServingPlatform(max_batch_size=MAX_BATCH,
                                   batch_timeout_ms=BATCH_TIMEOUT_MS)
                 for _ in range(REPLICAS)]
    cluster = ClusterPlatform(platforms, balancer="least_work_left",
                              tenancy=tenancy, seed=0)
    return cluster.run(requests, lambda ordinal: _executor)


def test_weighted_fair_isolates_interactive_tenant(benchmark):
    mixed_requests, solo_requests = _tenant_stream(seed=100)

    def scenario():
        mixed = _run_fleet(mixed_requests,
                           "chat:weight=100;backfill:priority=batch")
        solo = _run_fleet(solo_requests, "chat:weight=100")
        return mixed, solo

    mixed, solo = run_once(benchmark, scenario)
    chat_mixed = mixed.tenant_rollups["chat"]
    chat_solo = solo.tenant_rollups["chat"]
    backfill = mixed.tenant_rollups["backfill"]
    ratio = chat_mixed["p99_ms"] / chat_solo["p99_ms"]

    print_table("Weighted-fair isolation under batch saturation", [
        {"tenant": "chat (mixed)", "requests": chat_mixed["requests"],
         "p99_ms": chat_mixed["p99_ms"], "goodput": chat_mixed["goodput_qps"]},
        {"tenant": "chat (solo)", "requests": chat_solo["requests"],
         "p99_ms": chat_solo["p99_ms"], "goodput": chat_solo["goodput_qps"]},
        {"tenant": "backfill", "requests": backfill["requests"],
         "p99_ms": backfill["p99_ms"], "goodput": backfill["goodput_qps"]},
    ])
    print(f"isolation ratio (chat mixed/solo p99): {ratio:.3f}")

    # Conservation: every request of both streams answered exactly once.
    answered = sorted(r.request_id for r in mixed.aggregate().responses)
    assert answered == list(range(N_CHAT + N_BACKFILL))

    # The batch tenant genuinely saturates the fleet: its tail is queueing
    # delay two orders of magnitude beyond the interactive tenant's.
    assert backfill["p99_ms"] > 20 * chat_mixed["p99_ms"]

    # Acceptance: weighted-fair keeps the interactive tenant's p99 within
    # 15% of its solo-run p99 despite the saturating batch tenant.
    assert ratio <= ISOLATION_LIMIT, \
        (f"chat p99 {chat_mixed['p99_ms']:.1f}ms vs solo "
         f"{chat_solo['p99_ms']:.1f}ms: ratio {ratio:.3f} > {ISOLATION_LIMIT}")


# --------------------------------------------------------------------------
# Scenario 2: crash-and-recover, reactive autoscaler vs a static fleet.
#
# 240 qps on three replicas sits right at the two-replica capacity knee:
# losing one replica for six seconds is survivable only if new capacity
# arrives.  The reactive autoscaler boots a replacement within its
# provisioning delay; the static fleet waits out the full outage.
# --------------------------------------------------------------------------

FAULT = "5000:6000"        # crash at t=5s, replacement boots 6s later
RATE_QPS = 240.0
N_REQUESTS = 3600
SLO_MS = 50.0
ATTAINMENT_SLACK = 0.02


def _run_experiment(faults, autoscaler):
    experiment = Experiment(
        model="resnet50",
        workload=WorkloadSpec("video", "urban-day", requests=N_REQUESTS,
                              rate=RATE_QPS),
        cluster=ClusterSpec(replicas=3, balancer="least_work_left",
                            autoscaler=autoscaler, min_replicas=3,
                            max_replicas=5, faults=faults),
        slo_ms=SLO_MS, drop_expired=False, seed=0)
    result = experiment.run(["vanilla"]).result("vanilla")
    attainment = 1.0 - result.raw.aggregate().slo_violation_rate(SLO_MS)
    return result, attainment


def test_reactive_autoscaler_restores_slo_after_crash(benchmark):
    def scenario():
        return {
            "fault_free": _run_experiment(None, "reactive"),
            "reactive": _run_experiment(FAULT, "reactive"),
            "static": _run_experiment(FAULT, "none"),
        }

    runs = run_once(benchmark, scenario)
    attainments = {name: att for name, (_, att) in runs.items()}

    print_table("Crash-and-recover: SLO attainment", [
        {"fleet": name, "slo_attainment": att,
         "peak_replicas": result.summary["peak_replicas"],
         "crashes": result.details.get("crashes", 0),
         "recoveries": result.details.get("recoveries", 0)}
        for name, (result, att) in runs.items()])

    # The fault actually fired on both faulted runs.
    for name in ("reactive", "static"):
        details = runs[name][0].details
        assert details["crashes"] == 1 and details["recoveries"] == 1

    # Conservation under churn: every request served on every fleet.
    for name, (result, _) in runs.items():
        assert result.summary["num_served"] == N_REQUESTS

    # Acceptance: the reactive autoscaler restores SLO attainment to within
    # 2% of the fault-free run...
    delta = attainments["fault_free"] - attainments["reactive"]
    assert delta <= ATTAINMENT_SLACK, \
        (f"reactive attainment {attainments['reactive']:.4f} vs fault-free "
         f"{attainments['fault_free']:.4f}: lost {delta:.4f} > "
         f"{ATTAINMENT_SLACK}")

    # ...while the same fault melts the static fleet — the healing is the
    # autoscaler's doing, not spare capacity.
    static_delta = attainments["fault_free"] - attainments["static"]
    assert static_delta > 0.10, \
        (f"static fleet only lost {static_delta:.4f} attainment; the "
         f"scenario no longer stresses the outage window")
