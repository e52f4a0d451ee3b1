"""Per-tenant metric rollups.

The cluster runners attach these to their metrics objects after a run:
``request_rollups`` summarizes classification responses per tenant
(goodput, p50/p99, drop and SLO-attainment rates against each tenant's
effective SLO), ``sequence_rollups`` summarizes generative token columns
(TTFT p99, token-latency p99, shed rate, accuracy — the same definitions
as :class:`~repro.serving.hf_pipelines.GenerativeMetrics`, filtered by
tenant).  :func:`isolation_ratios` compares a tenant's tail latency under
mixed load against its solo baseline — the isolation guarantee a
weighted-fair dispatcher is supposed to deliver.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np

from repro.tenancy.schedule import TenantRuntime

__all__ = ["request_rollups", "sequence_rollups", "isolation_ratios",
           "tenant_backlog"]


def tenant_backlog(item_ids: Iterable[int],
                   tenant_of: Dict[int, str]) -> Dict[str, int]:
    """Count queued items per tenant (items without a tenant are skipped).

    Shared by the gauge samplers: each platform walks its queues and feeds
    the ids here, so the ``tenant_backlog`` time series uses one definition
    across classification, generative and disaggregated runs.
    """
    backlog: Dict[str, int] = {}
    for item_id in item_ids:
        name = tenant_of.get(item_id)
        if name is not None:
            backlog[name] = backlog.get(name, 0) + 1
    return backlog


def _percentile(values: Iterable[float], q: float) -> float:
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return 0.0
    return float(np.percentile(arr, q))


def request_rollups(responses, runtime: Optional[TenantRuntime],
                    default_slo_ms: float,
                    makespan_ms: float) -> Dict[str, Dict[str, float]]:
    """Per-tenant rollup of classification responses."""
    if runtime is None:
        return {}
    tenant_of = runtime.tenant_of
    buckets: Dict[str, list] = {name: [] for name in runtime.config.names}
    for response in responses:
        name = tenant_of.get(response.request_id)
        if name is not None:
            buckets[name].append(response)
    rollups: Dict[str, Dict[str, float]] = {}
    span_s = max(makespan_ms, 1e-9) / 1000.0
    for name, rows in buckets.items():
        slo = runtime.slo_of.get(name)
        slo = default_slo_ms if slo is None else slo
        served = [r for r in rows if not r.dropped]
        met = sum(1 for r in rows if r.met_slo(slo))
        latencies = [r.latency_ms for r in served]
        rollups[name] = {
            "requests": float(len(rows)),
            "served": float(len(served)),
            "dropped": float(len(rows) - len(served)),
            "drop_rate": (len(rows) - len(served)) / len(rows) if rows else 0.0,
            "p50_ms": _percentile(latencies, 50.0),
            "p99_ms": _percentile(latencies, 99.0),
            "slo_ms": float(slo),
            "slo_attainment": met / len(rows) if rows else 1.0,
            "goodput_qps": met / span_s,
        }
    return rollups


def sequence_rollups(metrics, runtime: Optional[TenantRuntime]) -> Dict[str, Dict[str, float]]:
    """Per-tenant rollup of a :class:`GenerativeMetrics` aggregate."""
    if runtime is None:
        return {}
    tenant_of = runtime.tenant_of
    names = runtime.config.names
    delays = metrics.queueing_delays_ms
    token_latencies: Dict[str, list] = {name: [] for name in names}
    ttfts: Dict[str, list] = {name: [] for name in names}
    token_counts: Dict[str, int] = {name: 0 for name in names}
    for sequence_id, token_index, tpt in zip(metrics.sequence_ids,
                                             metrics.token_indices,
                                             metrics.tpt_ms):
        name = tenant_of.get(sequence_id)
        if name is None:
            continue
        token_counts[name] += 1
        if token_index == 0:
            ttft = tpt + delays.get(sequence_id, 0.0)
            ttfts[name].append(ttft)
            token_latencies[name].append(ttft)
        else:
            token_latencies[name].append(tpt)
    served: Dict[str, list] = {name: [] for name in names}
    for seq_id, accuracy in metrics.sequence_accuracy.items():
        name = tenant_of.get(seq_id)
        if name is not None:
            served[name].append(accuracy)
    shed: Dict[str, int] = {name: 0 for name in names}
    for seq_id in metrics.shed_sequence_ids:
        name = tenant_of.get(seq_id)
        if name is not None:
            shed[name] += 1
    rollups: Dict[str, Dict[str, float]] = {}
    for name in names:
        num_served = len(served[name])
        total = num_served + shed[name]
        rollups[name] = {
            "sequences": float(total),
            "served": float(num_served),
            "tokens": float(token_counts[name]),
            "shed": float(shed[name]),
            "shed_rate": shed[name] / total if total else 0.0,
            "ttft_p99_ms": _percentile(ttfts[name], 99.0),
            "token_p99_ms": _percentile(token_latencies[name], 99.0),
            "sequence_accuracy": float(np.mean(served[name])) if served[name] else 1.0,
        }
    return rollups


def isolation_ratios(mixed: Dict[str, Dict[str, float]],
                     solo: Dict[str, Dict[str, float]],
                     metric: str = "p99_ms") -> Dict[str, float]:
    """Per-tenant ``mixed / solo`` ratio of a tail metric (1.0 = isolated).

    ``mixed`` comes from a run where all tenants share the fleet, ``solo``
    from per-tenant baseline runs.  A tenant absent from either side, or
    with a zero solo value, is skipped.
    """
    ratios: Dict[str, float] = {}
    for name, stats in mixed.items():
        base = solo.get(name, {}).get(metric, 0.0)
        if base > 0.0 and metric in stats:
            ratios[name] = stats[metric] / base
    return ratios
