"""Serving metrics: latency distributions, throughput and accuracy accounting.

Two granularities are provided: :class:`ServingMetrics` aggregates one
replica's run, and :class:`ClusterMetrics` holds one ``ServingMetrics`` per
replica plus fleet-wide rollups (goodput, SLO violations, dispatch balance)
computed over the merged response stream on the cluster's global clock.
:class:`FleetMetrics` is the part every fleet's metrics share — the pool's
books, fault counters, tenant rollups and the merged stream — which the
generative :class:`~repro.serving.generative_cluster.GenerativeClusterMetrics`
also builds on.

``ServingMetrics`` stores responses *columnar*: one flat list per Response
field instead of one :class:`~repro.serving.request.Response` object per
request.  Building a Response per served request dominated the simulators'
hot path (object construction is ~1000× the cost of a few list appends at
million-request trace sizes), so the write path now defers even the column
appends: :meth:`record_batch` stashes ``(batch, result, start_ms)`` and the
per-request columns are materialized lazily on first read.  The
:attr:`responses` property still yields real Response objects — built on
demand and cached — so every existing consumer (tests, plotting, rollups)
sees the exact records the eager path produced, in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.serving.request import Request, Response
from repro.utils.stats import summarize_latencies

__all__ = ["ServingMetrics", "ClusterMetrics"]


#: Column order of the internal response table (mirrors Response's fields).
_COLUMNS = ("request_id", "arrival_ms", "scheduled_ms", "completion_ms",
            "queueing_ms", "serving_ms", "latency_ms", "batch_size",
            "exited", "exit_depth", "correct", "dropped")


class ServingMetrics:
    """Aggregated outcome of one serving run (columnar response storage)."""

    __slots__ = ("gpu_busy_ms", "makespan_ms", "num_batches",
                 "_pending", "_cols", "_num_recorded", "_num_dropped",
                 "_num_exited", "_num_correct_served", "_responses_cache",
                 "_summary_cache")

    def __init__(self, gpu_busy_ms: float = 0.0, makespan_ms: float = 0.0,
                 num_batches: int = 0) -> None:
        self.gpu_busy_ms = gpu_busy_ms
        self.makespan_ms = makespan_ms
        self.num_batches = num_batches
        #: deferred (batch, result, start_ms) tuples awaiting column append.
        self._pending: List[Tuple[Sequence[Request], "object", float]] = []
        self._cols: Tuple[list, ...] = tuple([] for _ in _COLUMNS)
        self._num_recorded = 0
        self._num_dropped = 0
        self._num_exited = 0
        self._num_correct_served = 0
        self._responses_cache: Optional[List[Response]] = None
        self._summary_cache: Optional[Dict[str, float]] = None

    # ----------------------------------------------------------------- write
    def record_batch(self, batch: Sequence[Request], result, start_ms: float) -> None:
        """Fast path for :meth:`ServingPlatform.complete`: defer per-request
        bookkeeping to first read.  ``result`` must not be mutated afterwards
        (no shipped executor does)."""
        self._pending.append((batch, result, start_ms))
        self._num_recorded += len(batch)
        self._responses_cache = None
        self._summary_cache = None

    def record_drop(self, request: Request, now_ms: float) -> None:
        """Fast path for queue-expiry drops; equivalent to ``add_response``
        with the drop Response the expire phase used to build."""
        if self._pending:
            self._flush()
        (ids, arrivals, scheduled, completions, queueing, serving, latency,
         batch_sizes, exited, exit_depth, correct, dropped) = self._cols
        wait = now_ms - request.arrival_ms
        ids.append(request.request_id)
        arrivals.append(request.arrival_ms)
        scheduled.append(now_ms)
        completions.append(now_ms)
        queueing.append(wait)
        serving.append(0.0)
        latency.append(wait)
        batch_sizes.append(0)
        exited.append(False)
        exit_depth.append(None)
        correct.append(True)
        dropped.append(True)
        self._num_recorded += 1
        self._num_dropped += 1
        self._responses_cache = None
        self._summary_cache = None

    def add_response(self, response: Response) -> None:
        """Record one pre-built Response (compat path; reads and tests)."""
        if self._pending:
            self._flush()
        for column, name in zip(self._cols, _COLUMNS):
            column.append(getattr(response, name))
        self._num_recorded += 1
        if response.dropped:
            self._num_dropped += 1
        else:
            if response.exited:
                self._num_exited += 1
            if response.correct:
                self._num_correct_served += 1
        self._responses_cache = None
        self._summary_cache = None

    def add_batch(self, gpu_time_ms: float) -> None:
        self.gpu_busy_ms += gpu_time_ms
        self.num_batches += 1

    def _flush(self) -> None:
        """Materialize deferred batches into the columns, in record order."""
        (ids, arrivals, scheduled, completions, queueing, serving, latency,
         batch_sizes, exited, exit_depth, correct, dropped) = self._cols
        num_exited = 0
        num_correct = 0
        for batch, result, start_ms in self._pending:
            offsets = result.result_offsets_ms
            exits = result.exited
            depths = result.exit_depths
            corrects = result.correct
            size = len(batch)
            for idx, request in enumerate(batch):
                offset = float(offsets[idx])
                completion = start_ms + offset
                ids.append(request.request_id)
                arrivals.append(request.arrival_ms)
                scheduled.append(start_ms)
                completions.append(completion)
                queueing.append(start_ms - request.arrival_ms)
                serving.append(offset)
                latency.append(completion - request.arrival_ms)
                batch_sizes.append(size)
                did_exit = bool(exits[idx])
                exited.append(did_exit)
                exit_depth.append(depths[idx])
                is_correct = bool(corrects[idx])
                correct.append(is_correct)
                dropped.append(False)
                if did_exit:
                    num_exited += 1
                if is_correct:
                    num_correct += 1
        self._pending = []
        self._num_exited += num_exited
        self._num_correct_served += num_correct

    # ------------------------------------------------------------------ read
    @property
    def responses(self) -> List[Response]:
        """The full response stream as Response objects (built lazily, cached)."""
        if self._responses_cache is None:
            if self._pending:
                self._flush()
            self._responses_cache = [Response(*row) for row in zip(*self._cols)] \
                if self._num_recorded else []
        return self._responses_cache

    def num_responses(self) -> int:
        """Total recorded responses (served + dropped) without materializing."""
        return self._num_recorded

    def num_served(self) -> int:
        return self._num_recorded - self._num_dropped

    def served(self) -> List[Response]:
        return [r for r in self.responses if not r.dropped]

    def dropped(self) -> List[Response]:
        return [r for r in self.responses if r.dropped]

    def drop_rate(self) -> float:
        if not self._num_recorded:
            return 0.0
        return self._num_dropped / self._num_recorded

    def _served_column(self, name: str) -> np.ndarray:
        if self._pending:
            self._flush()
        index = _COLUMNS.index(name)
        values = np.asarray(self._cols[index], dtype=float)
        if self._num_dropped:
            keep = ~np.asarray(self._cols[-1], dtype=bool)
            values = values[keep]
        return values

    def latencies(self) -> np.ndarray:
        return self._served_column("latency_ms")

    def latency_summary(self) -> Dict[str, float]:
        """Latency percentiles over served requests (computed once, cached).

        The percentile properties and ``summary()`` all read this; caching
        means one quantile pass per run instead of one per metric.  Every
        write path invalidates the cache, and callers get a copy so mutating
        the returned dict cannot poison later reads.
        """
        if self._summary_cache is None:
            self._summary_cache = summarize_latencies(self.latencies())
        return dict(self._summary_cache)

    def median_latency(self) -> float:
        return self.latency_summary()["p50"]

    def p95_latency(self) -> float:
        return self.latency_summary()["p95"]

    def p99_latency(self) -> float:
        return self.latency_summary()["p99"]

    def accuracy(self) -> float:
        """Fraction of served requests whose released result matched the
        original (non-EE) model's prediction."""
        served = self.num_served()
        if not served:
            return 1.0
        if self._pending:
            self._flush()
        return self._num_correct_served / served

    def exit_rate(self) -> float:
        served = self.num_served()
        if not served:
            return 0.0
        if self._pending:
            self._flush()
        return self._num_exited / served

    def throughput_qps(self) -> float:
        """Served requests per second of wall-clock makespan."""
        if self.makespan_ms <= 0:
            return 0.0
        return 1000.0 * self.num_served() / self.makespan_ms

    def goodput_qps(self, slo_ms: Optional[float] = None) -> float:
        """Requests per second that met their SLO."""
        if self.makespan_ms <= 0:
            return 0.0
        if slo_ms is None:
            return self.throughput_qps()
        good = int(np.count_nonzero(self.latencies() <= slo_ms))
        return 1000.0 * good / self.makespan_ms

    def average_batch_size(self) -> float:
        if self.num_batches == 0:
            return 0.0
        return self.num_served() / self.num_batches

    def gpu_utilization(self) -> float:
        if self.makespan_ms <= 0:
            return 0.0
        return min(1.0, self.gpu_busy_ms / self.makespan_ms)

    def slo_violation_rate(self, slo_ms: float) -> float:
        latencies = self.latencies()
        if latencies.size == 0:
            return 0.0
        return int(np.count_nonzero(latencies > slo_ms)) / latencies.size

    def summary(self) -> Dict[str, float]:
        """One-dictionary summary used by benchmarks and EXPERIMENTS.md."""
        lat = self.latency_summary()
        return {
            "p25_ms": lat["p25"],
            "p50_ms": lat["p50"],
            "p95_ms": lat["p95"],
            "p99_ms": lat["p99"],
            "mean_ms": lat["mean"],
            "throughput_qps": self.throughput_qps(),
            "avg_batch_size": self.average_batch_size(),
            "accuracy": self.accuracy(),
            "exit_rate": self.exit_rate(),
            "drop_rate": self.drop_rate(),
            "num_served": float(self.num_served()),
        }

    # ----------------------------------------------------------------- merge
    @classmethod
    def merged(cls, parts: Sequence["ServingMetrics"],
               makespan_ms: Optional[float] = None) -> "ServingMetrics":
        """Combine several runs into one aggregate view.

        Responses and accelerator busy time add up; the makespan defaults to
        the longest part (parallel replicas) unless the caller supplies the
        fleet's global wall-clock span.  Column-level concatenation: no
        Response objects are built unless the aggregate is actually read.
        """
        out = cls()
        for metrics in parts:
            if metrics._pending:
                metrics._flush()
            for dst, src in zip(out._cols, metrics._cols):
                dst.extend(src)
            out._num_recorded += metrics._num_recorded
            out._num_dropped += metrics._num_dropped
            out._num_exited += metrics._num_exited
            out._num_correct_served += metrics._num_correct_served
            out.gpu_busy_ms += metrics.gpu_busy_ms
            out.num_batches += metrics.num_batches
            out.makespan_ms = max(out.makespan_ms, metrics.makespan_ms)
        if makespan_ms is not None:
            out.makespan_ms = makespan_ms
        return out


@dataclass
class FleetMetrics:
    """Per-replica metrics plus the fleet-wide books of one fleet run.

    ``replicas`` covers every replica that ever served during the run —
    including ones the autoscaler retired mid-run — so the conservation
    invariant and all rollups span the full membership history.  A subclass
    names its per-replica metrics type in :attr:`replica_metrics`, whose
    ``merged`` builds the fleet's merged stream.
    """

    #: Per-replica metrics type (``merged(parts, makespan_ms=...)``).
    replica_metrics: ClassVar[Any]

    replicas: List[Any] = field(default_factory=list)
    #: items the balancer routed to each replica, aligned with ``replicas``
    #: (first dispatch only; a classification fleet's salvage re-routes
    #: are counted in its ``rerouted``).
    dispatch_counts: List[int] = field(default_factory=list)
    #: global wall-clock span (first arrival to last completion) in ms.
    makespan_ms: float = 0.0
    #: (time_ms, active_replicas) recorded at every membership change.
    fleet_timeline: List[Tuple[float, int]] = field(default_factory=list)
    #: cost-weighted replica-seconds consumed by the fleet (the autoscaling
    #: cost metric: what the run would bill at one cost unit per second of
    #: base-speed replica).
    replica_seconds: float = 0.0
    #: unweighted provisioned milliseconds (denominator for utilization).
    replica_active_ms: float = 0.0
    #: per-replica provisioned milliseconds (added -> retired), aligned with
    #: ``replicas``; normalizes dispatch balance for elastic fleets.
    replica_uptimes_ms: List[float] = field(default_factory=list)
    #: fault injection: crashes fired, replacements booted, and queued
    #: items requeued to surviving replicas by a crash.
    crashes: int = 0
    recoveries: int = 0
    requeued: int = 0
    #: per-tenant rollups (empty unless the run configured tenancy); see
    #: :mod:`repro.tenancy.rollup` for the keys.
    tenant_rollups: Dict[str, Dict[str, float]] = field(default_factory=dict)
    _aggregate: Any = field(default=None, init=False, repr=False,
                            compare=False)

    def num_replicas(self) -> int:
        return len(self.replicas)

    def peak_replicas(self) -> int:
        """Largest number of simultaneously active replicas during the run."""
        if not self.fleet_timeline:
            return len(self.replicas)
        return max(count for _, count in self.fleet_timeline)

    def aggregate(self) -> Any:
        """Merged stream measured on the fleet's global clock.

        Cached: the metrics record a finished run, so the merge is computed
        once and shared by every fleet rollup.
        """
        if self._aggregate is None:
            self._aggregate = self.replica_metrics.merged(
                self.replicas, makespan_ms=self.makespan_ms)
        return self._aggregate

    def dispatch_imbalance(self) -> float:
        """Max/mean ratio of per-replica dispatch *rates* (1.0 = perfectly
        even).

        Rates are dispatches per provisioned millisecond, so a replica the
        autoscaler added late is judged against its own uptime rather than
        the whole run — a perfectly balanced elastic fleet reads 1.0.  Fixed
        fleets (equal uptimes) reduce to the classic max/mean count ratio.
        """
        counts = self.dispatch_counts
        uptimes_ms = self.replica_uptimes_ms
        if not counts or sum(counts) == 0:
            return 1.0
        if len(uptimes_ms) == len(counts) and sum(uptimes_ms) > 0:
            rates = [count / uptime
                     for count, uptime in zip(counts, uptimes_ms) if uptime > 0]
            mean = sum(rates) / len(rates) if rates else 0.0
            if mean > 0:
                return max(rates) / mean
        return max(counts) * len(counts) / sum(counts)

    def per_replica_summaries(self) -> List[Dict[str, float]]:
        return [m.summary() for m in self.replicas]

    def add_crash_keys(self, data: Dict[str, float]) -> Dict[str, float]:
        """``data`` plus the fault counters, when the run had a fault."""
        if self.crashes or self.recoveries:
            data["crashes"] = float(self.crashes)
            data["recoveries"] = float(self.recoveries)
            data["requeued"] = float(self.requeued)
        return data


@dataclass
class ClusterMetrics(FleetMetrics):
    """Per-replica metrics plus fleet-wide rollups for one cluster run.

    ``replicas`` holds one :class:`ServingMetrics` per replica that ever
    served; see :func:`repro.tenancy.rollup.request_rollups` for the tenant
    rollups' keys.
    """

    replica_metrics = ServingMetrics

    #: doomed requests the dispatcher re-routed to another replica (drop salvage).
    rerouted: int = 0

    def fleet_throughput_qps(self) -> float:
        return self.aggregate().throughput_qps()

    def fleet_slo_violation_rate(self, slo_ms: float) -> float:
        return self.aggregate().slo_violation_rate(slo_ms)

    def fleet_gpu_utilization(self) -> float:
        """Mean accelerator utilization over the fleet's provisioned time.

        With a dynamic fleet the denominator is the replica-milliseconds
        actually provisioned (a replica retired halfway through the run only
        counts for its lifetime); fixed fleets fall back to
        ``makespan × num_replicas``, which is the same quantity.
        """
        if self.makespan_ms <= 0 or not self.replicas:
            return 0.0
        busy = sum(m.gpu_busy_ms for m in self.replicas)
        provisioned = self.replica_active_ms if self.replica_active_ms > 0 \
            else self.makespan_ms * len(self.replicas)
        return min(1.0, busy / provisioned)

    # --------------------------------------------------- fleet latency rollups
    def latency_summary(self) -> Dict[str, float]:
        """Fleet-wide latency percentiles over the merged response stream.

        Safe for runs where zero requests complete (all-dropped or
        drained-to-empty fleets): returns zeroed percentiles with
        ``count == 0`` instead of raising.
        """
        return self.aggregate().latency_summary()

    def median_latency(self) -> float:
        return self.latency_summary()["p50"]

    def p99_latency(self) -> float:
        return self.latency_summary()["p99"]

    # -------------------------------------------------------------- summaries
    def summary(self, slo_ms: Optional[float] = None) -> Dict[str, float]:
        """Fleet rollup: aggregate latency stats plus cluster-only metrics."""
        aggregate = self.aggregate()
        data = aggregate.summary()
        data.update({
            "num_replicas": float(self.num_replicas()),
            "peak_replicas": float(self.peak_replicas()),
            "fleet_gpu_utilization": self.fleet_gpu_utilization(),
            "dispatch_imbalance": self.dispatch_imbalance(),
            "rerouted": float(self.rerouted),
            "replica_seconds": float(self.replica_seconds),
        })
        if slo_ms is not None:
            data["fleet_goodput_qps"] = aggregate.goodput_qps(slo_ms)
            data["fleet_slo_violation_rate"] = aggregate.slo_violation_rate(slo_ms)
        return self.add_crash_keys(data)
