"""Request-lifecycle spans and fleet gauges on the simulated clock.

The simulator is instrumented with a tiny hook surface — ``admit`` /
``phase`` / ``annotate`` / ``close`` for spans, ``gauge`` for time series —
called from the kernel and the platform runners.  Two implementations exist:

- :class:`NullRecorder` (the shared :data:`NULL_RECORDER`): every hook is a
  ``pass`` and ``enabled`` is ``False``, so runners guard hot paths with a
  single attribute check.  This is the default everywhere; with it installed
  a run is bit-identical to a build without observability.
- :class:`TraceRecorder`: appends spans/phases/gauge samples to in-memory
  lists.  Hooks only *read* times the simulator already computed — they
  never synthesize timestamps or alter control flow — so traced runs report
  bit-identical metrics too, and every closed span reconciles exactly with
  the run's :class:`~repro.serving.metrics.ServingMetrics` /
  :class:`~repro.serving.hf_pipelines.GenerativeMetrics` latencies.

Exporters (JSONL, Chrome trace-event JSON, phase-breakdown tables) live in
:mod:`repro.obs.export`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, Union

from repro.obs.spec import TraceSpec

__all__ = ["Span", "NullRecorder", "TraceRecorder", "NULL_RECORDER",
           "build_recorder", "OUTCOME_SERVED", "OUTCOME_DROPPED",
           "OUTCOME_SHED"]

OUTCOME_SERVED = "served"
OUTCOME_DROPPED = "dropped"
OUTCOME_SHED = "shed"


class Span:
    """One request's (or sequence's) lifecycle: ordered phase intervals.

    ``phases`` holds closed ``(name, start_ms, end_ms, pool, replica)``
    intervals in recording order; ``tags`` carries annotations (tenant,
    exit ramp, KV prefix hit, reroutes, …).  A span is *closed* once an
    outcome is set; open spans at end-of-run mean the request never left
    the system (the span-conservation property test counts them).
    """

    __slots__ = ("request_id", "kind", "arrival_ms", "end_ms", "outcome",
                 "tenant", "pool", "replica", "phases", "tags")

    def __init__(self, request_id: Any, arrival_ms: float, kind: str = "request",
                 pool: Optional[str] = None, replica: Optional[int] = None,
                 tenant: Optional[str] = None) -> None:
        self.request_id = request_id
        self.kind = kind
        self.arrival_ms = float(arrival_ms)
        self.end_ms: Optional[float] = None
        self.outcome: Optional[str] = None
        self.tenant = tenant
        self.pool = pool
        self.replica = replica
        self.phases: List[Tuple[str, float, float, Optional[str], Optional[int]]] = []
        self.tags: Dict[str, Any] = {}

    @property
    def closed(self) -> bool:
        return self.outcome is not None

    def duration_ms(self) -> Optional[float]:
        return None if self.end_ms is None else self.end_ms - self.arrival_ms

    def phase_durations(self) -> Dict[str, float]:
        """Total time per phase name (a phase may recur, e.g. after reroute)."""
        totals: Dict[str, float] = {}
        for name, start, end, _, _ in self.phases:
            totals[name] = totals.get(name, 0.0) + (end - start)
        return totals

    def to_json(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "request_id": self.request_id,
            "kind": self.kind,
            "arrival_ms": self.arrival_ms,
            "end_ms": self.end_ms,
            "outcome": self.outcome,
            "phases": [{"name": name, "start_ms": start, "end_ms": end,
                        **({} if pool is None else {"pool": pool}),
                        **({} if replica is None else {"replica": replica})}
                       for name, start, end, pool, replica in self.phases],
        }
        if self.tenant is not None:
            data["tenant"] = self.tenant
        if self.pool is not None:
            data["pool"] = self.pool
        if self.replica is not None:
            data["replica"] = self.replica
        if self.tags:
            data["tags"] = dict(self.tags)
        return data


class NullRecorder:
    """The disabled recorder: every hook is a no-op.

    Shared as :data:`NULL_RECORDER` so hot paths pay one attribute load and
    branch (``if obs.enabled:``) and nothing else.
    """

    __slots__ = ()

    enabled = False
    spans_enabled = False
    gauges_enabled = False
    gauge_interval_ms: Optional[float] = None

    def admit(self, request_id: Any, ts: float, **tags: Any) -> None:
        pass

    def phase(self, request_id: Any, name: str, start_ms: float, end_ms: float,
              pool: Optional[str] = None, replica: Optional[int] = None) -> None:
        pass

    def annotate(self, request_id: Any, **tags: Any) -> None:
        pass

    def last_phase_end(self, request_id: Any) -> Optional[float]:
        return None

    def close(self, request_id: Any, ts: float, outcome: str = OUTCOME_SERVED,
              **tags: Any) -> None:
        pass

    def gauge(self, ts: float, name: str, value: float,
              pool: Optional[str] = None, tenant: Optional[str] = None,
              replica: Optional[int] = None) -> None:
        pass


#: The process-wide disabled recorder every hook defaults to.
NULL_RECORDER = NullRecorder()


class TraceRecorder:
    """The live recorder: collects spans and gauge samples for one run."""

    __slots__ = ("spec", "spans_enabled", "gauges_enabled", "_spans",
                 "_order", "gauges")

    enabled = True

    def __init__(self, spec: Optional[TraceSpec] = None) -> None:
        self.spec = spec if spec is not None else TraceSpec()
        self.spans_enabled = bool(self.spec.spans)
        self.gauges_enabled = bool(self.spec.gauges)
        self._spans: Dict[Any, Span] = {}
        self._order: List[Any] = []
        #: Gauge samples as ``(ts_ms, name, value, pool, tenant, replica)``.
        self.gauges: List[Tuple[float, str, float, Optional[str],
                                Optional[str], Optional[int]]] = []

    @property
    def gauge_interval_ms(self) -> Optional[float]:
        return float(self.spec.gauge_interval_ms) if self.gauges_enabled else None

    # ----------------------------------------------------------------- spans
    def admit(self, request_id: Any, ts: float, kind: str = "request",
              pool: Optional[str] = None, replica: Optional[int] = None,
              tenant: Optional[str] = None) -> None:
        """Open a span (idempotent: re-admission keeps the original span)."""
        if not self.spans_enabled or request_id in self._spans:
            return
        self._spans[request_id] = Span(request_id, ts, kind=kind, pool=pool,
                                       replica=replica, tenant=tenant)
        self._order.append(request_id)

    def phase(self, request_id: Any, name: str, start_ms: float, end_ms: float,
              pool: Optional[str] = None, replica: Optional[int] = None) -> None:
        """Record a closed phase interval on an open span."""
        if not self.spans_enabled:
            return
        span = self._spans.get(request_id)
        if span is not None:
            span.phases.append((name, float(start_ms), float(end_ms),
                                pool if pool is not None else span.pool,
                                replica if replica is not None else span.replica))

    def annotate(self, request_id: Any, **tags: Any) -> None:
        if not self.spans_enabled:
            return
        span = self._spans.get(request_id)
        if span is not None:
            tenant = tags.pop("tenant", None)
            if tenant is not None:
                span.tenant = tenant
            if tags:
                span.tags.update(tags)

    def last_phase_end(self, request_id: Any) -> Optional[float]:
        """End time of the span's latest phase (``None`` without phases).

        Lets a pipeline stage start its wait phase where the previous stage
        ended (disaggregated decode queueing begins at KV-transfer arrival,
        not at the sequence's original arrival)."""
        span = self._spans.get(request_id)
        if span is None or not span.phases:
            return None
        return span.phases[-1][2]

    def close(self, request_id: Any, ts: float, outcome: str = OUTCOME_SERVED,
              **tags: Any) -> None:
        if not self.spans_enabled:
            return
        span = self._spans.get(request_id)
        if span is not None and span.outcome is None:
            span.end_ms = float(ts)
            span.outcome = outcome
            if tags:
                span.tags.update(tags)

    # ---------------------------------------------------------------- gauges
    def gauge(self, ts: float, name: str, value: float,
              pool: Optional[str] = None, tenant: Optional[str] = None,
              replica: Optional[int] = None) -> None:
        if self.gauges_enabled:
            self.gauges.append((float(ts), name, float(value), pool, tenant,
                                replica))

    # ----------------------------------------------------------------- views
    def spans(self) -> List[Span]:
        """All spans in admission order."""
        return [self._spans[rid] for rid in self._order]

    def span(self, request_id: Any) -> Optional[Span]:
        return self._spans.get(request_id)

    def closed_spans(self) -> List[Span]:
        return [s for s in self.spans() if s.closed]

    def open_spans(self) -> List[Span]:
        return [s for s in self.spans() if not s.closed]

    def summary(self) -> Dict[str, Any]:
        """JSON-safe rollup for ``RunResult.details['obs']``."""
        # Imported here: export pulls in numpy for percentiles; keep the
        # hook-surface module import-light for the simulator.
        from repro.obs.export import gauge_summary, phase_breakdown

        spans = self.spans()
        outcomes: Dict[str, int] = {}
        for span in spans:
            if span.outcome is not None:
                outcomes[span.outcome] = outcomes.get(span.outcome, 0) + 1
        worst = None
        served = [s for s in spans
                  if s.outcome == OUTCOME_SERVED and s.end_ms is not None]
        if served:
            worst_span = max(served, key=lambda s: (s.duration_ms(),
                                                    str(s.request_id)))
            worst = {
                "request_id": worst_span.request_id,
                "latency_ms": worst_span.duration_ms(),
                "phases": worst_span.phase_durations(),
            }
        return {
            "spans": {
                "total": len(spans),
                "closed": sum(1 for s in spans if s.closed),
                "open": sum(1 for s in spans if not s.closed),
                "outcomes": outcomes,
            },
            "phases": phase_breakdown(spans),
            "gauges": gauge_summary(self.gauges),
            "worst_request": worst,
        }


def build_recorder(trace: Union[None, bool, TraceSpec]
                   ) -> Union[NullRecorder, TraceRecorder]:
    """The live recorder for a trace knob, or :data:`NULL_RECORDER` when off."""
    from repro.obs.spec import coerce_trace

    spec = coerce_trace(trace)
    return NULL_RECORDER if spec is None else TraceRecorder(spec)
