"""Uniform run results and cross-system comparison reports.

Every registered system returns a :class:`RunResult` with the same shape —
a named-metric ``summary`` dict plus JSON-safe ``params``/``details`` and the
system's own result object under ``raw`` — so comparison tables, sweeps, benchmarks
and the CLI's ``--json`` mode all consume one schema instead of each system's
ad-hoc return type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence

__all__ = ["KIND_CLASSIFICATION", "KIND_GENERATIVE", "RunResult",
           "RunReport", "SweepPoint", "SweepReport", "METRIC_LABELS",
           "SYSTEM_DISPLAY_NAMES", "labels_for_kind"]

#: The two experiment kinds, one per model family.  Topology (replicas,
#: disaggregated pools) lives in ``params["cluster"]``, not in the kind.
KIND_CLASSIFICATION = "classification"
KIND_GENERATIVE = "generative"

#: Human-readable labels for the shared metric vocabulary.
METRIC_LABELS = {
    "p25_ms": "p25 latency",
    "p50_ms": "median latency",
    "p95_ms": "p95 latency",
    "p99_ms": "p99 latency",
    "mean_ms": "mean latency",
    "throughput_qps": "throughput",
    "accuracy": "accuracy",
    "exit_rate": "exit rate",
    "drop_rate": "drop rate",
    "escalation_rate": "escalation rate",
    "dispatch_imbalance": "dispatch imbalance",
    "fleet_gpu_utilization": "fleet GPU util",
    "tpt_p25_ms": "TPT p25",
    "tpt_p50_ms": "TPT p50",
    "tpt_p95_ms": "TPT p95",
    "tpt_p99_ms": "TPT p99",
    "token_p99_ms": "per-token p99",
    "ttft_mean_ms": "TTFT mean",
    "ttft_p99_ms": "TTFT p99",
    "sequence_accuracy": "seq accuracy",
    "throughput_tokens_per_s": "tokens/s",
    "deferred_flushes": "deferred flushes",
    "shed": "shed",
    "shed_rate": "shed rate",
    "peak_replicas": "peak replicas",
    "replica_seconds": "replica-seconds",
    "prefill_peak_replicas": "prefill peak replicas",
    "prefill_replica_seconds": "prefill replica-seconds",
    "prefill_delay_mean_ms": "prefill delay mean",
    "transfer_ms_mean": "KV transfer mean",
    "kv_hit_rate": "KV hit rate",
    "kv_hit_tokens": "KV hit tokens",
    "kv_miss_tokens": "KV miss tokens",
    "kv_evictions": "KV evictions",
    "kv_evicted_tokens": "KV evicted tokens",
    "kv_recompute_tokens": "KV recompute tokens",
}

#: Pretty column titles for registered systems.
SYSTEM_DISPLAY_NAMES = {
    "vanilla": "vanilla",
    "apparate": "Apparate",
    "free": "FREE",
    "optimal": "optimal",
    "static_ee": "static-EE",
    "two_layer": "two-layer",
}

#: Default metric rows shown per experiment kind (tables stay focused; the
#: full summary is always available via ``to_json``).  A row a result does
#: not report is skipped, so ``prefill_peak_replicas`` shows only for
#: disaggregated runs.
_DISPLAY_METRICS = {
    KIND_CLASSIFICATION: ("p25_ms", "p50_ms", "p95_ms", "p99_ms", "throughput_qps",
                          "accuracy", "exit_rate", "drop_rate",
                          "dispatch_imbalance"),
    KIND_GENERATIVE: ("tpt_p25_ms", "tpt_p50_ms", "tpt_p95_ms", "token_p99_ms",
                      "ttft_p99_ms", "sequence_accuracy", "exit_rate",
                      "throughput_tokens_per_s", "peak_replicas",
                      "prefill_peak_replicas"),
}


def labels_for_kind(kind: str) -> Dict[str, str]:
    """Metric labels for ``kind``; every run is a fleet, so throughput is
    fleet-wide."""
    labels = dict(METRIC_LABELS)
    if kind == KIND_CLASSIFICATION:
        labels["throughput_qps"] = "fleet throughput"
    else:
        labels["throughput_tokens_per_s"] = "fleet tokens/s"
    return labels


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars/arrays and other simple types to JSON-safe ones."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "tolist"):          # numpy arrays and scalars
        return _jsonable(value.tolist())
    if hasattr(value, "item") and not isinstance(value, (int, float, str, bool)):
        return value.item()
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(value)


@dataclass
class RunResult:
    """One system's outcome on one experiment, in the shared schema.

    ``summary`` holds the named metric keys (floats); ``details`` holds
    JSON-safe extras (per-replica dispatch counts, tuned thresholds, …);
    ``raw`` keeps the system's own result object (fleet metrics, plus the
    controllers or policies for the EE systems) for code that wants the
    full surface.

    ``trace`` holds the live :class:`~repro.obs.TraceRecorder` when the
    experiment ran with ``trace=...`` (``None`` otherwise) — feed it to
    :func:`repro.obs.write_chrome_trace` / :func:`repro.obs.write_jsonl`.
    Like ``raw`` it is an in-process object: excluded from ``to_json``
    (the JSON-safe rollup lives in ``details["obs"]``).
    """

    system: str
    kind: str
    model: str
    summary: Dict[str, float]
    params: Dict[str, Any] = field(default_factory=dict)
    details: Dict[str, Any] = field(default_factory=dict)
    raw: Any = field(default=None, repr=False, compare=False)
    trace: Any = field(default=None, repr=False, compare=False)

    def metric(self, key: str, default: Optional[float] = None) -> Optional[float]:
        return self.summary.get(key, default)

    def to_json(self) -> Dict[str, Any]:
        """Machine-readable dict (stable schema, numpy-free)."""
        return {
            "schema": "repro.run_result/v2",
            "system": self.system,
            "kind": self.kind,
            "model": self.model,
            "params": _jsonable(self.params),
            "summary": {str(k): float(v) for k, v in self.summary.items()},
            "details": _jsonable(self.details),
        }


@dataclass
class RunReport:
    """Cross-system comparison: the results of one ``Experiment.run`` call."""

    results: List[RunResult]
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._by_system = {r.system: r for r in self.results}

    def systems(self) -> List[str]:
        return [r.system for r in self.results]

    def result(self, system: str) -> RunResult:
        try:
            return self._by_system[system]
        except KeyError as exc:
            raise ValueError(f"no result for system {system!r}; "
                             f"report covers {self.systems()}") from exc

    @property
    def kind(self) -> str:
        return self.results[0].kind if self.results else KIND_CLASSIFICATION

    def metric_keys(self) -> List[str]:
        """Union of summary keys, in first-seen order across systems."""
        keys: List[str] = []
        for result in self.results:
            for key in result.summary:
                if key not in keys:
                    keys.append(key)
        return keys

    # ---------------------------------------------------------------- output
    def format_table(self, metrics: Optional[Sequence[str]] = None,
                     labels: Optional[Dict[str, str]] = None,
                     label_width: int = 22, column_width: int = 12) -> str:
        """Render the systems-by-metrics comparison table.

        This is the one formatter behind every CLI comparison printout:
        columns are systems (display names), rows are metrics, and a metric a
        system does not report renders as ``-``.
        """
        if metrics is None:
            preferred = _DISPLAY_METRICS.get(self.kind, ())
            available = set(self.metric_keys())
            metrics = [m for m in preferred if m in available] or self.metric_keys()
        labels = labels if labels is not None else labels_for_kind(self.kind)
        header = f"{'metric':<{label_width}s}" + "".join(
            f"{SYSTEM_DISPLAY_NAMES.get(name, name):>{column_width}s}"
            for name in self.systems())
        lines = [header]
        for key in metrics:
            cells = []
            for result in self.results:
                value = result.summary.get(key)
                cells.append(f"{'-':>{column_width}s}" if value is None
                             else f"{value:{column_width}.3f}")
            lines.append(f"{labels.get(key, key):<{label_width}s}" + "".join(cells))
        return "\n".join(lines)

    def to_json(self) -> Dict[str, Any]:
        return {
            "schema": "repro.run_report/v2",
            "params": _jsonable(self.params),
            "results": [r.to_json() for r in self.results],
        }


@dataclass
class SweepPoint:
    """One grid point of a sweep: the varied parameters and their report.

    A point that raised at run time carries ``error`` (``{"type", "message"}``)
    instead of a report — the sweep executors capture per-point failures so
    one bad grid point cannot kill its siblings.  Config errors still fail
    the whole sweep up front: every point's specs are validated before any
    point runs.

    ``wall_s`` (wall-clock seconds the point took) and ``cache`` (workload
    trace-cache ``{"hits", "misses"}`` deltas observed while it ran) are
    execution telemetry for progress reporting.  They depend on machine and
    scheduling, so ``to_json`` excludes them — serial and parallel sweeps of
    the same grid stay byte-identical.
    """

    params: Dict[str, Any]
    report: Optional[RunReport]
    error: Optional[Dict[str, str]] = None
    wall_s: Optional[float] = field(default=None, compare=False)
    cache: Optional[Dict[str, int]] = field(default=None, compare=False)


@dataclass
class SweepReport:
    """All grid points of one ``Experiment.sweep`` call, in grid order."""

    points: List[SweepPoint]
    base_params: Dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterable[SweepPoint]:
        return iter(self.points)

    def results(self, system: str) -> List[RunResult]:
        """The given system's result at every grid point, in grid order.

        Raises :class:`ValueError` if any grid point failed — a partial
        column would silently misalign against the grid.
        """
        failed = self.errors()
        if failed:
            first = failed[0]
            raise ValueError(
                f"{len(failed)} of {len(self.points)} sweep points failed; "
                f"first: params={first.params} error={first.error}")
        return [point.report.result(system) for point in self.points]

    def errors(self) -> List[SweepPoint]:
        """The grid points that failed at run time, in grid order."""
        return [point for point in self.points if point.error is not None]

    def format_table(self, metrics: Optional[Sequence[str]] = None,
                     column_width: int = 12) -> str:
        """One row per (grid point, system) with the selected metric columns."""
        if not self.points:
            return "(empty sweep)"
        if metrics is None:
            # A failed point has no report, so key the default metric columns
            # off the first point that succeeded (no columns if none did).
            first_ok = next((p for p in self.points if p.report is not None), None)
            if first_ok is None:
                metrics = []
            else:
                preferred = _DISPLAY_METRICS.get(first_ok.report.kind, ())
                available = set(first_ok.report.metric_keys())
                metrics = [m for m in preferred if m in available][:6]
        param_keys = list(self.points[0].params)
        param_widths = {
            key: max(column_width, len(key) + 2,
                     max(len(str(p.params[key])) for p in self.points) + 2)
            for key in param_keys}
        header = "".join(f"{k:>{param_widths[k]}s}" for k in param_keys) \
            + f"{'system':>{column_width}s}" \
            + "".join(f"{m:>{max(column_width, len(m) + 2)}s}" for m in metrics)
        lines = [header]
        for point in self.points:
            prefix = "".join(f"{str(point.params[k]):>{param_widths[k]}s}"
                             for k in param_keys)
            if point.error is not None:
                lines.append(prefix + f"  ERROR {point.error['type']}: "
                             f"{point.error['message']}")
                continue
            for result in point.report.results:
                cells = []
                for m in metrics:
                    value = result.summary.get(m)
                    width = max(column_width, len(m) + 2)
                    cells.append(f"{'-':>{width}s}" if value is None
                                 else f"{value:{width}.3f}")
                lines.append(prefix + f"{result.system:>{column_width}s}"
                             + "".join(cells))
        return "\n".join(lines)

    def to_json(self) -> Dict[str, Any]:
        return {
            "schema": "repro.sweep_report/v2",
            "base_params": _jsonable(self.base_params),
            "points": [{"params": _jsonable(p.params),
                        "report": None if p.report is None
                        else p.report.to_json(),
                        **({} if p.error is None
                           else {"error": dict(p.error)})}
                       for p in self.points],
        }
