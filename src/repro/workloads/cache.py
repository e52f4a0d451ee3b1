"""Content-addressed workload-trace cache.

Materializing a workload — difficulty traces, arrival processes, per-token
difficulty walks — is pure generation from a :class:`~repro.api.specs.
WorkloadSpec` and a seed, yet it used to run once per ``Experiment.run`` call,
once per sweep grid point that re-derived the same spec, and once per
benchmark that paired the same model with the same stream.  At benchmark and
parallel-sweep scale the regeneration dominates: the trace is identical every
time because the generators are fully seeded.

This module memoizes materialized traces under a **content-addressed key**:
the SHA-256 of the spec's resolved content — kind, resolved source, length,
resolved rate, the *effective* seed, arrival process and preset overrides —
so two specs that would generate the same stream share one entry regardless
of how they were spelled (``source=""`` and ``source="urban-day"`` hash
identically).  Anything that changes the generated trace changes the key,
which is the entire invalidation rule: there is nothing to invalidate by
hand, stale entries are simply never addressed again and age out of the
bounded LRU.

Cached workloads are shared objects.  That is safe because runs never mutate
workloads (the tenancy layer re-tags via ``dataclasses.replace`` / runtime
maps precisely so streams can be shared across sweep grid points), and it is
what makes the parallel sweep executor cheap: the parent process materializes
the trace once, and forked workers inherit the cache copy-on-write instead of
rebuilding it per grid point.

The cache is process-local and bounded (``REPRO_TRACE_CACHE_SIZE``
entries, default 32, least-recently-used eviction; ``0`` disables caching).
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from typing import Any, Dict, Optional

__all__ = ["TraceCache", "trace_key", "get_or_materialize", "cache_info",
           "cache_clear"]

#: Default LRU capacity; override with the REPRO_TRACE_CACHE_SIZE env var.
DEFAULT_MAXSIZE = 32


def _arrival_trace_digest(arrival_process: Optional[str]) -> Optional[str]:
    """Content digest of a ``trace:<path>`` arrival CSV (``None`` otherwise).

    Replayed traces are the one generation input that lives *outside* the
    spec: the same path can name different bytes across runs.  Hashing the
    file's content keeps the invalidation rule honest — editing the CSV
    changes the key, and two paths holding identical bytes share one entry.
    A missing file hashes to a sentinel so the key is still computable (the
    builder will raise the real error).
    """
    if not arrival_process or not str(arrival_process).startswith("trace:"):
        return None
    path = str(arrival_process)[len("trace:"):]
    try:
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()
    except OSError:
        return "missing"


def trace_key(spec: Any, default_seed: int = 0) -> str:
    """Content-addressed key of the trace ``spec`` would materialize.

    The key covers every input of the generation: two ``(spec, seed)`` pairs
    collide exactly when they generate bit-identical workloads.  Defaults are
    resolved first so equivalent spellings share one entry; with
    ``prefix_groups == 0`` the prefix share/length knobs are inert (no prefix
    stream is drawn), so they are excluded from the key in that case.
    """
    seed = spec.seed if spec.seed is not None else int(default_seed)
    overrides = None if not spec.overrides else tuple(
        sorted((str(k), float(v)) for k, v in spec.overrides.items()))
    prefix_groups = int(getattr(spec, "prefix_groups", 0))
    prefix = None if prefix_groups == 0 else (
        prefix_groups, float(spec.prefix_share), int(spec.prefix_tokens))
    # A replayed trace is addressed by its bytes, not its path: two paths
    # holding identical CSVs share one entry, and editing the CSV in place
    # changes the key.
    digest = _arrival_trace_digest(spec.arrival_process)
    arrival = ("trace", digest) if digest is not None else spec.arrival_process
    payload = repr(("repro.workload_trace/v2", spec.kind,
                    spec.resolved_source(), int(spec.requests),
                    float(spec.resolved_rate()), int(seed),
                    arrival, overrides, prefix))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class TraceCache:
    """A bounded LRU of materialized workloads keyed by content address."""

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE) -> None:
        if int(maxsize) < 0:
            raise ValueError(f"maxsize must be >= 0, got {maxsize}")
        self.maxsize = int(maxsize)
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get_or_build(self, key: str, builder) -> Any:
        """Return the cached trace for ``key``, materializing on first use.

        ``builder`` runs outside the lock (generation can take seconds); a
        concurrent duplicate build is tolerated — last writer wins and both
        callers get a correct, identical object.
        """
        if self.maxsize == 0:
            self.misses += 1
            return builder()
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                return self._entries[key]
            self.misses += 1
        value = builder()
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1
        return value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = self.misses = self.evictions = 0

    def info(self) -> Dict[str, int]:
        """Counters snapshot: hits, misses, evictions, current size, capacity."""
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions, "size": len(self._entries),
                    "maxsize": self.maxsize}


def _default_maxsize() -> int:
    raw = os.environ.get("REPRO_TRACE_CACHE_SIZE", "").strip()
    if not raw:
        return DEFAULT_MAXSIZE
    try:
        return max(0, int(raw))
    except ValueError:
        return DEFAULT_MAXSIZE


#: The process-wide cache instance (inherited copy-on-write by forked sweep
#: workers, so a trace the parent materialized is free in every worker).
TRACE_CACHE = TraceCache(maxsize=_default_maxsize())


def get_or_materialize(spec: Any, default_seed: int = 0) -> Any:
    """Materialize ``spec`` through the process-wide trace cache."""
    key = trace_key(spec, default_seed)
    return TRACE_CACHE.get_or_build(key,
                                    lambda: spec.materialize(default_seed))


def cache_info() -> Dict[str, int]:
    """Hit/miss/eviction counters of the process-wide trace cache."""
    return TRACE_CACHE.info()


def cache_clear() -> None:
    """Drop every cached trace and reset the counters."""
    TRACE_CACHE.clear()
