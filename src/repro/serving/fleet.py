"""Replica profiles, the one replica protocol of every pool, and the
classification member.

A fleet's member set is live state: replicas are added, drained and retired
**during** a run, and every consumer (the event loop, balancers, the EE fleet
controller, metrics rollups) reads the live membership instead of a fixed
list.  The pool that owns a membership
(:class:`~repro.serving.pool.PoolState`) keeps the member list, its views,
the fleet-size timeline and the books; members move through a three-state
lifecycle::

    ACTIVE ──drain──▶ DRAINING ──(queue empty & idle)──▶ RETIRED

Draining replicas finish their queued and in-flight work but receive no new
dispatches; retired replicas keep their metrics so fleet rollups and the
conservation invariant (every request answered exactly once) span every
replica that ever served.

Three pieces live here:

:class:`ReplicaProfile`
    Heterogeneity descriptor for one replica — a ``speed`` multiplier on the
    base latency profile (an int8 or newer-generation accelerator replica runs
    ``speed``\\ × faster) and a ``cost_weight`` used when accounting
    replica-seconds (a faster machine usually bills more per second).

:class:`Replica`
    The one replica protocol of every pool: the resource view load
    balancers and autoscalers inspect (queue length, jobs in system,
    expected work left, capacity, profile, KV residency) plus the hooks the
    shared pool operations use.  Generative decode and prefill replicas
    implement it in their own modules.

:class:`ReplicaEntry`
    The one object per classification replica: its queue, accelerator
    clock, metrics, conservation set, recorder, executor and lifecycle.
    Its :class:`~repro.serving.platform.ServingPlatform` is only the
    batching policy and latency model, whose phases act on the member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.obs.recorder import NULL_RECORDER
from repro.serving.metrics import ServingMetrics
from repro.serving.platform import BatchExecutorFn, ServingPlatform
from repro.serving.request import Request

__all__ = ["ReplicaProfile", "Replica", "ReplicaEntry",
           "coerce_profiles", "replica_band", "ACTIVE", "DRAINING", "RETIRED"]

#: Replica lifecycle states.
ACTIVE = "active"
DRAINING = "draining"
RETIRED = "retired"


@dataclass(frozen=True)
class ReplicaProfile:
    """Speed and cost of one replica relative to the fleet's base hardware.

    ``speed`` scales serving time (2.0 = twice as fast, 0.5 = half speed);
    ``cost_weight`` scales the replica-seconds this replica bills (defaults
    to ``speed`` being free — set it to model faster-but-pricier machines).
    ``kv_capacity_bytes`` bounds the replica's KV-cache (generative decode
    replicas only; ``None`` inherits the fleet-wide capacity, which itself
    defaults to unbounded — no cache model at all).
    """

    speed: float = 1.0
    cost_weight: float = 1.0
    kv_capacity_bytes: Optional[float] = None

    def __post_init__(self) -> None:
        if not (self.speed > 0.0 and math.isfinite(self.speed)):
            raise ValueError(f"profile speed must be positive, got {self.speed}")
        if not (self.cost_weight > 0.0 and math.isfinite(self.cost_weight)):
            raise ValueError(f"profile cost_weight must be positive, "
                             f"got {self.cost_weight}")
        if self.kv_capacity_bytes is not None and not (
                self.kv_capacity_bytes > 0.0
                and math.isfinite(self.kv_capacity_bytes)):
            raise ValueError(f"profile kv_capacity_bytes must be positive and "
                             f"finite, got {self.kv_capacity_bytes}")

    @classmethod
    def coerce(cls, value: Union["ReplicaProfile", float, int, str]) -> "ReplicaProfile":
        """Accept a profile, a bare speed, or a ``"speed[:cost]"`` string."""
        if isinstance(value, ReplicaProfile):
            return value
        if isinstance(value, (int, float)):
            return cls(speed=float(value))
        text = str(value).strip()
        speed_text, _, cost_text = text.partition(":")
        try:
            speed = float(speed_text)
            cost = float(cost_text) if cost_text else 1.0
        except ValueError as exc:
            raise ValueError(f"invalid replica profile {value!r}; expected "
                             "'speed' or 'speed:cost' (e.g. '2.0' or '2.0:1.5')") from exc
        return cls(speed=speed, cost_weight=cost)

    @classmethod
    def parse_list(cls, text: str) -> Tuple["ReplicaProfile", ...]:
        """Parse a CLI-style comma-separated profile list, e.g. ``"2,2,0.5:0.6"``."""
        items = [item.strip() for item in str(text).split(",") if item.strip()]
        if not items:
            raise ValueError(f"replica profiles must name at least one replica, "
                             f"got {text!r}")
        return tuple(cls.coerce(item) for item in items)

    def describe(self) -> dict:
        described = {"speed": float(self.speed),
                     "cost_weight": float(self.cost_weight)}
        if self.kv_capacity_bytes is not None:
            described["kv_capacity_bytes"] = float(self.kv_capacity_bytes)
        return described


def coerce_profiles(profiles: Optional[Sequence[Union[ReplicaProfile, float, str]]],
                    count: int, pool: str = "") -> List[ReplicaProfile]:
    """Per-initial-member profiles of a pool of ``count`` replicas.

    ``None`` is ``count`` base-speed profiles; otherwise one profile (or
    speed float / ``"speed[:cost]"`` string) per replica.  ``pool`` names the
    pool in the error message of a disaggregated platform.
    """
    if profiles is None:
        return [ReplicaProfile() for _ in range(count)]
    coerced = [ReplicaProfile.coerce(p) for p in profiles]
    if len(coerced) != count:
        label = f"{pool} " if pool else ""
        raise ValueError(f"got {len(coerced)} {label}replica profiles for "
                         f"{count} replicas")
    return coerced


def replica_band(initial: int, lower: Optional[int], upper: Optional[int],
                 pool: str = "") -> Tuple[int, int]:
    """The ``(min, max)`` replica band a pool's autoscaler is clamped to.

    ``None`` bounds freeze the pool at its ``initial`` size; the band must
    contain the initial pool.  ``pool`` prefixes the offending keyword in
    the error message (``prefill_min_replicas``) on disaggregated platforms.
    """
    low = initial if lower is None else int(lower)
    high = initial if upper is None else int(upper)
    key = f"{pool}_" if pool else ""
    if not 1 <= low <= initial:
        raise ValueError(f"{key}min_replicas must be in [1, {initial}] "
                         f"(the initial pool size), got {low}")
    if high < initial:
        raise ValueError(f"{key}max_replicas must be >= the initial pool "
                         f"size ({initial}), got {high}")
    return low, high


class Replica:
    """One pool member, as balancers, autoscalers and pool operations see it.

    This is the one replica protocol of every pool — classification
    replicas (:class:`ReplicaEntry`), generative decode replicas and prefill
    replicas all implement it directly, so a member is its own handle.
    Balancers and autoscalers read only the **resource view**:

    * load — ``queue_length()``, ``jobs_in_system(now)``, ``backlog_ms(now)``,
      ``work_left_ms(now)``;
    * capacity — ``max_batch_size`` and ``predicted_batch_time_ms(n)``,
      which the predictive autoscaler turns into requests per second;
    * identity — ``index`` (position among the pool's active members, kept
      by :class:`~repro.serving.pool.PoolState`), ``replica_id``, ``profile``
      and :attr:`weight`;
    * KV cache — :meth:`kv_prefix_hit_tokens`, :meth:`kv_prefix_hit_ms` and
      :meth:`kv_overflow_ms`, priced from ``kv`` (a
      :class:`~repro.generative.decoding.KVCacheAccountant`) and 0 when the
      member has no cache model.

    The pool operations (routing, crash/recover, gauges, retirement) use the
    rest: :meth:`enqueue`, :meth:`take_queue`, :meth:`item_id`,
    ``has_work(now)``, ``busy_units(now)``, ``is_idle(now)``, ``hardware``
    (what a crash recovery reboots) and the lifecycle fields ``status``,
    ``added_ms``, ``retired_ms`` and ``dispatched``.  The defaults here serve
    members whose queue is a plain list of generative sequences.
    """

    index: int = 0
    kv = None

    @property
    def weight(self) -> float:
        """Dispatch weight of this replica (its relative speed)."""
        return self.profile.speed

    def queue_length(self) -> int:
        return len(self.queue)

    # ------------------------------------------------------- KV-cache signals
    def kv_prefix_hit_tokens(self, item) -> int:
        """Shared-prefix tokens of ``item``'s group already resident in this
        replica's KV cache (0 without a cache model)."""
        kv = self.kv
        return kv.prefix_hit_tokens(item) if kv is not None else 0

    def kv_prefix_hit_ms(self, item) -> float:
        """Prefill milliseconds placing ``item`` here would *save* thanks to
        resident shared-prefix tokens, priced at this replica's re-prefill
        rate (0 without a cache model)."""
        kv = self.kv
        if kv is None:
            return 0.0
        return kv.prefix_hit_tokens(item) * kv.recompute_ms_per_token

    def kv_overflow_ms(self, item, now_ms: float) -> float:
        """Expected recompute cost (ms) of the cache thrash placing ``item``
        here would cause (0 without a cache model)."""
        kv = self.kv
        if kv is None:
            return 0.0
        return kv.overflow_tokens(item) * kv.recompute_ms_per_token

    # ---------------------------------------------------------- pool hooks
    def enqueue(self, item, runtime=None) -> None:
        """Join the queue; ``runtime`` (tenancy) keeps it in rank order."""
        queue = self.queue
        queue.append(item)
        if runtime is not None:
            runtime.reposition(queue)

    def take_queue(self) -> list:
        """Empty the queue and return what it held (a crash's orphans)."""
        orphans = self.queue
        self.queue = []
        return orphans

    @staticmethod
    def item_id(item) -> int:
        """Id of a queued item (the key of spans and tenant maps)."""
        return item.sequence_id

    def active_ms(self, end_ms: float) -> float:
        """Wall-clock time this replica was provisioned (added → retired)."""
        until = self.retired_ms if self.retired_ms is not None else end_ms
        return max(0.0, until - self.added_ms)


class ReplicaEntry(Replica):
    """One classification fleet member: serving state, resource view,
    executor and lifecycle.

    It owns everything a run mutates, so its ``platform`` stays a stateless
    batching policy and latency model that a crash recovery reboots onto a
    fresh member.  ``responded_ids`` guards the conservation invariant:
    every request is answered (served or dropped) exactly once.
    """

    def __init__(self, replica_id: int, platform: ServingPlatform,
                 executor: BatchExecutorFn, profile: ReplicaProfile,
                 added_ms: float = 0.0, obs=NULL_RECORDER) -> None:
        self.replica_id = replica_id
        self.platform = platform
        self.executor = executor
        self.profile = profile
        #: span hooks (the shared no-op recorder unless the run installs one).
        self.obs = obs
        self.queue: List[Request] = []
        self.metrics = ServingMetrics()
        #: time at which the accelerator finishes its current batch.
        self.busy_until_ms = -np.inf
        #: arrival time of the first request routed to this replica.
        self.first_arrival_ms: Optional[float] = None
        #: time of the last completion or drop on this replica.
        self.last_event_ms = -np.inf
        #: size of the batch occupying the accelerator (until busy_until_ms).
        self.serving_batch_size = 0
        self.responded_ids: Set[int] = set()
        self.status = ACTIVE
        self.added_ms = added_ms
        self.retired_ms: Optional[float] = None
        #: requests the balancer originally routed here (reroutes not included).
        self.dispatched = 0
        #: kernel-scheduler bookkeeping: dirty flag + armed policy wake-up event.
        self._kdirty = False
        self._wake_event = None
        #: salvage completion-offset table (``cluster._drain_times``).
        self._drain_times: List[float] = []

    @property
    def hardware(self) -> ServingPlatform:
        return self.platform

    # ---------------------------------------------------------- resource view
    @property
    def max_batch_size(self) -> int:
        return self.platform.max_batch_size

    def predicted_batch_time_ms(self, batch_size: int) -> Optional[float]:
        return self.platform.predicted_batch_time_ms(batch_size)

    def jobs_in_system(self, now_ms: float) -> int:
        """Waiting requests plus the batch currently on the accelerator.

        This is the classic JSQ load signal: a replica that just drained its
        queue into a 16-request batch is *not* empty — ignoring the in-flight
        batch would funnel every arrival to whichever replica dispatched last.
        """
        in_flight = self.serving_batch_size if not self.idle_at(now_ms) else 0
        return len(self.queue) + in_flight

    def backlog_ms(self, now_ms: float) -> float:
        """Remaining accelerator time of the in-flight batch."""
        return max(0.0, self.busy_until_ms - now_ms)

    def work_left_ms(self, now_ms: float) -> float:
        """Expected milliseconds until this replica would drain its queue.

        Queued requests are costed with the platform's latency model (batched
        at ``max_batch_size``); platforms without a profile fall back to one
        unit per request, which degrades gracefully to queue-length ordering.
        A heterogeneous replica's platform carries a speed-scaled latency
        profile (see :meth:`~repro.models.latency.LatencyProfile.scaled`), so
        the same milliseconds compare correctly across mixed-speed fleets.
        """
        work = self.backlog_ms(now_ms)
        queued = len(self.queue)
        if queued == 0:
            return work
        full = self.platform.max_batch_size
        per_batch = self.platform.predicted_batch_time_ms(min(queued, full))
        if per_batch is None:
            return work + float(queued) / self.profile.speed
        return work + per_batch * math.ceil(queued / full)

    # ------------------------------------------------------------ pool hooks
    def enqueue(self, item, runtime=None) -> None:
        # Tenant ranks ride on Request.rank; the platform opens the span.
        self.platform.admit(self, item)

    @staticmethod
    def item_id(item) -> int:
        return item.request_id

    def idle_at(self, now_ms: float) -> bool:
        return self.busy_until_ms <= now_ms + 1e-9

    def has_work(self, now_ms: float) -> bool:
        # Results are recorded at dispatch, so only queued requests remain.
        return bool(self.queue)

    def busy_units(self, now_ms: float) -> int:
        return 0 if self.idle_at(now_ms) else 1

    def is_idle(self, now_ms: float) -> bool:
        """No queued work and the accelerator is free (retirement condition)."""
        return not self.queue and self.idle_at(now_ms)

    def finalize_makespan(self) -> None:
        """Stamp the replica's metrics with its observed wall-clock span."""
        if self.first_arrival_ms is None or not np.isfinite(self.last_event_ms):
            return
        self.metrics.makespan_ms = max(self.last_event_ms - self.first_arrival_ms, 1e-9)
