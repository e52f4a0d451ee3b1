"""Dynamic fleet state: the mutable replica membership of a cluster.

PR 1's ``ClusterPlatform`` froze its replica list at construction time.  This
module turns the member set into *fleet state* owned by a control plane, the
way large-scale serving frameworks treat service membership: replicas are
added, drained and retired **during** a run, and every consumer (the event
loop, balancers, the EE fleet controller, metrics rollups) reads the live
membership instead of a fixed list.

Three pieces:

:class:`ReplicaProfile`
    Heterogeneity descriptor for one replica — a ``speed`` multiplier on the
    base latency profile (an int8 or newer-generation accelerator replica runs
    ``speed``\\ × faster) and a ``cost_weight`` used when accounting
    replica-seconds (a faster machine usually bills more per second).

:class:`Replica`
    The one replica protocol of every pool: the resource view load
    balancers and autoscalers inspect (queue length, jobs in system,
    expected work left, capacity, profile, KV residency) plus the hooks the
    shared pool operations use.  :class:`ReplicaEntry` implements it for
    classification replicas; generative decode and prefill replicas
    implement it in their own modules.

:class:`FleetState`
    The live membership.  Replicas move through a three-state lifecycle::

        ACTIVE ──drain──▶ DRAINING ──(queue empty & idle)──▶ RETIRED

    Draining replicas finish their queued and in-flight work but receive no
    new dispatches; retired replicas keep their metrics so fleet rollups and
    the conservation invariant (every request answered exactly once) span
    every replica that ever served.  ``FleetState`` also records the
    fleet-size timeline and the replica-seconds consumed — the cost side of
    the autoscaling trade-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from repro.obs.recorder import NULL_RECORDER
from repro.serving.platform import BatchExecutorFn, ReplicaState, ServingPlatform

__all__ = ["ReplicaProfile", "Replica", "ReplicaHandle", "ReplicaEntry",
           "BaseFleet", "FleetState", "coerce_profiles", "replica_band",
           "ACTIVE", "DRAINING", "RETIRED"]

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


class ReplicaHandle(Replica):
    """The :class:`Replica` view of one classification platform replica.

    Load is read off the platform's :class:`ReplicaState` and capacity off
    its latency model; :class:`ReplicaEntry` extends it into a fleet member.
    """

    def __init__(self, index: int, platform: ServingPlatform, state: ReplicaState,
                 profile: Optional[ReplicaProfile] = None,
                 replica_id: Optional[int] = None) -> None:
        self.index = index
        self.platform = platform
        self.state = state
        self.profile = profile if profile is not None else ReplicaProfile()
        self.replica_id = replica_id if replica_id is not None else index

    @property
    def max_batch_size(self) -> int:
        return self.platform.max_batch_size

    def predicted_batch_time_ms(self, batch_size: int) -> Optional[float]:
        return self.platform.predicted_batch_time_ms(batch_size)

    def queue_length(self) -> int:
        return self.state.queue_length()

    def jobs_in_system(self, now_ms: float) -> int:
        """Waiting requests plus the batch currently on the accelerator.

        This is the classic JSQ load signal: a replica that just drained its
        queue into a 16-request batch is *not* empty — ignoring the in-flight
        batch would funnel every arrival to whichever replica dispatched last.
        """
        in_flight = self.state.serving_batch_size if not self.state.idle_at(now_ms) else 0
        return self.state.queue_length() + in_flight

    def backlog_ms(self, now_ms: float) -> float:
        """Remaining accelerator time of the in-flight batch."""
        return max(0.0, self.state.busy_until_ms - now_ms)

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
        queued = self.queue_length()
        if queued == 0:
            return work
        full = self.platform.max_batch_size
        per_batch = self.platform.predicted_batch_time_ms(min(queued, full))
        if per_batch is None:
            return work + float(queued) / self.profile.speed
        return work + per_batch * math.ceil(queued / full)


class ReplicaEntry(ReplicaHandle):
    """One classification fleet member: its own handle plus executor and
    lifecycle."""

    def __init__(self, replica_id: int, platform: ServingPlatform,
                 executor: BatchExecutorFn, profile: ReplicaProfile,
                 state: ReplicaState, added_ms: float = 0.0) -> None:
        super().__init__(0, platform, state, profile, replica_id)
        self.executor = executor
        self.status = ACTIVE
        self.added_ms = added_ms
        self.retired_ms: Optional[float] = None
        #: requests the balancer originally routed here (reroutes not included).
        self.dispatched = 0
        #: kernel-scheduler bookkeeping: dirty flag + armed policy wake-up event.
        self._kdirty = False
        self._wake_event = None

    @property
    def hardware(self) -> ServingPlatform:
        return self.platform

    @property
    def queue(self) -> list:
        return self.state.queue

    @queue.setter
    def queue(self, value: list) -> None:
        self.state.queue = value

    def enqueue(self, item, runtime=None) -> None:
        # Tenant ranks ride on Request.rank; the platform opens the span.
        self.platform.admit(self.state, item)

    @staticmethod
    def item_id(item) -> int:
        return item.request_id

    def has_work(self, now_ms: float) -> bool:
        # Results are recorded at dispatch, so only queued requests remain.
        return bool(self.state.queue)

    def busy_units(self, now_ms: float) -> int:
        return 0 if self.state.idle_at(now_ms) else 1

    def is_idle(self, now_ms: float) -> bool:
        """No queued work and the accelerator is free (retirement condition)."""
        return not self.state.queue and self.state.idle_at(now_ms)


class BaseFleet:
    """Shared lifecycle machinery of a dynamic replica membership.

    Entries are :class:`Replica` members; the classification fleet
    (:class:`FleetState`), the generative decode fleet and the prefill fleet
    all build on this so the ACTIVE → DRAINING → RETIRED semantics, the
    fleet-size timeline and the replica-seconds accounting are defined
    exactly once.
    """

    #: Gauge name of the members' summed ``busy_units`` (pool gauge sampler).
    busy_gauge = "busy_replicas"

    def __init__(self) -> None:
        self.entries: List = []
        self._next_id = 0
        #: (time_ms, active_count) — recorded whenever membership changes.
        self.timeline: List[Tuple[float, int]] = []
        #: Observability recorder + the pool tag stamped on fleet gauges.
        #: Installed by the runner; the default no-op keeps runs untouched.
        self.obs = NULL_RECORDER
        self.obs_pool = "serve"

    def next_ordinal(self) -> int:
        """Ordinal the next-added replica will receive (stable, monotonic)."""
        return self._next_id

    # ------------------------------------------------------------------ views
    def active(self) -> List:
        return [e for e in self.entries if e.status == ACTIVE]

    def serving(self) -> List:
        """Members that still hold or may produce work (active + draining)."""
        return [e for e in self.entries if e.status != RETIRED]

    def num_active(self) -> int:
        return sum(1 for e in self.entries if e.status == ACTIVE)

    # -------------------------------------------------------------- lifecycle
    def _register(self, entry, now_ms: float):
        """Record a freshly built entry as a live ACTIVE member."""
        self._next_id += 1
        self.entries.append(entry)
        self._mark(now_ms)
        return entry

    def drain(self, entry, now_ms: float) -> None:
        """Stop dispatching to ``entry``; it finishes queued/in-flight work."""
        if entry.status == ACTIVE:
            entry.status = DRAINING
            self._mark(now_ms)

    def retire_idle(self, now_ms: float) -> None:
        """Retire draining replicas that have finished all of their work."""
        for entry in self.entries:
            if entry.status == DRAINING and entry.is_idle(now_ms):
                entry.status = RETIRED
                entry.retired_ms = now_ms

    def finalize(self, end_ms: float) -> None:
        """Close the books at the end of a run (retire every member)."""
        for entry in self.entries:
            if entry.status != RETIRED:
                entry.status = RETIRED
                entry.retired_ms = end_ms

    # -------------------------------------------------------------- accounting
    def replica_seconds(self, end_ms: float) -> float:
        """Cost-weighted replica-seconds consumed by the whole fleet."""
        return sum(e.profile.cost_weight * e.active_ms(end_ms)
                   for e in self.entries) / 1000.0

    def active_replica_ms(self, end_ms: float) -> float:
        """Unweighted provisioned milliseconds (for utilization rollups)."""
        return sum(e.active_ms(end_ms) for e in self.entries)

    def _mark(self, now_ms: float) -> None:
        count = self.num_active()
        if self.obs.enabled:
            # Event-driven fleet-size series: a point at every membership
            # transition (the gauge superset of the ad-hoc ``timeline``).
            self.obs.gauge(now_ms, "fleet_size", count, pool=self.obs_pool)
        if self.timeline and abs(self.timeline[-1][0] - now_ms) <= 1e-9:
            self.timeline[-1] = (now_ms, count)
            return
        if self.timeline and self.timeline[-1][1] == count:
            return
        self.timeline.append((now_ms, count))


class FleetState(BaseFleet):
    """Live replica membership with an add / drain / retire lifecycle.

    The cluster event loop owns one of these per run.  Balancers only ever see
    the ACTIVE members; DRAINING members keep serving their queues; RETIRED
    members are kept for metrics so rollups span the whole run.
    """

    def add(self, platform: ServingPlatform, executor: BatchExecutorFn,
            profile: ReplicaProfile, now_ms: float) -> ReplicaEntry:
        """Bring a new replica online (dispatchable from the next arrival)."""
        state = platform.new_state()
        # Every add path (initial fleet, autoscale boot, crash recovery)
        # funnels through here, so span hooks inherit the fleet's recorder
        # and the replica's stable id without per-call-site wiring.
        platform.obs = self.obs
        state.obs_replica = self._next_id
        entry = ReplicaEntry(replica_id=self._next_id, platform=platform,
                             executor=executor, profile=profile, state=state,
                             added_ms=now_ms)
        return self._register(entry, now_ms)
