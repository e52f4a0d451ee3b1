"""Replica pools: the operations every kernel-scheduled fleet run shares.

A fleet run (:class:`FleetRun`) is a graph of replica pools on one event
kernel.  The classification fleet (:mod:`repro.serving.cluster`) and the
monolithic generative fleet (:mod:`repro.serving.generative_cluster`) are
one pool each; the disaggregated fleet (:mod:`repro.serving.disagg`) is a
prefill pool feeding a decode pool through the KV handoff queue.
:class:`PoolState` owns what every pool does the same way whatever its
members are — balancer routing, the autoscaler phase and scale-out boots,
crash and recovery, the dirty set and gauges — so a runner keeps only what
its pool graph does differently.

Pool members implement the :class:`~repro.serving.fleet.Replica` protocol,
so a member is its own balancer/autoscaler handle.

Pool events carry a ``(pool, arg)`` payload and are fired by
:meth:`FleetRun.on_event`, so no runner dispatches them: :data:`WAKE`
re-evaluates member ``arg`` (its batch, decode slot or chunk-batch ended),
:data:`EVICT` runs member ``arg``'s deferred KV-cache eviction (decode pools
only, :meth:`~repro.serving.generative_cluster.DecodePool.evict`), and the
lifecycle kinds :data:`BOOT`, :data:`CRASH` and :data:`RECOVER` carry the
fault or ``None``.  A runner numbers its own event kinds from
:data:`FIRST_RUNNER_EVENT`.  Kinds never affect the schedule — events fire
in ``(time_ms, seq)`` order — so a run is fixed by which events are
registered and in which order, and ``tests/serving/test_kernel_equivalence.py``
holds that to the seed loops.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, List, Optional, Tuple

from repro.serving.autoscaler import FixedAutoscaler
from repro.serving.fleet import ACTIVE, DRAINING, RETIRED
from repro.serving.kernel import Event, SimPlatform
from repro.tenancy import tenant_backlog

__all__ = ["PoolState", "FleetRun", "WAKE", "EVICT", "BOOT", "CRASH",
           "RECOVER", "FIRST_RUNNER_EVENT"]

#: Event kinds of pool events (payload: ``(pool, member)`` for member
#: wake-ups and KV evictions, ``(pool, fault or None)`` for lifecycle events).
WAKE, EVICT, BOOT, CRASH, RECOVER = range(5)
#: First event kind free for a runner's own events.
FIRST_RUNNER_EVENT = 5

#: ``spawn(hardware, profile, now_ms)`` registers a new member in the fleet.
Spawn = Callable[[Any, Any, float], Any]
#: ``scale_out(ordinal)`` is the ``(hardware, profile)`` a boot brings up.
ScaleOut = Callable[[int], Tuple[Any, Any]]


class PoolState:
    """One replica pool of a kernel run and the operations on it.

    Membership views are maintained incrementally (they only change on
    boot, drain, crash and retire): ``serving`` (fleet order, ACTIVE +
    DRAINING) and ``active`` (fleet order, balancer-visible, each member's
    ``index`` assigned).  ``boots`` holds in-flight scale-out boot events
    and ``draining`` counts members awaiting retirement, so the retire scan
    is skipped outright for the common static pool.

    Construction is the pool's setup for one run: the balancer and
    autoscaler are reset to the run's band, the fleet inherits the run's
    recorder and pool tag, and the ``initial`` ``(hardware, profile)`` pairs
    are spawned at the run's start time.  ``spawn`` also rebuilds crashed
    hardware on recovery and brings ``scale_out(ordinal)`` hardware online
    on a boot, so every add path goes through one function.
    """

    def __init__(self, sim: SimPlatform, fleet: Any, name: str, balancer: Any,
                 autoscaler: Any, band: Tuple[int, int], spawn: Spawn,
                 scale_out: ScaleOut, initial: Iterable[Tuple[Any, Any]],
                 runtime: Any = None) -> None:
        self.sim = sim
        self.fleet = fleet
        #: Pool label on spans and gauges ("serve", "prefill", "decode").
        self.name = name
        self.balancer = balancer
        self.autoscaler = autoscaler
        self.min_replicas, self.max_replicas = band
        self.spawn = spawn
        self.scale_out = scale_out
        #: Tenant runtime: keeps list queues in rank order on every enqueue.
        self.runtime = runtime
        balancer.reset()
        autoscaler.reset()
        autoscaler.set_bounds(*band)
        fleet.obs = sim.obs
        fleet.obs_pool = name
        start_ms = sim.clock.now_ms
        for hardware, profile in initial:
            spawn(hardware, profile, start_ms)
        self.serving: List[Any] = list(fleet.entries)
        self.active: List[Any] = []
        self.boots: List[Event] = []
        self.draining = 0
        self.dirty: List[Any] = []
        #: Last autoscaler target emitted as a gauge (decision de-dup).
        self.last_desired: Optional[int] = None
        #: Fault counters and the crashed ``(hardware, profile)`` pairs
        #: awaiting recovery, oldest first.
        self.crashes = 0
        self.recoveries = 0
        self.requeued = 0
        self._stock: List[Tuple[Any, Any]] = []
        self.refresh_active()
        #: A fixed-size pool inside its band never changes membership through
        #: the exact ``FixedAutoscaler`` (stateless, always proposing the
        #: current size), so :meth:`scale` skips the per-pass consult.  Other
        #: policies, subclasses included, are evaluated every pass.
        self.autoscaled = not (type(autoscaler) is FixedAutoscaler
                               and band[0] <= len(self.active) <= band[1])

    # ------------------------------------------------------------ membership
    def refresh_active(self) -> None:
        active = [e for e in self.serving if e.status == ACTIVE]
        for position, entry in enumerate(active):
            entry.index = position
        self.active = active

    def add(self, entry: Any) -> None:
        """Record a freshly spawned member (already registered in the fleet)."""
        self.serving.append(entry)
        self.refresh_active()

    def retire_idle(self, now_ms: float) -> None:
        """Retire draining members that have finished all of their work."""
        if not self.draining:
            return
        removed = False
        for entry in self.serving:
            if entry.status == DRAINING and entry.is_idle(now_ms):
                entry.status = RETIRED
                entry.retired_ms = now_ms
                self.draining -= 1
                removed = True
        if removed:
            self.serving = [e for e in self.serving if e.status != RETIRED]

    # ------------------------------------------------------------- dirty set
    def wake(self, entry: Any) -> None:
        """Mark a member for re-evaluation in the next pass."""
        if not entry._kdirty:
            entry._kdirty = True
            self.dirty.append(entry)

    def drain_dirty(self) -> List[Any]:
        """Take the dirty set, in stable replica-id order.

        Members woken while the returned batch is processed land in the next
        pass's set — a seed-loop pass likewise acted only on the state as of
        its start and re-ran on progress.
        """
        todo = self.dirty
        if not todo:
            return todo
        self.dirty = []
        if len(todo) > 1:
            todo.sort(key=_replica_id)
        for entry in todo:
            entry._kdirty = False
        return todo

    # --------------------------------------------------------------- routing
    def route(self, item: Any, now_ms: float) -> Any:
        """Place ``item`` on the active member the balancer picks.

        The run's only ``balancer.choose`` call site: admissions, KV
        handoffs and crash requeues all come through here.  The member
        enqueues the item (keeping tenant rank order) and is woken; the
        caller does its own accounting on the returned member.
        """
        active = self.active
        index = int(self.balancer.choose(item, active, now_ms))
        if not 0 <= index < len(active):
            raise ValueError(f"balancer {self.balancer.name!r} chose replica "
                             f"{index} of {len(active)} in the {self.name} "
                             "pool")
        entry = active[index]
        entry.enqueue(item, self.runtime)
        self.wake(entry)
        return entry

    # --------------------------------------------------------------- scaling
    def scale(self, now_ms: float) -> None:
        """One autoscaler evaluation, the seed loops' "phase 2".

        ``desired`` targets the number of ACTIVE members; boots already in
        flight keep provisioning unless the policy asks to shrink below the
        current active set (a "hold" during a boot is not a scale-in).
        Scale-out registers one :data:`BOOT` event per new member; scale-in
        cancels pending boots outright and drains the newest active members
        down to the target.
        """
        if not self.autoscaled:
            return
        autoscaler = self.autoscaler
        desired = int(autoscaler.desired_replicas(now_ms, self.active))
        desired = max(self.min_replicas, min(self.max_replicas, desired))
        obs = self.sim.obs
        if obs.enabled and desired != self.last_desired:
            # Decision series: one point per *change* of the clamped target,
            # so the gauge reads as the autoscaler's step function.
            obs.gauge(now_ms, "autoscaler_target", desired, pool=self.name)
            self.last_desired = desired
        active = self.active
        events = self.sim.events
        provisioned = len(active) + len(self.boots)
        if desired > provisioned:
            delay = max(float(autoscaler.provision_delay_ms), 1e-6)
            for _ in range(desired - provisioned):
                self.boots.append(events.push(now_ms + delay, BOOT,
                                              (self, None)))
        elif desired < len(active):
            for event in self.boots:
                events.cancel(event)
            self.boots.clear()
            for entry in sorted(active,
                                key=_newest_first)[:len(active) - desired]:
                self.fleet.drain(entry, now_ms)
                self.draining += 1
            self.refresh_active()

    def boot(self, event: Event, now_ms: float) -> None:
        """A scale-out boot completed: bring its member online."""
        self.boots.remove(event)
        self.add(self.spawn(*self.scale_out(self.fleet.next_ordinal()),
                            now_ms))

    # ---------------------------------------------------------------- faults
    def crash(self, fault: Any, now_ms: float) -> None:
        """Force-retire the oldest active member; requeue its queued work.

        The victim goes through the drain path, so whatever it already has
        in flight is salvaged and it retires once that finishes.  Its queued
        items requeue to the survivors through the balancer (tenant rank
        order preserved) and its hardware boots back ``fault.down_ms`` later
        (the outage subsumes provisioning).  The last active member never
        crashes, so conservation holds by construction.
        """
        active = self.active
        if len(active) < 2:
            return
        victim = min(active, key=_replica_id)
        self.fleet.drain(victim, now_ms)
        self.draining += 1
        self.refresh_active()
        orphans = victim.take_queue()
        self.crashes += 1
        self._stock.append((victim.hardware, victim.profile))
        self.sim.events.push(now_ms + fault.down_ms, RECOVER, (self, fault))
        self.wake(victim)  # retire once its in-flight work finishes
        if orphans:
            obs = self.sim.obs
            for item in orphans:
                entry = self.route(item, now_ms)
                if obs.enabled:
                    obs.annotate(entry.item_id(item), requeued=True)
            self.requeued += len(orphans)

    def recover(self, now_ms: float) -> None:
        """Boot a replacement for the oldest still-unrecovered crash (with
        fresh state: a crash loses queues and caches alike)."""
        hardware, profile = self._stock.pop(0)
        self.add(self.spawn(hardware, profile, now_ms))
        self.recoveries += 1

    # ---------------------------------------------------------------- gauges
    def sample_gauges(self, now_ms: float) -> None:
        """Emit the pool's gauges: queue depth, busy units, active members
        and (when any member has a cache model) KV-cache bytes in use."""
        obs = self.sim.obs
        depth = 0
        busy = 0
        kv_bytes = 0.0
        kv_any = False
        for entry in self.serving:
            depth += len(entry.queue)
            busy += entry.busy_units(now_ms)
            kv = entry.kv
            if kv is not None:
                kv_any = True
                kv_bytes += kv.used_bytes()
        name = self.name
        obs.gauge(now_ms, "queue_depth", depth, pool=name)
        obs.gauge(now_ms, self.fleet.busy_gauge, busy, pool=name)
        obs.gauge(now_ms, "active_replicas", len(self.active), pool=name)
        if kv_any:
            obs.gauge(now_ms, "kv_used_bytes", kv_bytes, pool=name)

    def queued_ids(self) -> Iterator[int]:
        """Ids of every item queued on a serving member."""
        for entry in self.serving:
            item_id = entry.item_id
            for item in entry.queue:
                yield item_id(item)


class FleetRun(SimPlatform):
    """A kernel run that routes one arrival trace into replica pools.

    Owns the arrival cursor (the external event the heap does not track),
    the admission phase, the default termination test — no arrivals left
    and no member of any pool holding work — fault-event wiring and every
    pool event.  Subclasses build ``self.pools`` and implement ``step``;
    one with event kinds of its own handles them in ``on_event`` and
    defers the rest here.
    """

    def __init__(self, pending: List[Any], start_ms: float, obs: Any,
                 tenant_runtime: Any = None) -> None:
        super().__init__(start_ms)
        self.install_obs(obs, start_ms)
        self.pending = pending
        self.arrival_times = [item.arrival_ms for item in pending]
        self.num_items = len(pending)
        self.next_arrival = 0
        self.tenant_runtime = tenant_runtime
        self.pools: Tuple[PoolState, ...] = ()

    def arm_faults(self, faults: Any,
                   target: Callable[[Any], PoolState]) -> None:
        """Register one crash event per fault on the pool ``target`` picks."""
        for fault in faults or ():
            # A crash scheduled before the first arrival fires with it.
            self.events.push(max(fault.crash_ms, self.clock.now_ms), CRASH,
                             (target(fault), fault))

    def stamp(self, metrics: Any) -> None:
        """Record the finished run's fault counters (summed over its pools)
        and kernel schedule counters on its metrics."""
        pools = self.pools
        metrics.crashes = sum(pool.crashes for pool in pools)
        metrics.recoveries = sum(pool.recoveries for pool in pools)
        metrics.requeued = sum(pool.requeued for pool in pools)
        metrics.kernel_stats = self.events.stats()

    # --------------------------------------------------------- kernel contract
    def done(self, now_ms: float) -> bool:
        if self.next_arrival < self.num_items:
            return False
        for pool in self.pools:
            for entry in pool.serving:
                if entry.has_work(now_ms):
                    return False
        return True

    def next_external_ms(self, now_ms: float) -> Optional[float]:
        if self.next_arrival < self.num_items:
            return self.arrival_times[self.next_arrival]
        return None

    def on_event(self, event: Event) -> None:
        """Fire a pool event: a member wake-up or KV eviction, a boot, a
        crash or a recovery."""
        pool, arg = event.payload
        kind = event.kind
        if kind == WAKE:
            pool.wake(arg)
        elif kind == EVICT:
            pool.evict(arg, self.clock.now_ms)
        elif kind == BOOT:
            pool.boot(event, self.clock.now_ms)
        elif kind == CRASH:
            pool.crash(arg, self.clock.now_ms)
        else:
            pool.recover(self.clock.now_ms)

    # --------------------------------------------------------------- phases
    def admit_arrivals(self, pool: PoolState, now_ms: float) -> int:
        """Route every arrival due by ``now_ms`` into ``pool``.

        Returns the number admitted (fed to the pool's autoscaler as one
        admission wave).
        """
        next_arrival = self.next_arrival
        arrivals = self.arrival_times
        num_items = self.num_items
        if next_arrival >= num_items or arrivals[next_arrival] > now_ms + 1e-9:
            return 0
        pending = self.pending
        obs = self.obs
        first = next_arrival
        while next_arrival < num_items and arrivals[next_arrival] <= now_ms + 1e-9:
            item = pending[next_arrival]
            entry = pool.route(item, now_ms)
            entry.dispatched += 1
            if obs.enabled:
                self.trace_arrival(item, entry, pool)
            next_arrival += 1
        self.next_arrival = next_arrival
        admitted = next_arrival - first
        pool.autoscaler.observe_admitted(admitted, now_ms)
        return admitted

    def trace_arrival(self, item: Any, entry: Any, pool: PoolState) -> None:
        """Open an admitted sequence's span and tag its tenant."""
        sid = item.sequence_id
        obs = self.obs
        obs.admit(sid, item.arrival_ms, kind="sequence", pool=pool.name,
                  replica=entry.replica_id)
        runtime = self.tenant_runtime
        if runtime is not None:
            obs.annotate(sid, tenant=runtime.tenant_of.get(sid))

    # ---------------------------------------------------------------- gauges
    def sample_gauges(self, now_ms: float) -> None:
        """Single-pool runs: the pool's gauges, then its tenant backlog."""
        (pool,) = self.pools
        pool.sample_gauges(now_ms)
        self.sample_tenant_backlog(now_ms, pool.name)

    def sample_tenant_backlog(self, now_ms: float,
                              label: Optional[str] = None) -> None:
        """Queued items per tenant over every pool (tenancy runs only)."""
        runtime = self.tenant_runtime
        if runtime is None:
            return
        backlog = tenant_backlog(
            (item_id for pool in self.pools for item_id in pool.queued_ids()),
            runtime.tenant_of)
        for tenant, count in backlog.items():
            self.obs.gauge(now_ms, "tenant_backlog", count, pool=label,
                           tenant=tenant)


def _replica_id(entry: Any) -> int:
    return entry.replica_id


def _newest_first(entry: Any) -> int:
    return -entry.replica_id
