"""Heap-scheduled discrete-event kernel shared by every serving platform.

The three fleet simulators (:mod:`repro.serving.cluster`,
:mod:`repro.serving.generative_cluster`, :mod:`repro.serving.disagg`) used to
advance time the same hand-rolled way: at every timestamp they re-scanned
every replica, collected candidate wake times into a list, filtered the
finite future ones and set ``now = min(future)``.  That is O(replicas)
bookkeeping per visited timestamp even when nothing changed, and the three
copies had to be kept phase-for-phase in sync by hand.

This module factors the shared machinery into a small discrete-event kernel
in the style of event-driven flow-level network simulators:

:class:`EventQueue`
    A binary heap of :class:`Event` records ordered by ``(time_ms, seq)``.
    The monotonically increasing sequence number makes same-time events pop
    in registration order, so the schedule is fully deterministic.
    Cancellation is lazy (an ``Event`` is flagged and skipped when it
    surfaces), which keeps ``cancel`` O(1).

:class:`Clock`
    The shared simulation clock.  Only :meth:`SimPlatform.drive` advances it.

:class:`SimPlatform`
    The pass/advance skeleton every platform runs on.  A subclass implements

    * :meth:`step` — one fixpoint pass over the phases of its control plane
      (admissions, autoscaling, serving, retirement) at the current
      timestamp, returning whether anything progressed;
    * :meth:`on_event` — react to one due event (typically by waking the
      replica the event belongs to);
    * :meth:`done` — the run's termination condition;
    * :meth:`next_external_ms` — the next event the heap does not know about
      (the arrival cursor into a pre-sorted trace, a handoff-queue head).

    :meth:`drive` then repeats the seed loops' exact visiting discipline:
    run ``step`` passes at the current timestamp until a pass makes no
    progress (checking ``done`` before every pass, exactly like the seed
    loops re-checked their ``while`` condition after every ``continue``),
    advance the clock to the earliest future event, fire everything due at
    the new timestamp, and repeat.  Because the heap holds precisely the
    wake times the seed loops used to collect — batch completions, policy
    timers, replica boots, decode-slot frees — the kernel visits the same
    timestamps in the same order and reproduces the seed metrics
    bit-for-bit, while doing O(changed replicas) work per visit instead of
    O(fleet).

Event ordering guarantees
-------------------------
* Events fire strictly in ``(time_ms, seq)`` order; ties in time fire in
  registration order.
* All events due at a timestamp (within the loops' shared ``1e-9`` epsilon)
  fire *before* the first ``step`` pass at that timestamp — the analogue of
  the seed loops' "phase 0" boot handling.
* ``step`` passes repeat at one timestamp until a pass reports no progress;
  state changes made by a pass are visible to the next pass at the same
  timestamp (the seed loops' ``continue``-on-progress fixpoint).
* A timer whose condition changed (queue grew, batch dispatched) must be
  cancelled or re-armed by the subclass; the kernel never fires a cancelled
  event, so the set of visited timestamps stays exactly the seed set.

Timer discipline required of batching policies: a policy that returns
``(no batch, wake_up)`` is re-consulted only when its replica's queue
changes or ``wake_up`` arrives.  Both shipped policies satisfy this
(``tfserve`` wakes at ``oldest.arrival + timeout``, a pure function of the
queue; ``clockwork`` never waits), as must any future ``select_batch``.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Dict, List, Optional

from repro.obs.recorder import NULL_RECORDER

__all__ = ["Event", "EventQueue", "Clock", "SimPlatform"]


class Event:
    """One scheduled occurrence: ``(time_ms, seq)``-ordered, lazily cancellable.

    ``kind`` is a small subclass-defined integer tag (boot, completion,
    timer, slot-free, ...) and ``payload`` whatever the subclass needs to
    route the event — usually the replica entry it should wake.
    """

    __slots__ = ("time_ms", "seq", "kind", "payload", "cancelled")

    def __init__(self, time_ms: float, seq: int, kind: int, payload: Any) -> None:
        self.time_ms = time_ms
        self.seq = seq
        self.kind = kind
        self.payload = payload
        self.cancelled = False

    def __lt__(self, other: "Event") -> bool:
        if self.time_ms != other.time_ms:
            return self.time_ms < other.time_ms
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time_ms}, seq={self.seq}, kind={self.kind}{flag})"


class EventQueue:
    """Deterministic binary-heap schedule of :class:`Event` records.

    Cancellation is lazy — O(1) — but no longer unbounded: policies that
    re-arm a timer on every queue change (tfserve batching, autoscaler
    probes) can cancel far more events than they ever let fire, and on long
    traces the dead records would dominate the heap and every ``heappush``
    would pay their log factor.  :meth:`cancel` therefore counts dead
    records and opportunistically compacts the heap — drop cancelled
    entries, ``heapify`` the survivors — once they exceed half the heap.
    Compaction never touches event identity: the surviving records keep
    their ``(time_ms, seq)`` keys, and a heap of them pops in exactly the
    same total order as the uncompacted heap, so schedules are unchanged
    bit-for-bit.
    """

    __slots__ = ("_heap", "_seq", "_cancelled", "fired", "cancelled_total",
                 "compactions", "peak_size")

    #: Never bother compacting heaps smaller than this: rebuild cost would
    #: rival the lazy-skip cost it saves.
    COMPACT_MIN = 64

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._seq = 0
        self._cancelled = 0
        self.fired = 0
        self.cancelled_total = 0
        self.compactions = 0
        self.peak_size = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, time_ms: float, kind: int, payload: Any = None) -> Event:
        """Register an event; returns the handle used for cancellation."""
        event = Event(time_ms, self._seq, kind, payload)
        self._seq += 1
        heappush(self._heap, event)
        if len(self._heap) > self.peak_size:
            self.peak_size = len(self._heap)
        return event

    def cancel(self, event: Event) -> None:
        """Mark an event dead; it is skipped when it reaches the heap top.

        Compacts the heap when cancelled records exceed half of it (and the
        heap is big enough to matter), bounding heap growth under heavy
        timer re-arming at ~2× the live event count.
        """
        if event.cancelled:
            return
        event.cancelled = True
        self._cancelled += 1
        self.cancelled_total += 1
        if self._cancelled >= self.COMPACT_MIN \
                and self._cancelled * 2 >= len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled records and re-heapify the survivors in place."""
        self._heap = [e for e in self._heap if not e.cancelled]
        heapify(self._heap)
        self._cancelled = 0
        self.compactions += 1

    def next_time(self) -> Optional[float]:
        """Earliest pending event time, or ``None`` when the heap is empty.

        Cancelled records surfacing at the top are discarded here so the
        advance decision never sees a dead event.
        """
        heap = self._heap
        while heap:
            top = heap[0]
            if top.cancelled:
                heappop(heap)
                if self._cancelled:
                    self._cancelled -= 1
            else:
                return top.time_ms
        return None

    def pop_due(self, now_ms: float) -> List[Event]:
        """Pop every live event due at ``now_ms`` (within the shared epsilon)."""
        due: List[Event] = []
        heap = self._heap
        limit = now_ms + 1e-9
        while heap and heap[0].time_ms <= limit:
            event = heappop(heap)
            if not event.cancelled:
                due.append(event)
            elif self._cancelled:
                self._cancelled -= 1
        self.fired += len(due)
        return due

    def stats(self) -> Dict[str, int]:
        """Lifetime schedule counters for ``RunResult.details['kernel']``.

        ``pushed`` is every event ever registered, ``fired`` the ones that
        actually ran, ``cancelled`` the ones killed before firing,
        ``compactions`` how often the heap was rebuilt to shed dead records,
        and ``peak_heap`` the largest live+dead heap ever held.
        """
        return {
            "pushed": self._seq,
            "fired": self.fired,
            "cancelled": self.cancelled_total,
            "compactions": self.compactions,
            "peak_heap": self.peak_size,
        }


class Clock:
    """The shared simulation clock; advanced only by :meth:`SimPlatform.drive`."""

    __slots__ = ("now_ms",)

    def __init__(self, start_ms: float = 0.0) -> None:
        self.now_ms = start_ms


class SimPlatform:
    """Base of the kernel-scheduled platforms: clock, heap and drive loop.

    Subclass responsibilities:

    * call :meth:`EventQueue.push` when a future occurrence is scheduled and
      :meth:`EventQueue.cancel` when its condition changes;
    * keep per-pool dirty sets (:class:`~repro.serving.pool.PoolState`) so
      :meth:`step` touches only the replicas whose state changed since the
      last pass;
    * keep :meth:`step`'s phase order identical to the seed loop it ports.
    """

    def __init__(self, start_ms: float = 0.0) -> None:
        self.clock = Clock(start_ms)
        self.events = EventQueue()
        #: Observability hooks; the shared no-op unless a runner installs a
        #: live :class:`~repro.obs.recorder.TraceRecorder`.
        self.obs = NULL_RECORDER
        self._gauge_next_ms: Optional[float] = None
        self._gauge_interval_ms: Optional[float] = None

    # ------------------------------------------------- subclass contract
    def step(self, now_ms: float) -> bool:
        """One fixpoint pass at ``now_ms``; return whether anything progressed."""
        raise NotImplementedError

    def on_event(self, event: Event) -> None:
        """React to one due event before the passes at its timestamp run."""
        raise NotImplementedError

    def done(self, now_ms: float) -> bool:
        """Termination condition, checked before every pass (seed parity)."""
        raise NotImplementedError

    def next_external_ms(self, now_ms: float) -> Optional[float]:
        """Next event the heap does not track (arrival cursor, handoff head)."""
        return None

    # ------------------------------------------------------------------ gauges
    def install_obs(self, obs: Any, start_ms: float) -> None:
        """Attach a recorder and arm the periodic fleet-gauge sampler.

        Sampling is driven from :meth:`drive`'s time-advance path, *not* by
        heap events: ticks between the old and new timestamp invoke
        :meth:`sample_gauges` without adding events or extra ``step``
        passes, so the simulated trajectory — and therefore every metric —
        is bit-identical whether observability is on or off.
        """
        self.obs = obs
        interval = obs.gauge_interval_ms
        if obs.enabled and interval is not None:
            self._gauge_interval_ms = float(interval)
            self._gauge_next_ms = start_ms + float(interval)

    def sample_gauges(self, now_ms: float) -> None:
        """Emit one gauge sample set (subclass hook; default does nothing)."""

    def _run_gauges(self, target_ms: float) -> None:
        tick = self._gauge_next_ms
        interval = self._gauge_interval_ms
        while tick is not None and tick <= target_ms:
            self.sample_gauges(tick)
            tick += interval
        self._gauge_next_ms = tick

    # ------------------------------------------------------------------ drive
    def drive(self) -> None:
        """Run the simulation to completion.

        Mirrors the seed loops exactly: fixpoint passes at each timestamp
        (``done`` re-checked before every pass), then one clock advance to
        the earliest of the heap's next event and the external candidate,
        firing everything due at the new time before the next pass.
        """
        clock = self.clock
        events = self.events
        step = self.step
        done = self.done
        while True:
            now = clock.now_ms
            while True:
                if done(now):
                    return
                if not step(now):
                    break
            target = events.next_time()
            external = self.next_external_ms(now)
            if external is not None and (target is None or external < target):
                target = external
            if target is None:
                return  # nothing can happen anymore
            if self._gauge_next_ms is not None and self._gauge_next_ms <= target:
                self._run_gauges(target)
            clock.now_ms = target
            for event in events.pop_due(target):
                self.on_event(event)
