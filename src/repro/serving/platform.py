"""Base event-driven serving platform.

A platform owns the request queue and the (single) accelerator of one model
replica.  Its job is batching policy: decide *when* to drain queued requests
and *how many* to serve together.  The actual forward pass is delegated to an
executor callback so that the same platform code serves vanilla models,
Apparate-managed models and the baselines.

The executor receives the formed batch and must return the accelerator
occupancy time plus, for every request in the batch, the offset (from batch
start) at which its *result* is released and bookkeeping about exits.  For a
vanilla model every result is released when the batch finishes.

A platform has no event loop of its own: the ``admit`` / ``expire`` /
``select`` / ``dispatch`` / ``complete`` phases operate on an explicit
:class:`ReplicaState`, and the fleet runner of
:class:`~repro.serving.cluster.ClusterPlatform` steps every replica's phases
on the kernel's global clock — a single replica is a fleet of one.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Set, Tuple

import numpy as np

from repro.models.execution import ModelExecutor
from repro.obs.recorder import NULL_RECORDER
from repro.serving.metrics import ServingMetrics
from repro.serving.request import Request, Response

__all__ = ["BatchResult", "BatchExecutorFn", "ReplicaState", "ServingPlatform",
           "VanillaExecutor"]


@dataclass
class BatchResult:
    """What an executor reports back for one batch."""

    gpu_time_ms: float
    #: per-request offset (from batch start) at which the result is released.
    result_offsets_ms: List[float]
    #: per-request exit flags (False for vanilla serving).
    exited: List[bool] = field(default_factory=list)
    #: per-request exit depths (None when not exited).
    exit_depths: List[Optional[float]] = field(default_factory=list)
    #: per-request agreement with the original model's prediction.
    correct: List[bool] = field(default_factory=list)

    def __post_init__(self) -> None:
        n = len(self.result_offsets_ms)
        for name in ("exited", "exit_depths", "correct"):
            values = getattr(self, name)
            if values and len(values) != n:
                raise ValueError(
                    f"BatchResult.{name} has {len(values)} entries for a batch of "
                    f"{n} results; per-request fields must match result_offsets_ms")
        if not self.exited:
            self.exited = [False] * n
        if not self.exit_depths:
            self.exit_depths = [None] * n
        if not self.correct:
            self.correct = [True] * n


class BatchExecutorFn(Protocol):
    """Signature executors must implement."""

    def __call__(self, batch: Sequence[Request], batch_start_ms: float) -> BatchResult:
        ...  # pragma: no cover - protocol definition


class VanillaExecutor:
    """Executor serving the original model without any ramps."""

    def __init__(self, executor: ModelExecutor) -> None:
        self.executor = executor

    def __call__(self, batch: Sequence[Request], batch_start_ms: float) -> BatchResult:
        gpu_time = self.executor.vanilla_batch_time_ms(len(batch))
        return BatchResult(gpu_time_ms=gpu_time,
                           result_offsets_ms=[gpu_time] * len(batch))


@dataclass
class ReplicaState:
    """Mutable serving state of one replica's queue and accelerator.

    The fleet runner owns one per replica and steps them on a shared clock.
    ``responded_ids`` guards the conservation invariant: every request is
    answered (served or dropped) exactly once.
    """

    queue: List[Request] = field(default_factory=list)
    metrics: ServingMetrics = field(default_factory=ServingMetrics)
    #: time at which the accelerator finishes its current batch.
    busy_until_ms: float = -np.inf
    #: arrival time of the first request routed to this replica.
    first_arrival_ms: Optional[float] = None
    #: time of the last completion or drop on this replica.
    last_event_ms: float = -np.inf
    #: size of the batch currently occupying the accelerator (until busy_until_ms).
    serving_batch_size: int = 0
    responded_ids: Set[int] = field(default_factory=set)
    #: replica ordinal stamped onto recorded spans.
    obs_replica: int = 0

    def queue_length(self) -> int:
        return len(self.queue)

    def idle_at(self, now_ms: float) -> bool:
        return self.busy_until_ms <= now_ms + 1e-9

    def finalize_makespan(self) -> None:
        """Stamp the replica's metrics with its observed wall-clock span."""
        if self.first_arrival_ms is None or not np.isfinite(self.last_event_ms):
            return
        self.metrics.makespan_ms = max(self.last_event_ms - self.first_arrival_ms, 1e-9)


class ServingPlatform(abc.ABC):
    """Common machinery of the event-driven platform simulators.

    Subclasses implement :meth:`select_batch`, which inspects the queue and
    the current time and returns either a batch to serve now or the time at
    which the platform wants to be woken up again (to wait for more requests).
    """

    def __init__(self, max_batch_size: int = 16, drop_expired: bool = False) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        self.max_batch_size = int(max_batch_size)
        self.drop_expired = bool(drop_expired)
        #: Span hooks; the shared no-op recorder unless a run installs one.
        self.obs = NULL_RECORDER

    # ------------------------------------------------------------ batch policy
    @abc.abstractmethod
    def select_batch(self, queue: List[Request], now_ms: float) -> Tuple[List[Request], float]:
        """Return (batch, wake_up_time).

        An empty batch with a finite wake-up time means "wait"; an empty batch
        with ``wake_up <= now`` must never be returned when the queue is
        non-empty (the fleet runner guards against livelock by forcing
        progress).
        """

    def predicted_batch_time_ms(self, batch_size: int) -> Optional[float]:
        """Estimated accelerator time for a batch, or None without a latency model.

        Load balancers use this to translate queue depth into expected work
        (the ``least_work_left`` policy); platforms without a profile fall
        back to queue-length comparisons.
        """
        return None

    # ------------------------------------------------------------ event phases
    def new_state(self) -> ReplicaState:
        """Fresh per-replica state for one serving run."""
        return ReplicaState()

    def admit(self, state: ReplicaState, request: Request) -> None:
        """Phase 1: a request arrives (or is routed here) and joins the queue."""
        if state.first_arrival_ms is None or request.arrival_ms < state.first_arrival_ms:
            state.first_arrival_ms = request.arrival_ms
        state.queue.append(request)
        obs = self.obs
        if obs.enabled:
            # Idempotent: a crash-requeued request keeps its original span
            # and is annotated with the reroute by the cluster runner.
            obs.admit(request.request_id, request.arrival_ms, pool="serve",
                      replica=state.obs_replica)

    def expire(self, state: ReplicaState, now_ms: float) -> None:
        """Phase 2: drop queued requests whose SLO already expired.

        Each dropped request is recorded exactly once (``responded_ids``) and
        removed from the queue, so it can never also be served.
        """
        if not self.drop_expired:
            return
        still_valid: List[Request] = []
        for request in state.queue:
            if now_ms > request.deadline_ms():
                if request.request_id in state.responded_ids:
                    continue
                state.responded_ids.add(request.request_id)
                state.metrics.record_drop(request, now_ms)
                state.last_event_ms = max(state.last_event_ms, now_ms)
                obs = self.obs
                if obs.enabled:
                    obs.phase(request.request_id, "queue", request.arrival_ms,
                              now_ms, replica=state.obs_replica)
                    obs.close(request.request_id, now_ms, outcome="dropped")
            else:
                still_valid.append(request)
        state.queue = still_valid

    def select(self, state: ReplicaState, now_ms: float) -> Tuple[List[Request], float]:
        """Phase 3: ask the batching policy what to serve (or when to wake)."""
        return self.select_batch(state.queue, now_ms)

    def force_batch(self, state: ReplicaState) -> List[Request]:
        """Livelock guard: nothing left to wait for, serve what we have."""
        return state.queue[: self.max_batch_size]

    def dispatch(self, state: ReplicaState, batch: Sequence[Request]) -> None:
        """Phase 4: move a selected batch out of the queue onto the accelerator."""
        batch_ids = {r.request_id for r in batch}
        state.queue = [r for r in state.queue if r.request_id not in batch_ids]

    def complete(self, state: ReplicaState, batch: Sequence[Request],
                 result: BatchResult, start_ms: float) -> None:
        """Phase 5: record the executor's outcome for one batch."""
        state.metrics.add_batch(result.gpu_time_ms)
        responded = state.responded_ids
        for request in batch:
            request_id = request.request_id
            if request_id in responded:
                raise RuntimeError(
                    f"request {request_id} answered twice (conservation violation)")
            responded.add(request_id)
        state.metrics.record_batch(batch, result, start_ms)
        state.busy_until_ms = start_ms + result.gpu_time_ms
        state.serving_batch_size = len(batch)
        state.last_event_ms = max(state.last_event_ms, state.busy_until_ms)
        obs = self.obs
        if obs.enabled:
            # Span timestamps are exactly the values record_batch stored:
            # queue = arrival → batch start, serve = start → release, so the
            # closed span reconciles bit-for-bit with the metrics columns.
            replica = state.obs_replica
            batch_size = len(batch)
            for i, request in enumerate(batch):
                request_id = request.request_id
                release = start_ms + result.result_offsets_ms[i]
                obs.phase(request_id, "queue", request.arrival_ms, start_ms,
                          replica=replica)
                obs.phase(request_id, "serve", start_ms, release,
                          replica=replica)
                obs.close(request_id, release, outcome="served",
                          exited=bool(result.exited[i]),
                          batch_size=batch_size)
