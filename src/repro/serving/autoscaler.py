"""Pluggable cluster autoscalers: grow/shrink the fleet from load signals.

An :class:`Autoscaler` is evaluated by the cluster event loop **on the global
clock**: after every admission wave the loop asks for the desired number of
active replicas, clamps it to the cluster's ``[min_replicas, max_replicas]``
band, and applies the decision through the fleet lifecycle — scale-out
provisions a new replica after ``provision_delay_ms`` (machines don't boot
instantly), scale-in *drains* the newest replica (it finishes queued and
in-flight work but receives no new dispatches; see
:meth:`~repro.serving.pool.PoolState.drain`).

Policies
--------
``none``
    Fixed fleet — always keep the current size.  The default, and the exact
    PR 1 behaviour.
``reactive``
    Queue-depth / SLO-headroom hysteresis.  Scale out when the mean jobs in
    system per replica crosses a high watermark (or, with an SLO configured,
    when even the least-loaded replica's expected wait eats the SLO headroom);
    scale in below a low watermark.  A cooldown between actions plus the
    watermark gap provides the hysteresis that stops flapping.
``predictive``
    Arrival-rate EWMA.  Folds admissions into an exponentially weighted
    estimate of the arrival rate and provisions
    ``ceil(rate / (per_replica_capacity * target_utilization))`` replicas,
    where capacity comes from the replicas' own latency profiles.  Leads the
    queue signal: it scales on the *cause* (arrivals) instead of the
    *symptom* (queueing).

Observability
-------------
Scaling decisions are visible without touching the policies: every clamped
target the event loop applies is emitted as the ``autoscaler_target`` gauge
(de-duplicated — one sample per *change* of target, tagged with the pool it
sizes), and the ``fleet_size``/``active_replicas`` gauges show the fleet
actually following it after ``provision_delay_ms`` and drains.  See
:meth:`repro.serving.pool.PoolState.scale` and
:mod:`repro.obs`.
"""

from __future__ import annotations

import abc
import math
from typing import Optional, Sequence, Union

__all__ = ["Autoscaler", "FixedAutoscaler", "ReactiveAutoscaler",
           "PredictiveAutoscaler", "build_autoscaler",
           "canonical_autoscaler_name", "AUTOSCALER_NAMES"]


class Autoscaler(abc.ABC):
    """Sizing policy: how many replicas should be active right now?"""

    name: str = "abstract"
    #: delay between a scale-out decision and the replica coming online.
    provision_delay_ms: float = 0.0
    #: replica band of the owning platform (None until ``set_bounds``); lets
    #: stateful policies recognise proposals the platform would clamp to a
    #: no-op, so they don't burn their cooldown on them.
    _min_replicas: Optional[int] = None
    _max_replicas: Optional[int] = None

    def reset(self) -> None:
        """Clear decision state before a fresh run (default: nothing)."""

    def set_bounds(self, min_replicas: Optional[int],
                   max_replicas: Optional[int]) -> None:
        """Tell the policy the platform's replica band.

        The run loop calls this once per run (after :meth:`reset`).  Policies
        constructed and evaluated standalone — without a platform — keep the
        historical behaviour of treating every proposal as actionable.
        """
        self._min_replicas = min_replicas
        self._max_replicas = max_replicas

    def _clamp(self, desired: int) -> int:
        """Project a proposal onto the platform band (identity without one)."""
        if self._min_replicas is not None and desired < self._min_replicas:
            desired = self._min_replicas
        if self._max_replicas is not None and desired > self._max_replicas:
            desired = self._max_replicas
        return desired

    def observe_admitted(self, count: int, now_ms: float) -> None:
        """Feed one admission wave (``count`` arrivals at ``now_ms``)."""

    @abc.abstractmethod
    def desired_replicas(self, now_ms: float, replicas: Sequence) -> int:
        """Desired number of ACTIVE replicas given the live handles.

        ``replicas`` holds the pool's active
        :class:`~repro.serving.fleet.Replica` members (the resource view);
        the pool clamps the returned value to its replica band, so policies
        may return any non-negative integer.
        """


class FixedAutoscaler(Autoscaler):
    """No scaling: the fleet keeps whatever size it currently has."""

    name = "none"

    def desired_replicas(self, now_ms: float, replicas: Sequence) -> int:
        return len(replicas)


class ReactiveAutoscaler(Autoscaler):
    """Queue-depth / SLO-headroom hysteresis with cooldown.

    Parameters
    ----------
    scale_out_load:
        High watermark on mean jobs in system per active replica.
    scale_in_load:
        Low watermark; the gap to ``scale_out_load`` is the hysteresis band.
    slo_ms / slo_headroom:
        Optional SLO pressure signal: scale out when even the least-loaded
        replica's expected wait exceeds ``slo_headroom * slo_ms`` (queueing is
        about to eat the entire latency budget).
    cooldown_ms:
        Minimum time between consecutive scaling actions.
    provision_delay_ms:
        Boot time of a scaled-out replica.
    step:
        Replicas added/removed per action.
    """

    name = "reactive"

    def __init__(self, scale_out_load: float = 4.0, scale_in_load: float = 0.5,
                 slo_ms: Optional[float] = None, slo_headroom: float = 0.8,
                 cooldown_ms: float = 2000.0, provision_delay_ms: float = 250.0,
                 step: int = 1) -> None:
        if scale_in_load >= scale_out_load:
            raise ValueError(f"scale_in_load ({scale_in_load}) must be below "
                             f"scale_out_load ({scale_out_load}) for hysteresis")
        if cooldown_ms < 0 or provision_delay_ms < 0:
            raise ValueError("cooldown_ms and provision_delay_ms must be >= 0")
        if step < 1:
            raise ValueError(f"step must be >= 1, got {step}")
        self.scale_out_load = float(scale_out_load)
        self.scale_in_load = float(scale_in_load)
        self.slo_ms = None if slo_ms is None else float(slo_ms)
        self.slo_headroom = float(slo_headroom)
        self.cooldown_ms = float(cooldown_ms)
        self.provision_delay_ms = float(provision_delay_ms)
        self.step = int(step)
        self._last_action_ms = -math.inf

    def reset(self) -> None:
        self._last_action_ms = -math.inf

    def desired_replicas(self, now_ms: float, replicas: Sequence) -> int:
        n = len(replicas)
        if n == 0:
            return 1
        if now_ms - self._last_action_ms < self.cooldown_ms:
            return n
        mean_load = sum(h.jobs_in_system(now_ms) for h in replicas) / n
        overloaded = mean_load > self.scale_out_load
        if not overloaded and self.slo_ms is not None:
            # Even the best replica would queue a new arrival past the SLO
            # headroom: the fleet is too small regardless of queue counts.
            best_wait = min(h.work_left_ms(now_ms) for h in replicas)
            overloaded = best_wait > self.slo_headroom * self.slo_ms
        if overloaded:
            desired = n + self.step
            # Only a proposal the platform can act on costs a cooldown: at
            # the max-replica boundary the clamp turns it into a no-op, and
            # stamping there would delay the next genuine action.
            if self._clamp(desired) != n:
                self._last_action_ms = now_ms
            return desired
        if mean_load < self.scale_in_load:
            desired = n - self.step
            if self._clamp(desired) != n:
                self._last_action_ms = now_ms
            return desired
        return n


class PredictiveAutoscaler(Autoscaler):
    """Provision from an EWMA of the arrival rate (scale on cause, not symptom).

    Admissions are folded into per-``window_ms`` rate samples smoothed with
    factor ``alpha``; the desired size is the smallest fleet that serves the
    estimated rate at ``target_utilization``, using per-replica capacity read
    from the replicas' latency profiles (or ``service_time_ms`` as a
    fallback for profile-less platforms).
    """

    name = "predictive"

    def __init__(self, alpha: float = 0.3, window_ms: float = 1000.0,
                 target_utilization: float = 0.75,
                 service_time_ms: Optional[float] = None,
                 cooldown_ms: float = 2000.0,
                 provision_delay_ms: float = 250.0) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if window_ms <= 0:
            raise ValueError(f"window_ms must be positive, got {window_ms}")
        if not 0.0 < target_utilization <= 1.0:
            raise ValueError(f"target_utilization must be in (0, 1], "
                             f"got {target_utilization}")
        if cooldown_ms < 0 or provision_delay_ms < 0:
            raise ValueError("cooldown_ms and provision_delay_ms must be >= 0")
        self.alpha = float(alpha)
        self.window_ms = float(window_ms)
        self.target_utilization = float(target_utilization)
        self.service_time_ms = None if service_time_ms is None else float(service_time_ms)
        self.cooldown_ms = float(cooldown_ms)
        self.provision_delay_ms = float(provision_delay_ms)
        self.reset()

    def reset(self) -> None:
        self._ewma_qps: Optional[float] = None
        self._window_start_ms: Optional[float] = None
        self._window_count = 0
        self._last_action_ms = -math.inf

    def observe_admitted(self, count: int, now_ms: float) -> None:
        if self._window_start_ms is None:
            self._window_start_ms = now_ms
        self._fold_to(now_ms)
        self._window_count += count

    def _fold_to(self, now_ms: float) -> None:
        # Fold every full window between the last sample and now (idle windows
        # contribute zero-rate samples, so the estimate decays during lulls).
        if self._window_start_ms is None:
            return
        while now_ms - self._window_start_ms >= self.window_ms:
            rate_qps = 1000.0 * self._window_count / self.window_ms
            self._ewma_qps = rate_qps if self._ewma_qps is None else \
                self.alpha * rate_qps + (1.0 - self.alpha) * self._ewma_qps
            self._window_count = 0
            self._window_start_ms += self.window_ms

    def _per_replica_qps(self, replicas: Sequence) -> Optional[float]:
        rates = []
        for handle in replicas:
            full = handle.max_batch_size
            batch_ms = handle.predicted_batch_time_ms(full)
            if batch_ms is None:
                if self.service_time_ms is None:
                    continue
                batch_ms = self.service_time_ms / handle.profile.speed
                full = 1
            if batch_ms > 0:
                rates.append(1000.0 * full / batch_ms)
        if not rates:
            return None
        return sum(rates) / len(rates)

    def desired_replicas(self, now_ms: float, replicas: Sequence) -> int:
        n = len(replicas)
        if n == 0:
            return 1
        # The run loop only calls observe_admitted on admission waves, so an
        # arrival lull would otherwise freeze the estimate at its last value;
        # fold the elapsed idle windows here too so the rate genuinely decays
        # and the fleet scales in during troughs.
        self._fold_to(now_ms)
        if self._ewma_qps is None or now_ms - self._last_action_ms < self.cooldown_ms:
            return n
        capacity = self._per_replica_qps(replicas)
        if capacity is None or capacity <= 0:
            return n
        desired = max(1, math.ceil(self._ewma_qps
                                   / (capacity * self.target_utilization)))
        if self._clamp(desired) != n:
            self._last_action_ms = now_ms
        return desired


_AUTOSCALERS = {
    "none": lambda: FixedAutoscaler(),
    "reactive": lambda: ReactiveAutoscaler(),
    "predictive": lambda: PredictiveAutoscaler(),
}

_ALIASES = {
    "off": "none",
    "fixed": "none",
    "static": "none",
    "queue": "reactive",
    "ewma": "predictive",
}

AUTOSCALER_NAMES = tuple(sorted(_AUTOSCALERS))


def canonical_autoscaler_name(name: Union[str, Autoscaler]) -> str:
    """Resolve an autoscaler name or alias to its canonical registry key.

    Raises :class:`ValueError` naming the offending value when the name is
    unknown — shared by ``build_autoscaler``, the cluster spec and the CLI so
    every layer reports the same error.
    """
    if isinstance(name, Autoscaler):
        return name.name
    key = str(name).lower().replace("-", "_")
    key = _ALIASES.get(key, key)
    if key not in _AUTOSCALERS:
        raise ValueError(f"unknown autoscaler {name!r}; "
                         f"choose from {AUTOSCALER_NAMES}")
    return key


def build_autoscaler(name: Union[str, Autoscaler, None], **kwargs) -> Autoscaler:
    """Construct an autoscaler by name (``none``, ``reactive``, ``predictive``).

    ``None`` selects the fixed policy; instances pass through unchanged.
    Keyword arguments are forwarded to the policy constructor.
    """
    if name is None:
        name = "none"
    if isinstance(name, Autoscaler):
        return name
    key = canonical_autoscaler_name(name)
    if kwargs:
        factory = {"none": FixedAutoscaler, "reactive": ReactiveAutoscaler,
                   "predictive": PredictiveAutoscaler}[key]
        return factory(**kwargs)
    return _AUTOSCALERS[key]()
