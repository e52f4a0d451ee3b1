"""Request arrival processes.

Four processes cover the paper's setups plus the autoscaling studies:

* :func:`fixed_rate_arrivals` — deterministic inter-arrival times (video
  frames at a fixed fps).
* :func:`poisson_arrivals` — exponential inter-arrival times (generative
  workloads, §4.1).
* :func:`maf_trace_arrivals` — a bursty process emulating Microsoft Azure
  Functions invocation traces: the per-second rate follows a log-normal
  modulated random walk with occasional bursts, and requests within a second
  are spread uniformly.  This reproduces the queueing variability that the
  classification experiments rely on.
* :func:`diurnal_arrivals` — a smooth day/night cycle between a low and a
  high rate (raised-cosine), the canonical workload for fleet autoscaling:
  the right fleet size genuinely changes over the trace.
* :func:`flash_crowd_arrivals` — Poisson baseline with one sudden sustained
  rate spike (a flash crowd hitting the service), the stress shape for
  multi-tenant isolation and failure-injection studies.
* :func:`trace_arrivals` — replay an explicit timestamp array (or a CSV file
  of timestamps), for driving the simulators with recorded traces.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence, Union

import numpy as np

__all__ = ["fixed_rate_arrivals", "poisson_arrivals", "maf_trace_arrivals",
           "diurnal_arrivals", "flash_crowd_arrivals", "trace_arrivals"]


def fixed_rate_arrivals(n: int, rate_qps: float, start_ms: float = 0.0) -> np.ndarray:
    """Arrival timestamps (ms) for ``n`` requests at a constant rate."""
    if not 0 < rate_qps < np.inf:
        raise ValueError(f"rate_qps must be positive and finite, got {rate_qps}")
    interval_ms = 1000.0 / rate_qps
    return start_ms + interval_ms * np.arange(n, dtype=float)


def poisson_arrivals(n: int, rate_qps: float, rng: np.random.Generator,
                     start_ms: float = 0.0) -> np.ndarray:
    """Arrival timestamps (ms) for a Poisson process with the given mean rate."""
    if not 0 < rate_qps < np.inf:
        raise ValueError(f"rate_qps must be positive and finite, got {rate_qps}")
    gaps_ms = rng.exponential(1000.0 / rate_qps, size=n)
    return start_ms + np.cumsum(gaps_ms)


def maf_trace_arrivals(n: int, mean_rate_qps: float, rng: np.random.Generator,
                       burstiness: float = 0.35, burst_prob: float = 0.02,
                       burst_multiplier: float = 3.0, start_ms: float = 0.0) -> np.ndarray:
    """Bursty arrival timestamps emulating Azure Functions invocation traces.

    The per-second request rate follows a mean-reverting multiplicative random
    walk around ``mean_rate_qps``; with probability ``burst_prob`` a second
    becomes a burst with ``burst_multiplier``x the current rate.  Requests are
    spread uniformly within each second.
    """
    if not 0 < mean_rate_qps < np.inf:
        raise ValueError(f"mean_rate_qps must be positive and finite, "
                         f"got {mean_rate_qps}")
    times = np.empty(n, dtype=float)
    produced = 0
    second = 0
    log_rate = np.log(mean_rate_qps)
    target_log = np.log(mean_rate_qps)
    while produced < n:
        log_rate += 0.1 * (target_log - log_rate) + rng.normal(0.0, burstiness * 0.25)
        rate = float(np.exp(log_rate))
        if rng.random() < burst_prob:
            rate *= burst_multiplier
        count = rng.poisson(max(rate, 0.1))
        count = int(min(count, n - produced))
        if count > 0:
            offsets = np.sort(rng.uniform(0.0, 1000.0, size=count))
            times[produced:produced + count] = start_ms + second * 1000.0 + offsets
            produced += count
        second += 1
    return times


def diurnal_arrivals(n: int, low_qps: float, high_qps: float, period_s: float = 60.0,
                     rng: Optional[np.random.Generator] = None,
                     start_ms: float = 0.0) -> np.ndarray:
    """Arrival timestamps following a smooth low → high → low rate cycle.

    The per-second rate traces a raised cosine from ``low_qps`` up to
    ``high_qps`` and back over each ``period_s`` seconds — a compressed
    day/night traffic cycle.  With ``rng`` the per-second counts are Poisson
    draws around the cycle; without it the process is fully deterministic
    (fractional arrivals carry over between seconds), which autoscaling
    determinism tests rely on.
    """
    if not 0 < low_qps <= high_qps < np.inf:
        raise ValueError(f"need 0 < low_qps <= high_qps < inf, "
                         f"got low={low_qps}, high={high_qps}")
    if period_s <= 0:
        raise ValueError("period_s must be positive")
    times = np.empty(n, dtype=float)
    produced = 0
    second = 0
    carry = 0.0
    while produced < n:
        phase = (second % period_s) / period_s
        rate = low_qps + (high_qps - low_qps) * 0.5 * (1.0 - np.cos(2.0 * np.pi * phase))
        if rng is not None:
            count = int(rng.poisson(rate))
        else:
            carry += rate
            count = int(carry)
            carry -= count
        count = int(min(count, n - produced))
        if count > 0:
            if rng is not None:
                offsets = np.sort(rng.uniform(0.0, 1000.0, size=count))
            else:
                offsets = 1000.0 * (np.arange(count, dtype=float) + 0.5) / count
            times[produced:produced + count] = start_ms + second * 1000.0 + offsets
            produced += count
        second += 1
    return times


def flash_crowd_arrivals(n: int, base_qps: float, rng: np.random.Generator,
                         spike_start_s: float = 10.0,
                         spike_multiplier: float = 4.0,
                         spike_duration_s: Optional[float] = None,
                         start_ms: float = 0.0) -> np.ndarray:
    """Poisson baseline with one sudden, sustained rate spike.

    Requests arrive Poisson at ``base_qps`` until ``spike_start_s``, then at
    ``spike_multiplier * base_qps`` for ``spike_duration_s`` seconds (``None``
    keeps the spike going for the rest of the stream), then back at the base
    rate.  The instantaneous step — no ramp — is the point: it is the
    flash-crowd shape that overwhelms queues faster than reactive autoscalers
    can follow, the stress case for tenant isolation and failure injection.
    """
    if not 0 < base_qps < np.inf:
        raise ValueError(f"base_qps must be positive and finite, got {base_qps}")
    if spike_start_s < 0:
        raise ValueError(f"spike_start_s must be >= 0, got {spike_start_s}")
    if spike_multiplier < 1.0:
        raise ValueError(f"spike_multiplier must be >= 1, "
                         f"got {spike_multiplier}")
    if spike_duration_s is not None and spike_duration_s <= 0:
        raise ValueError(f"spike_duration_s must be positive, "
                         f"got {spike_duration_s}")
    spike_start = 1000.0 * spike_start_s
    spike_end = np.inf if spike_duration_s is None \
        else spike_start + 1000.0 * spike_duration_s
    times = np.empty(n, dtype=float)
    gaps = rng.exponential(1.0, size=n)   # unit-rate gaps, scaled per regime
    t = 0.0
    for i in range(n):
        rate = base_qps * spike_multiplier if spike_start <= t < spike_end \
            else base_qps
        t += gaps[i] * 1000.0 / rate
        times[i] = t
    return start_ms + times


def trace_arrivals(n: int,
                   timestamps_ms: Union[str, Sequence[float], np.ndarray],
                   start_ms: float = 0.0) -> np.ndarray:
    """Replay the first ``n`` timestamps of an explicit arrival trace.

    ``timestamps_ms`` is an array-like of arrival times in milliseconds, or
    the path of a CSV/text file of them (any whitespace/comma separated
    layout ``numpy.loadtxt`` reads).  The trace must hold at least ``n``
    finite, non-negative timestamps; they are sorted before replay so
    unordered recordings work.
    """
    if isinstance(timestamps_ms, (str, os.PathLike)):
        path = os.fspath(timestamps_ms)
        if not os.path.exists(path):
            raise ValueError(f"arrival trace file not found: {path!r}")
        with open(path) as handle:
            tokens = handle.read().replace(",", " ").split()
        try:
            values = np.array([float(token) for token in tokens])
        except ValueError as exc:
            raise ValueError(f"arrival trace {path!r} holds a non-numeric "
                             f"entry: {exc}") from None
    else:
        values = np.asarray(timestamps_ms, dtype=float).ravel()
    if values.size < n:
        raise ValueError(f"arrival trace holds {values.size} timestamps; "
                         f"{n} requested")
    if not np.all(np.isfinite(values)):
        raise ValueError("arrival trace timestamps must be finite")
    if np.any(values < 0):
        raise ValueError("arrival trace timestamps must be >= 0")
    return start_ms + np.sort(values)[:n]
