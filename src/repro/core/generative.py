"""Generative serving with Apparate (§3.4, §4.3).

For generative LLMs Apparate deploys a *single* adaptive ramp (a ramp budget
of one, as in §4.4's comparison against FREE) that reuses the model's own
decode head, so no ramp training is needed.  The token policy below manages
the two runtime knobs the paper describes:

* the ramp's **threshold**, re-tuned from windowed token feedback whenever the
  achieved accuracy of exited tokens dips below the constraint and refreshed
  periodically to maximize exits otherwise; and
* the ramp's **position**, shifted later when too few tokens exit (the ramp is
  too shallow to be confident) and probed earlier when almost everything exits
  and accuracy headroom remains (more savings available).

Feedback is truncated at the first deviating token of each parallel-decoding
instance (see :mod:`repro.generative.parallel`).  The policy hands the engine
a whole stream's signals at once — every token's error score and agreement at
the current ramp, from one vectorized pass — and the engine applies the
threshold token by token; the pass is repeated only when feedback moves the
ramp, because the threshold and the position change nowhere else.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.controller import FleetController
from repro.core.pipeline import model_stack
from repro.exits.ramps import RampStyle, ramp_overhead_fraction
from repro.generative.decoding import DecodeTimingModel, PrefillModel
from repro.generative.parallel import TokenFeedback
from repro.generative.sequences import GenerativeWorkload
from repro.models.prediction import PredictionModel
from repro.models.zoo import ModelSpec, get_model
from repro.serving.autoscaler import (Autoscaler, build_autoscaler,
                                      canonical_autoscaler_name)
from repro.serving.cluster import LoadBalancer
from repro.serving.disagg import DisaggregatedPlatform
from repro.serving.generative_cluster import (GenerativeClusterMetrics,
                                              GenerativeClusterPlatform)
from repro.serving.hf_pipelines import (ContinuousBatchingEngine, TokenDecision,
                                        TokenSignals, decide_from_signals)

__all__ = ["ApparateTokenPolicy", "GenerativeClusterRunResult",
           "build_generative_cluster", "build_disaggregated_platform",
           "generative_ramp_depths"]

#: ``fleet(ramp_overhead)`` builds the run's generative fleet (one decode
#: pool, or prefill and decode pools) for a decode head of that overhead.
GenerativeFleet = Callable[[float], Union[GenerativeClusterPlatform,
                                          DisaggregatedPlatform]]


def generative_ramp_depths(model: Union[str, ModelSpec], seed: int = 0) -> List[float]:
    """Candidate ramp depths (block boundaries) for a generative model."""
    _spec, _profile, _prediction, catalog, _executor = model_stack(model, seed=seed)
    return [r.depth_fraction for r in catalog.ramps]


#: Thresholds a tuning round tries, lowest first.
_CANDIDATES = np.arange(0.02, 0.99, 0.02).tolist()


class ApparateTokenPolicy:
    """Adaptive single-ramp exit policy for generative decoding.

    The threshold and the ramp position change only inside ``feedback``,
    so a stream's signals (every token's error score and agreement at the
    current ramp) come from one vectorized pass, repeated only after the
    ramp moves; ``decide`` is that pass on a one-token stream.

    The feedback window is a ring of (error, agreement) records plus two
    running counts under the current threshold: window entries that exit,
    and how many of those are correct.  Appending a record and evicting the
    oldest adjust the counts, so the released accuracy checked after every
    token costs O(1).  The window also keeps, per *bin* (the number of
    candidate thresholds at or below an error), how many records and how
    many correct ones it holds: a record is below candidate ``j`` exactly
    when its bin is at most ``j``, so a tuning round reads each candidate's
    exit and correct counts off a running sum over the bins and never
    rescans the window.  Assigning ``threshold`` from outside recounts the
    window once.  Every accuracy is the same integer ratio a per-candidate
    rescan of the window gives, so threshold and position trajectories are
    exactly those of the rescan kept in ``tests/core/_seed_token_policy.py``.
    """

    def __init__(self, prediction: PredictionModel, candidate_depths: Sequence[float],
                 accuracy_constraint: float = 0.01, window: int = 768,
                 refresh_period: int = 32, adjustment_period: int = 128,
                 initial_position: Optional[int] = None,
                 low_exit_rate: float = 0.50, high_exit_rate: float = 0.90,
                 tuning_safety: float = 0.25) -> None:
        if not candidate_depths:
            raise ValueError("candidate_depths must be non-empty")
        window = int(window)
        if window < 1:
            raise ValueError(f"window must be positive, got {window}")
        self.prediction = prediction
        self.candidate_depths = sorted(float(d) for d in candidate_depths)
        self.accuracy_constraint = float(accuracy_constraint)
        self.refresh_period = int(refresh_period)
        self.adjustment_period = int(adjustment_period)
        self.low_exit_rate = float(low_exit_rate)
        self.high_exit_rate = float(high_exit_rate)
        # Thresholds are tuned against a fraction of the allowed accuracy loss
        # so that drift between tuning rounds does not breach the constraint.
        self.tuning_safety = float(tuning_safety)

        self.position = int(initial_position) if initial_position is not None \
            else len(self.candidate_depths) // 2
        # The window is the first ``_size`` slots; once it is full, ``_next``
        # (the slot the next record overwrites) holds the oldest record.
        self._errors: List[float] = [0.0] * window
        self._correct: List[bool] = [False] * window
        self._bins: List[int] = [0] * window
        self._clear_window()
        self.threshold = 0.0
        self.tokens_seen = 0
        self.tokens_since_move = 0
        self.threshold_tunings = 0
        self.position_moves = 0

    # --------------------------------------------------------------- helpers
    @property
    def ramp_depth(self) -> float:
        return self.candidate_depths[self.position]

    @property
    def threshold(self) -> float:
        return self._threshold

    @threshold.setter
    def threshold(self, value: float) -> None:
        self._threshold = value
        if value > 0:
            n = self._size
            exits = [ok for error, ok in zip(self._errors[:n], self._correct[:n])
                     if error < value]
            self._exits, self._exits_correct = len(exits), exits.count(True)
        else:
            self._exits = self._exits_correct = 0

    def _clear_window(self) -> None:
        self._size = self._next = 0
        self._bin_counts = [0] * (len(_CANDIDATES) + 1)
        self._bin_correct = [0] * (len(_CANDIDATES) + 1)

    def _released_accuracy(self) -> Tuple[float, float]:
        """(accuracy, exit rate) on the feedback window under ``threshold``."""
        n = self._size
        if not n:
            return 1.0, 0.0
        return (self._exits_correct + (n - self._exits)) / n, self._exits / n

    def _tune_threshold(self) -> None:
        """Pick the largest threshold that satisfies the (tightened) constraint.

        Called on a non-empty window only (``feedback`` tunes at 96 records).
        The chosen candidate's exit and correct counts become the running
        counts.
        """
        target = 1.0 - self.accuracy_constraint * self.tuning_safety
        n = self._size
        best, exits, exits_correct = 0.0, 0, 0
        below = below_correct = 0
        for candidate, count, count_correct in zip(_CANDIDATES, self._bin_counts,
                                                   self._bin_correct):
            below += count
            below_correct += count_correct
            # ``below`` exits, ``below_correct`` of them correct, and
            # n - below full-model tokens.
            if (below_correct + (n - below)) / n >= target:
                best, exits, exits_correct = candidate, below, below_correct
            else:
                break
        self._threshold = best
        self._exits, self._exits_correct = exits, exits_correct
        self.threshold_tunings += 1

    def _adjust_position(self) -> None:
        """Move the ramp later when exits are rare, probe earlier when abundant.

        Moving later uses a coarse stride (a tenth of the candidate list) so
        that a badly placed ramp converges within a few adjustment rounds;
        probing earlier is conservative (one position at a time), matching the
        low-risk probing phase of §3.3.
        """
        accuracy, exit_rate = self._released_accuracy()
        moved = False
        later_stride = max(1, len(self.candidate_depths) // 10)
        if exit_rate < self.low_exit_rate and self.position < len(self.candidate_depths) - 1:
            self.position = min(self.position + later_stride, len(self.candidate_depths) - 1)
            moved = True
        elif (exit_rate > self.high_exit_rate
              and accuracy >= 1.0 - 0.5 * self.accuracy_constraint
              and self.position > 0):
            self.position -= 1
            moved = True
        if moved:
            self.position_moves += 1
            self._clear_window()     # the window starts over
            self.threshold = 0.0     # new position starts conservative (§3.3)
            self.tokens_since_move = 0

    # --------------------------------------------------------------- policy API
    def signals(self, difficulty: np.ndarray, sharpness: np.ndarray) -> TokenSignals:
        """Every token's error score and agreement at the current ramp."""
        depth = self.ramp_depth
        errors, agree = self.prediction.ramp_signals(difficulty, depth, sharpness)
        return [depth] * len(errors), errors, agree

    def decide(self, sequence_id: int, token_index: int, raw_difficulty: float,
               sharpness: float) -> TokenDecision:
        return decide_from_signals(self, raw_difficulty, sharpness)

    def feedback(self, records: Sequence[TokenFeedback]) -> bool:
        """Fold records into the window; returns whether the ramp moved.

        Each record updates the ring and the running counts in place; after
        it the threshold is re-tuned on an accuracy violation or a periodic
        refresh, and every ``adjustment_period`` tokens the position is
        judged.  The counters live in locals between those rounds, which
        read and reset them through ``self``.
        """
        errors, correct, bins = self._errors, self._correct, self._bins
        counts, counts_correct = self._bin_counts, self._bin_correct
        capacity = len(errors)
        floor = 1.0 - self.accuracy_constraint
        refresh_period = self.refresh_period
        adjustment_period = self.adjustment_period
        moves = self.position_moves
        threshold, size, slot = self._threshold, self._size, self._next
        exits, exits_correct = self._exits, self._exits_correct
        seen, since_move = self.tokens_seen, self.tokens_since_move
        for _sequence_id, _token_index, error, _exited, ok in records:
            if size == capacity:
                # The window is full: evict the oldest record (this slot).
                old, old_ok = bins[slot], correct[slot]
                counts[old] -= 1
                if old_ok:
                    counts_correct[old] -= 1
                if threshold > 0 and errors[slot] < threshold:
                    exits -= 1
                    if old_ok:
                        exits_correct -= 1
            else:
                size += 1
            new = bisect_right(_CANDIDATES, error)
            errors[slot], correct[slot], bins[slot] = error, ok, new
            counts[new] += 1
            if ok:
                counts_correct[new] += 1
            slot = (slot + 1) % capacity
            if threshold > 0 and error < threshold:
                exits += 1
                if ok:
                    exits_correct += 1
            seen += 1
            since_move += 1

            accuracy_violation = (exits_correct + (size - exits)) / size < floor
            periodic_refresh = seen % refresh_period == 0
            tune = (accuracy_violation or periodic_refresh) and size >= 96
            # Position moves are rate-limited: the ramp must have been in
            # place (and its threshold re-tuned) for a full adjustment period
            # before its exit rate is judged, which prevents oscillation.
            judge = (since_move >= 2 * adjustment_period
                     and seen % adjustment_period == 0 and size >= 128)
            if tune or judge:
                self._size, self._next = size, slot
                self._exits, self._exits_correct = exits, exits_correct
                self.tokens_seen, self.tokens_since_move = seen, since_move
                if tune:
                    self._tune_threshold()
                if judge and self._threshold > 0.0:
                    self._adjust_position()
                threshold, size, slot = self._threshold, self._size, self._next
                exits, exits_correct = self._exits, self._exits_correct
                counts, counts_correct = self._bin_counts, self._bin_correct
                since_move = self.tokens_since_move
        self._size, self._next = size, slot
        self._exits, self._exits_correct = exits, exits_correct
        self.tokens_seen, self.tokens_since_move = seen, since_move
        return self.position_moves != moves


@dataclass
class GenerativeClusterRunResult:
    """Outcome of one generative Apparate run.

    ``policies`` holds the per-replica token policies in ordinal order; in
    ``shared`` fleet mode every entry is the same object (one fleet-wide
    policy fed by every replica's token feedback).
    """

    metrics: GenerativeClusterMetrics
    policies: List[ApparateTokenPolicy]
    fleet_mode: str = "independent"

    def _unique_policies(self) -> List[ApparateTokenPolicy]:
        seen: Dict[int, ApparateTokenPolicy] = {}
        for policy in self.policies:
            seen.setdefault(id(policy), policy)
        return list(seen.values())

    def summary(self) -> Dict[str, float]:
        data = self.metrics.summary()
        unique = self._unique_policies()
        data.update({
            "num_policies": float(len(unique)),
            "threshold_tunings": float(sum(p.threshold_tunings for p in unique)),
            "position_moves": float(sum(p.position_moves for p in unique)),
        })
        if unique:
            data["ramp_depth"] = float(np.mean([p.ramp_depth for p in unique]))
            data["threshold"] = float(np.mean([p.threshold for p in unique]))
        return data


# ---------------------------------------------------------------------------
# Generative cluster serving (the fleet control plane driving the continuous
# batching engine; see repro.serving.generative_cluster).
# ---------------------------------------------------------------------------

def _normalize_ttft_slo(ttft_slo_ms: Optional[float]) -> Optional[float]:
    """Treat ``None`` and non-positive values as "no TTFT SLO".

    Generative model specs carry ``default_slo_ms=0.0`` (the paper sets no
    response-time SLO for generation), so a zero flowing down from the
    experiment layer means shedding is off, not an instant deadline.
    """
    if ttft_slo_ms is None or float(ttft_slo_ms) <= 0.0:
        return None
    return float(ttft_slo_ms)


def _resolve_generative_autoscaler(autoscaler: Union[str, Autoscaler, None],
                                   slots: int) -> Union[Autoscaler, None]:
    """Build a name-selected autoscaler with decode-slot-aware watermarks.

    The reactive policy's default queue watermarks assume one-at-a-time
    request serving; a decode replica with ``slots`` concurrent streams is
    only saturated once jobs in system approach the slot count, so the
    hysteresis band is scaled to it.  Instances pass through untouched.
    """
    if autoscaler is None or isinstance(autoscaler, Autoscaler):
        return autoscaler
    key = canonical_autoscaler_name(autoscaler)
    if key == "reactive":
        return build_autoscaler(key, scale_out_load=1.25 * slots,
                                scale_in_load=0.25 * slots)
    return build_autoscaler(key)


def build_generative_cluster(model: Union[str, ModelSpec], replicas: int,
                             balancer: Union[str, LoadBalancer] = "round_robin",
                             max_batch_size: int = 8, flush_limit: int = 8,
                             ramp_overhead: float = 0.0, seed: int = 0,
                             profiles: Optional[Sequence] = None,
                             autoscaler: Union[str, Autoscaler, None] = "none",
                             min_replicas: Optional[int] = None,
                             max_replicas: Optional[int] = None,
                             prefill_in_slot: bool = False,
                             ttft_slo_ms: Optional[float] = None,
                             tenancy=None, faults=None,
                             kv_capacity: Optional[float] = None,
                             obs=None) -> GenerativeClusterPlatform:
    """Construct a fleet of continuous-batching decode replicas.

    The engine is stateless, so one instance (model timing + slot count +
    flush limit) is shared by every replica, including ones the autoscaler
    boots mid-run; heterogeneity comes from ``profiles`` speed multipliers.

    ``prefill_in_slot=True`` makes the fleet *monolithic* in the
    prefill/decode sense: a sequence claiming a decode slot first runs its
    prompt's chunked prefill on that replica, stretched by contention with
    the decode streams in flight — the behaviour disaggregation removes
    (compare with :func:`build_disaggregated_platform`).  ``ttft_slo_ms``
    enables deadline shedding of sequences whose wait already blew the SLO.
    ``kv_capacity`` gives each replica a KV-cache byte budget (prefix reuse
    plus LRU eviction with recompute); ``None`` keeps cache modelling off.
    """
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    spec = get_model(model) if isinstance(model, str) else model
    timing = DecodeTimingModel(spec, ramp_overhead_fraction=ramp_overhead)
    engine = ContinuousBatchingEngine(
        timing, max_batch_size=max_batch_size, flush_limit=flush_limit,
        prefill=PrefillModel(spec) if prefill_in_slot else None)
    return GenerativeClusterPlatform(
        [engine] * replicas, balancer=balancer, seed=seed, profiles=profiles,
        autoscaler=_resolve_generative_autoscaler(autoscaler, max_batch_size),
        min_replicas=min_replicas, max_replicas=max_replicas,
        ttft_slo_ms=_normalize_ttft_slo(ttft_slo_ms),
        tenancy=tenancy, faults=faults, kv_capacity=kv_capacity, obs=obs)


# ---------------------------------------------------------------------------
# Prefill/decode disaggregated serving (two pools on one global clock; see
# repro.serving.disagg).
# ---------------------------------------------------------------------------

def _resolve_prefill_autoscaler(autoscaler: Union[str, Autoscaler, None]
                                ) -> Union[Autoscaler, None]:
    """Build a name-selected autoscaler with prompt-chunk-aware watermarks.

    A prefill replica's "jobs in system" are pending prefill *chunks*
    (queued prompt tokens in chunk units), each worth roughly one decode
    step of accelerator time, so the reactive hysteresis band is set in
    chunks of backlog per replica.  Instances pass through untouched.
    """
    if autoscaler is None or isinstance(autoscaler, Autoscaler):
        return autoscaler
    key = canonical_autoscaler_name(autoscaler)
    if key == "reactive":
        return build_autoscaler(key, scale_out_load=6.0, scale_in_load=0.75)
    return build_autoscaler(key)


def build_disaggregated_platform(model: Union[str, ModelSpec],
                                 prefill_replicas: int = 2,
                                 decode_replicas: int = 2,
                                 prefill_balancer: Union[str, LoadBalancer] = "round_robin",
                                 decode_balancer: Union[str, LoadBalancer] = "round_robin",
                                 max_batch_size: int = 8,
                                 prefill_batch: int = 4,
                                 flush_limit: int = 8,
                                 ramp_overhead: float = 0.0, seed: int = 0,
                                 prefill_profiles: Optional[Sequence] = None,
                                 decode_profiles: Optional[Sequence] = None,
                                 prefill_autoscaler: Union[str, Autoscaler, None] = "none",
                                 decode_autoscaler: Union[str, Autoscaler, None] = "none",
                                 prefill_min_replicas: Optional[int] = None,
                                 prefill_max_replicas: Optional[int] = None,
                                 decode_min_replicas: Optional[int] = None,
                                 decode_max_replicas: Optional[int] = None,
                                 ttft_slo_ms: Optional[float] = None,
                                 transfer_gbps: float = 16.0,
                                 tenancy=None, faults=None,
                                 kv_capacity: Optional[float] = None,
                                 obs=None) -> DisaggregatedPlatform:
    """Construct a prefill pool + decode pool behind one handoff queue.

    Decode engines carry no in-slot prefill model (their prompts arrive
    prefilled); the prefill pool charges chunked prefill compute, and every
    handoff pays the KV-transfer time over a ``transfer_gbps`` interconnect.
    ``kv_capacity`` gives each decode replica a KV-cache byte budget (prefix
    reuse plus LRU eviction with recompute); ``None`` keeps it off.
    """
    spec = get_model(model) if isinstance(model, str) else model
    timing = DecodeTimingModel(spec, ramp_overhead_fraction=ramp_overhead)
    engine = ContinuousBatchingEngine(timing, max_batch_size=max_batch_size,
                                      flush_limit=flush_limit)
    prefill = PrefillModel(spec, transfer_gbps=transfer_gbps)
    return DisaggregatedPlatform(
        prefill, [engine] * decode_replicas,
        prefill_replicas=prefill_replicas, prefill_batch=prefill_batch,
        prefill_balancer=prefill_balancer, decode_balancer=decode_balancer,
        seed=seed, prefill_profiles=prefill_profiles,
        decode_profiles=decode_profiles,
        prefill_autoscaler=_resolve_prefill_autoscaler(prefill_autoscaler),
        decode_autoscaler=_resolve_generative_autoscaler(decode_autoscaler,
                                                         max_batch_size),
        prefill_min_replicas=prefill_min_replicas,
        prefill_max_replicas=prefill_max_replicas,
        decode_min_replicas=decode_min_replicas,
        decode_max_replicas=decode_max_replicas,
        ttft_slo_ms=_normalize_ttft_slo(ttft_slo_ms),
        tenancy=tenancy, faults=faults, kv_capacity=kv_capacity, obs=obs)


# ---------------------------------------------------------------------------
# Serving implementation (called through the system registry).
# ---------------------------------------------------------------------------

def _generative_apparate_cluster_impl(model: Union[str, ModelSpec],
                                      workload: GenerativeWorkload,
                                      fleet: GenerativeFleet,
                                      fleet_mode: str = "independent",
                                      accuracy_constraint: float = 0.01,
                                      seed: int = 0
                                      ) -> GenerativeClusterRunResult:
    """Apparate on a generative fleet: per-decode-replica (or one fleet-wide,
    with ``fleet_mode="shared"``) adaptive token policies.  ``fleet`` builds
    the platform for the decode head's ramp overhead; a disaggregated
    fleet's prefill pool is policy-free (no tokens are released there)."""
    if fleet_mode not in FleetController.MODES:
        raise ValueError(f"unknown fleet mode {fleet_mode!r}; "
                         f"choose from {tuple(FleetController.MODES)}")
    spec = get_model(model) if isinstance(model, str) else model
    prediction = PredictionModel(spec, seed=seed)
    depths = generative_ramp_depths(spec, seed=seed)
    platform = fleet(ramp_overhead_fraction(spec, RampStyle.DECODE_HEAD))

    policies: List[ApparateTokenPolicy] = []
    shared = ApparateTokenPolicy(prediction, depths,
                                 accuracy_constraint=accuracy_constraint) \
        if fleet_mode == "shared" else None

    def policy_factory(ordinal: int) -> ApparateTokenPolicy:
        policy = shared if shared is not None else ApparateTokenPolicy(
            prediction, depths, accuracy_constraint=accuracy_constraint)
        policies.append(policy)
        return policy

    metrics = platform.run(workload, policy_factory)
    return GenerativeClusterRunResult(metrics=metrics, policies=policies,
                                      fleet_mode=fleet_mode)
