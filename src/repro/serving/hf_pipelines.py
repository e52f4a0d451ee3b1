"""Generative serving engine (HuggingFace-Pipelines-like, §2.1/§4.3).

The paper's generative experiments run the HuggingFace Pipelines inference
engine under Poisson arrivals that saturate the accelerator.  Each request is
an autoregressive decode *stream*: its tokens are produced one step at a time,
and the stream's time-per-token (TPT) cadence is what Apparate improves.  The
engine below models the accelerator as a fixed number of concurrent decode
slots (``max_batch_size``): on a decode replica of a generative fleet
(:mod:`repro.serving.generative_cluster`; one replica reproduces the paper's
setup) an arriving sequence waits for a free slot and is then decoded as its
own stream, with per-token exit decisions delegated to a policy object.  The
same engine therefore serves the vanilla model (never exits), FREE (one fixed
ramp and threshold), the optimal oracle, and Apparate (adaptive ramp +
threshold with parallel decoding).

Timing of one stream follows §3.4 exactly:

* a token that exits at a ramp of depth ``p`` releases after only the head
  portion of the decode step and its tail layers are deferred;
* the first subsequent non-exiting token pays the full step plus a mild
  penalty for running the deferred tails batched alongside it;
* if too many exited tokens accumulate, a flush runs their tails as one batch
  before the stream continues (bounding the staleness of KV states).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence

import numpy as np

from repro.generative.decoding import DecodeTimingModel, PrefillModel, TokenRecord
from repro.generative.parallel import ParallelDecodingState, TokenFeedback, truncate_feedback
from repro.generative.sequences import SequenceSample
from repro.utils.stats import summarize_latencies

__all__ = ["TokenDecision", "TokenExitPolicy", "VanillaTokenPolicy",
           "GenerativeMetrics", "ContinuousBatchingEngine"]


@dataclass(frozen=True)
class TokenDecision:
    """Exit decision for one token."""

    exited: bool
    exit_depth: Optional[float]
    error_score: float
    correct: bool


class TokenExitPolicy(Protocol):
    """Per-token exit policy plugged into the engine."""

    def decide(self, sequence_id: int, token_index: int, raw_difficulty: float,
               sharpness: float) -> TokenDecision:
        ...  # pragma: no cover - protocol definition

    def feedback(self, records: Sequence[TokenFeedback]) -> None:
        ...  # pragma: no cover - protocol definition


class VanillaTokenPolicy:
    """Never exits: every token runs the full model."""

    def decide(self, sequence_id: int, token_index: int, raw_difficulty: float,
               sharpness: float) -> TokenDecision:
        return TokenDecision(exited=False, exit_depth=None, error_score=1.0, correct=True)

    def feedback(self, records: Sequence[TokenFeedback]) -> None:
        return None


@dataclass
class GenerativeMetrics:
    """Aggregated outcome of one generative serving run."""

    tokens: List[TokenRecord] = field(default_factory=list)
    sequence_accuracy: Dict[int, float] = field(default_factory=dict)
    queueing_delays_ms: Dict[int, float] = field(default_factory=dict)
    makespan_ms: float = 0.0
    #: parallel-decoding bookkeeping: tokens whose tails were deferred, and
    #: how many *forced* flushes ran those tails as standalone batches
    #: (piggybacked tails on a non-exiting token's full step are not flushes).
    deferred_tokens: int = 0
    deferred_flushes: int = 0
    #: sequences shed by deadline admission: their wait had already blown the
    #: TTFT SLO when a decode slot freed up, so no token was decoded for them.
    shed_sequence_ids: List[int] = field(default_factory=list)
    #: KV-cache accounting (populated only when the run priced a cache model;
    #: ``kv_enabled`` gates the extra summary keys so cache-off runs keep a
    #: bit-identical summary).  Hits/misses are prompt tokens whose prefill
    #: was skipped/paid at slot claim; evicted/recompute count cache tokens.
    kv_enabled: bool = False
    kv_hit_tokens: int = 0
    kv_miss_tokens: int = 0
    kv_evictions: int = 0
    kv_evicted_tokens: int = 0
    kv_recompute_tokens: int = 0

    def tpt_values(self) -> np.ndarray:
        return np.array([t.tpt_ms for t in self.tokens], dtype=float)

    def tpt_summary(self) -> Dict[str, float]:
        return summarize_latencies(self.tpt_values())

    def median_tpt(self) -> float:
        return self.tpt_summary()["p50"]

    def p25_tpt(self) -> float:
        return self.tpt_summary()["p25"]

    def p95_tpt(self) -> float:
        return self.tpt_summary()["p95"]

    def p99_tpt(self) -> float:
        return self.tpt_summary()["p99"]

    def token_latency_values(self) -> np.ndarray:
        """Per-token latency as a *served* stream experiences it.

        Identical to the TPT cadence except that each sequence's first token
        is measured from the sequence's arrival, so slot queueing counts
        against it (time-to-first-token).  This is the fleet-level signal:
        under load a cluster's tail is dominated by sequences waiting for a
        decode slot, which the decode-only TPT distribution cannot see.
        """
        delays = self.queueing_delays_ms
        return np.array([t.tpt_ms + delays.get(t.sequence_id, 0.0)
                         if t.token_index == 0 else t.tpt_ms
                         for t in self.tokens], dtype=float)

    def token_latency_summary(self) -> Dict[str, float]:
        return summarize_latencies(self.token_latency_values())

    def p99_token_latency(self) -> float:
        return self.token_latency_summary()["p99"]

    def ttft_values(self) -> np.ndarray:
        """Time-to-first-token of every served sequence.

        Measured from the sequence's *arrival* to the release of its first
        token, so everything a user waits through counts: queueing for a
        slot, (disaggregated) prefill and KV transfer, and the first decode
        step.  This is the latency SLO production LLM serving is sized
        against — the decode-cadence TPT distribution cannot see it.
        """
        delays = self.queueing_delays_ms
        return np.array([t.tpt_ms + delays.get(t.sequence_id, 0.0)
                         for t in self.tokens if t.token_index == 0], dtype=float)

    def ttft_summary(self) -> Dict[str, float]:
        return summarize_latencies(self.ttft_values())

    def mean_ttft(self) -> float:
        return self.ttft_summary()["mean"]

    def p99_ttft(self) -> float:
        return self.ttft_summary()["p99"]

    def num_shed(self) -> int:
        return len(self.shed_sequence_ids)

    def shed_rate(self) -> float:
        """Fraction of admitted sequences shed by the TTFT deadline check."""
        total = len(self.sequence_accuracy) + self.num_shed()
        if total == 0:
            return 0.0
        return self.num_shed() / total

    def mean_sequence_accuracy(self) -> float:
        if not self.sequence_accuracy:
            return 1.0
        return float(np.mean(list(self.sequence_accuracy.values())))

    def exit_rate(self) -> float:
        if not self.tokens:
            return 0.0
        return sum(1 for t in self.tokens if t.exited) / len(self.tokens)

    def median_queueing_ms(self) -> float:
        if not self.queueing_delays_ms:
            return 0.0
        return float(np.median(list(self.queueing_delays_ms.values())))

    def throughput_tokens_per_s(self) -> float:
        if self.makespan_ms <= 0:
            return 0.0
        return 1000.0 * len(self.tokens) / self.makespan_ms

    def kv_hit_rate(self) -> float:
        """Fraction of prompt tokens served from resident cache prefixes."""
        total = self.kv_hit_tokens + self.kv_miss_tokens
        if total == 0:
            return 0.0
        return self.kv_hit_tokens / total

    def summary(self) -> Dict[str, float]:
        tpt = self.tpt_summary()
        ttft = self.ttft_summary()
        data = {
            "tpt_p25_ms": tpt["p25"],
            "tpt_p50_ms": tpt["p50"],
            "tpt_p95_ms": tpt["p95"],
            "tpt_p99_ms": tpt["p99"],
            "token_p99_ms": self.p99_token_latency(),
            "ttft_mean_ms": ttft["mean"],
            "ttft_p99_ms": ttft["p99"],
            "sequence_accuracy": self.mean_sequence_accuracy(),
            "exit_rate": self.exit_rate(),
            "throughput_tokens_per_s": self.throughput_tokens_per_s(),
            "num_tokens": float(len(self.tokens)),
            "deferred_tokens": float(self.deferred_tokens),
            "deferred_flushes": float(self.deferred_flushes),
            "shed": float(self.num_shed()),
            "shed_rate": self.shed_rate(),
        }
        if self.kv_enabled:
            data.update({
                "kv_hit_rate": self.kv_hit_rate(),
                "kv_hit_tokens": float(self.kv_hit_tokens),
                "kv_miss_tokens": float(self.kv_miss_tokens),
                "kv_evictions": float(self.kv_evictions),
                "kv_evicted_tokens": float(self.kv_evicted_tokens),
                "kv_recompute_tokens": float(self.kv_recompute_tokens),
            })
        return data

    # ----------------------------------------------------------------- merge
    @classmethod
    def merged(cls, parts: Sequence["GenerativeMetrics"],
               makespan_ms: Optional[float] = None) -> "GenerativeMetrics":
        """Combine several replicas' runs into one aggregate view.

        Token records, per-sequence accuracies and queueing delays add up
        (sequence ids are globally unique within one workload); the makespan
        defaults to the longest part unless the caller supplies the fleet's
        global wall-clock span.
        """
        out = cls()
        for metrics in parts:
            out.tokens.extend(metrics.tokens)
            out.sequence_accuracy.update(metrics.sequence_accuracy)
            out.queueing_delays_ms.update(metrics.queueing_delays_ms)
            out.deferred_tokens += metrics.deferred_tokens
            out.deferred_flushes += metrics.deferred_flushes
            out.shed_sequence_ids.extend(metrics.shed_sequence_ids)
            out.kv_enabled = out.kv_enabled or metrics.kv_enabled
            out.kv_hit_tokens += metrics.kv_hit_tokens
            out.kv_miss_tokens += metrics.kv_miss_tokens
            out.kv_evictions += metrics.kv_evictions
            out.kv_evicted_tokens += metrics.kv_evicted_tokens
            out.kv_recompute_tokens += metrics.kv_recompute_tokens
            out.makespan_ms = max(out.makespan_ms, metrics.makespan_ms)
        if makespan_ms is not None:
            out.makespan_ms = makespan_ms
        return out


class ContinuousBatchingEngine:
    """Slot-based generative serving engine with pluggable exit policies.

    ``prefill`` (optional) makes the engine *monolithic* in the
    prefill/decode sense: a sequence claiming a decode slot first runs its
    prompt's chunked prefill on the replica's own accelerator, stretched by
    compute contention with the decode streams already in flight (see
    :meth:`~repro.generative.decoding.PrefillModel.inslot_prefill_ms`).
    Without it (the default) prompts are assumed pre-processed — the paper's
    decode-only setup, and the configuration disaggregated decode replicas
    run (their prompts were prefilled in the dedicated pool).

    The engine is stateless: a fleet's decode replicas
    (:mod:`repro.serving.generative_cluster`) hold the slots and queues and
    call :meth:`decode_stream` when a slot claims a sequence, so one engine
    serves every replica.
    """

    def __init__(self, timing: DecodeTimingModel, max_batch_size: int = 8,
                 flush_limit: int = 8, prefill: Optional[PrefillModel] = None) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        self.timing = timing
        self.max_batch_size = int(max_batch_size)
        self.flush_limit = int(flush_limit)
        self.prefill = prefill

    # --------------------------------------------------------------- streams
    def decode_stream(self, sample: SequenceSample, start_ms: float,
                      policy: TokenExitPolicy, metrics: GenerativeMetrics,
                      speed: float = 1.0) -> float:
        """Decode one sequence as a stream; returns its completion time.

        ``speed`` divides every step duration — a cluster replica with a 2×
        :class:`~repro.serving.fleet.ReplicaProfile` genuinely releases
        tokens twice as fast.
        """
        state = ParallelDecodingState(flush_limit=self.flush_limit)
        now = start_ms
        last_release = start_ms
        correct_tokens = 0
        forced_flushes = 0
        # Feedback is grouped per parallel-decoding instance: the run of
        # consecutive exited tokens closed by the first non-exiting token.
        instance: List[TokenFeedback] = []

        for token_idx in range(sample.num_tokens):
            decision = policy.decide(sample.sequence_id, token_idx,
                                     float(sample.token_difficulty[token_idx]),
                                     float(sample.token_sharpness[token_idx]))
            ramp_overhead = self.timing.ramp_overhead_ms(1)

            if decision.exited and decision.exit_depth is not None:
                # Head-only step: release the token at the ramp, defer its tail.
                release = now + (self.timing.partial_step_ms(1, decision.exit_depth)
                                 + ramp_overhead) / speed
                now = release
                state.defer(decision.exit_depth)
                if state.needs_flush():
                    # Forced flush: run the accumulated tails as one batch
                    # before the next token's step (keeps KV staleness bounded).
                    now += self.timing.flush_step_ms(state.pending_depth,
                                                     state.pending_tokens) / speed
                    state.flush()
                    forced_flushes += 1
                released_correct = decision.correct
            else:
                # Full step, plus the deferred tails of previously exited
                # tokens batched alongside it (parallel decoding).
                step = self.timing.full_step_ms(1) + ramp_overhead
                step += self.timing.deferred_tail_ms(state.pending_depth,
                                                     state.pending_tokens, 1)
                state.flush()
                release = now + step / speed
                now = release
                released_correct = True

            tpt = max(release - last_release, 0.0)
            metrics.tokens.append(TokenRecord(
                sequence_id=sample.sequence_id, token_index=token_idx,
                release_ms=release, tpt_ms=tpt, exited=decision.exited,
                exit_depth=decision.exit_depth, correct=released_correct))
            # Feedback carries the ramp's *agreement* with the original model
            # regardless of exiting: Apparate eventually computes every
            # token's tail layers, so the signal is always available (§3.4).
            instance.append(TokenFeedback(sequence_id=sample.sequence_id,
                                          token_index=token_idx,
                                          error_score=decision.error_score,
                                          exited=decision.exited,
                                          correct=decision.correct))
            if not decision.exited:
                # The non-exiting token closes this parallel-decoding instance.
                policy.feedback(truncate_feedback(instance))
                instance = []
            last_release = release
            correct_tokens += int(released_correct)

        metrics.sequence_accuracy[sample.sequence_id] = \
            correct_tokens / max(sample.num_tokens, 1)
        metrics.deferred_tokens += state.total_deferred
        metrics.deferred_flushes += forced_flushes
        if instance:
            policy.feedback(truncate_feedback(instance))
        return now
