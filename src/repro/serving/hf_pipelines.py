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

A stream costs the policy one ``signals`` call (every token's exit depth,
error score and agreement at its current ramp, see :data:`TokenSignals`) plus
one ``feedback`` call per parallel-decoding instance; ``signals`` is asked
again only when feedback moves the ramp.  Between those calls the engine
walks the tokens with plain float arithmetic and appends each token's release
time, TPT, exit flag, exit depth and correctness to per-stream lists, which
join the replica's :class:`GenerativeMetrics` columns once per stream.  The
summaries read those columns directly; ``GenerativeMetrics.tokens`` rebuilds
the row view only for callers that ask for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import compress
from operator import not_
from typing import (Dict, List, NamedTuple, Optional, Protocol, Sequence,
                    Tuple)

import numpy as np

from repro.generative.decoding import DecodeTimingModel, PrefillModel, TokenRecord
from repro.generative.parallel import TokenFeedback
from repro.generative.sequences import SequenceSample
from repro.utils.stats import summarize_latencies

__all__ = ["TokenDecision", "TokenSignals", "TokenExitPolicy",
           "VanillaTokenPolicy", "exit_limit", "decide_from_signals",
           "GenerativeMetrics", "ContinuousBatchingEngine"]


class TokenDecision(NamedTuple):
    """Exit decision for one token."""

    exited: bool
    exit_depth: Optional[float]
    error_score: float
    correct: bool


#: Per-token exit signals of a stream: the depth of the ramp each token
#: would exit at, its error score there and whether that ramp agrees with
#: the full model.
TokenSignals = Tuple[List[Optional[float]], List[float], List[bool]]


def exit_limit(threshold: float) -> float:
    """The exit rule: a token exits when its error score is below this.

    That is the threshold itself, or ``-inf`` when the threshold is not
    positive (threshold 0 never exits), so ``error < exit_limit(t)`` is
    ``t > 0 and error < t`` in one comparison.
    """
    return threshold if threshold > 0.0 else -math.inf


class TokenExitPolicy(Protocol):
    """Per-token exit policy plugged into the engine.

    The engine asks for a stream's :data:`TokenSignals` once, applies
    :func:`exit_limit` of ``threshold`` token by token, and closes every
    parallel-decoding instance with one ``feedback`` call.  ``feedback``
    returns true when the ramp moved, which makes the signals stale; the
    threshold is re-read after every call.
    """

    threshold: float

    def signals(self, difficulty: np.ndarray, sharpness: np.ndarray) -> TokenSignals:
        ...  # pragma: no cover - protocol definition

    def decide(self, sequence_id: int, token_index: int, raw_difficulty: float,
               sharpness: float) -> TokenDecision:
        ...  # pragma: no cover - protocol definition

    def feedback(self, records: Sequence[TokenFeedback]) -> Optional[bool]:
        ...  # pragma: no cover - protocol definition


def decide_from_signals(policy: TokenExitPolicy, raw_difficulty: float,
                        sharpness: float) -> TokenDecision:
    """One token's decision: a one-token stream's signals under the rule
    the engine applies, so ``decide`` and ``decode_stream`` agree."""
    depths, errors, correct = policy.signals(np.array([float(raw_difficulty)]),
                                             np.array([float(sharpness)]))
    exited = errors[0] < exit_limit(policy.threshold)
    return TokenDecision(exited=exited, exit_depth=depths[0] if exited else None,
                         error_score=errors[0], correct=correct[0])


#: The vanilla policy's one decision: run the full model.
_FULL_MODEL = TokenDecision(exited=False, exit_depth=None, error_score=1.0,
                            correct=True)


class VanillaTokenPolicy:
    """Never exits: every token runs the full model."""

    threshold = 0.0

    def signals(self, difficulty: np.ndarray, sharpness: np.ndarray) -> TokenSignals:
        n = len(difficulty)
        return [None] * n, [1.0] * n, [True] * n

    def decide(self, sequence_id: int, token_index: int, raw_difficulty: float,
               sharpness: float) -> TokenDecision:
        return _FULL_MODEL

    def feedback(self, records: Sequence[TokenFeedback]) -> None:
        return None


@dataclass
class GenerativeMetrics:
    """Aggregated outcome of one generative serving run.

    Tokens are stored column-wise: entry ``i`` of the seven token columns
    (``sequence_ids`` … ``correct``) is the ``i``-th released token, and
    ``tokens`` rebuilds the row view on demand.
    """

    sequence_ids: List[int] = field(default_factory=list)
    token_indices: List[int] = field(default_factory=list)
    release_ms: List[float] = field(default_factory=list)
    tpt_ms: List[float] = field(default_factory=list)
    exited: List[bool] = field(default_factory=list)
    exit_depths: List[Optional[float]] = field(default_factory=list)
    correct: List[bool] = field(default_factory=list)
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

    #: The token columns, in :class:`TokenRecord` field order.
    COLUMNS = ("sequence_ids", "token_indices", "release_ms", "tpt_ms",
               "exited", "exit_depths", "correct")

    @property
    def tokens(self) -> Tuple[TokenRecord, ...]:
        """Every released token as a :class:`TokenRecord`, rebuilt from the
        columns on each access (a read-only view)."""
        return tuple(map(TokenRecord._make, zip(
            *(getattr(self, name) for name in self.COLUMNS))))

    def num_tokens(self) -> int:
        return len(self.tpt_ms)

    def tpt_values(self) -> np.ndarray:
        return np.array(self.tpt_ms, dtype=float)

    def tpt_summary(self) -> Dict[str, float]:
        return summarize_latencies(self.tpt_values())

    def median_tpt(self) -> float:
        return self.tpt_summary()["p50"]

    def _first_tokens(self) -> Tuple[List[int], List[float]]:
        """Column positions of every stream's first token, and that token's
        latency from its sequence's arrival (TPT plus queueing delay)."""
        delays = self.queueing_delays_ms
        tpt, ids = self.tpt_ms, self.sequence_ids
        positions = list(compress(range(len(ids)), map(not_, self.token_indices)))
        return positions, [tpt[i] + delays.get(ids[i], 0.0) for i in positions]

    def token_latency_values(self) -> np.ndarray:
        """Per-token latency as a *served* stream experiences it.

        Identical to the TPT cadence except that each sequence's first token
        is measured from the sequence's arrival, so slot queueing counts
        against it (time-to-first-token).  This is the fleet-level signal:
        under load a cluster's tail is dominated by sequences waiting for a
        decode slot, which the decode-only TPT distribution cannot see.
        """
        values = self.tpt_values()
        positions, first = self._first_tokens()
        values[positions] = first
        return values

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
        return np.array(self._first_tokens()[1], dtype=float)

    def ttft_summary(self) -> Dict[str, float]:
        return summarize_latencies(self.ttft_values())

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
        if not self.exited:
            return 0.0
        return self.exited.count(True) / len(self.exited)

    def median_queueing_ms(self) -> float:
        if not self.queueing_delays_ms:
            return 0.0
        return float(np.median(list(self.queueing_delays_ms.values())))

    def throughput_tokens_per_s(self) -> float:
        if self.makespan_ms <= 0:
            return 0.0
        return 1000.0 * self.num_tokens() / self.makespan_ms

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
            "num_tokens": float(self.num_tokens()),
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

        Token columns, per-sequence accuracies and queueing delays add up
        (sequence ids are globally unique within one workload); the makespan
        defaults to the longest part unless the caller supplies the fleet's
        global wall-clock span.
        """
        out = cls()
        columns = [getattr(out, name) for name in cls.COLUMNS]
        for metrics in parts:
            for column, name in zip(columns, cls.COLUMNS):
                column.extend(getattr(metrics, name))
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


#: ``TokenFeedback._make`` without its Python-level frame (the engine builds
#: one record per decoded token).
_feedback_record = partial(tuple.__new__, TokenFeedback)


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

        The policy's signals for the whole stream come in one call and are
        asked for again only when a ``feedback`` call moves the ramp; the
        token columns are appended to ``metrics`` once, at the end.
        """
        timing = self.timing
        flush_limit = self.flush_limit
        overhead = timing.ramp_overhead_ms(1)
        full_step = timing.full_step_ms(1) + overhead
        #: exit depth -> time of a head-only step that exits there.
        head_ms: Dict[float, float] = {}
        sequence_id = sample.sequence_id
        num_tokens = sample.num_tokens
        difficulty, sharpness = sample.token_difficulty, sample.token_sharpness
        depths, errors, agree = policy.signals(difficulty, sharpness)
        limit = exit_limit(policy.threshold)

        releases: List[float] = []
        tpts: List[float] = []
        exited: List[bool] = []
        exit_depths: List[Optional[float]] = []
        correct: List[bool] = []
        now = last_release = start_ms
        # Parallel-decoding state: exited tokens whose tail layers are
        # still deferred, and the shallowest ramp they exited at.
        pending = 0
        pending_depth = 1.0
        forced_flushes = 0
        # Feedback is grouped per parallel-decoding instance: the run of
        # consecutive exited tokens closed by the first non-exiting token.
        # It stops after the instance's first exited-but-wrong token (``cut``):
        # later tokens may carry cascading errors (§3.4).
        records: List[TokenFeedback] = []
        cut = False

        for token in range(num_tokens):
            error = errors[token]
            if error < limit:
                # Head-only step: release the token at the ramp, defer its tail.
                depth = depths[token]
                head = head_ms.get(depth)
                if head is None:
                    head = head_ms[depth] = (timing.partial_step_ms(1, depth)
                                             + overhead) / speed
                release = now + head
                now = release
                if pending == 0 or depth < pending_depth:
                    # Tails are all computed from the shallowest accumulated
                    # ramp so a single batched pass covers every pending token.
                    pending_depth = depth
                pending += 1
                if pending >= flush_limit:
                    # Forced flush: run the accumulated tails as one batch
                    # before the next token's step (keeps KV staleness bounded).
                    now += timing.flush_step_ms(pending_depth, pending) / speed
                    pending = 0
                    forced_flushes += 1
                ok = agree[token]
                if not cut:
                    records.append(_feedback_record(
                        (sequence_id, token, error, True, ok)))
                    cut = not ok
                exited.append(True)
                exit_depths.append(depth)
                correct.append(ok)
            else:
                # Full step, plus the deferred tails of previously exited
                # tokens batched alongside it (parallel decoding).
                step = full_step
                if pending:
                    step += timing.deferred_tail_ms(pending_depth, pending, 1)
                    pending = 0
                release = now + step / speed
                now = release
                exited.append(False)
                exit_depths.append(None)
                correct.append(True)
                # The non-exiting token closes this parallel-decoding
                # instance.  Feedback carries the ramp's *agreement* with the
                # original model regardless of exiting: Apparate eventually
                # computes every token's tail layers, so the signal is always
                # available (§3.4).
                if not cut:
                    records.append(_feedback_record(
                        (sequence_id, token, error, False, agree[token])))
                if policy.feedback(records):
                    depths, errors, agree = policy.signals(difficulty, sharpness)
                limit = exit_limit(policy.threshold)
                records = []
                cut = False
            tpt = release - last_release
            tpts.append(0.0 if tpt < 0.0 else tpt)
            releases.append(release)
            last_release = release

        if num_tokens:
            metrics.sequence_ids.extend([sequence_id] * num_tokens)
            metrics.token_indices.extend(range(num_tokens))
            metrics.release_ms.extend(releases)
            metrics.tpt_ms.extend(tpts)
            metrics.exited.extend(exited)
            metrics.exit_depths.extend(exit_depths)
            metrics.correct.extend(correct)
        metrics.sequence_accuracy[sequence_id] = \
            correct.count(True) / max(num_tokens, 1)
        metrics.deferred_tokens += exited.count(True)
        metrics.deferred_flushes += forced_flushes
        if records:
            policy.feedback(records)
        return now
