"""Autoregressive decode-step timing model.

A decode step runs one token of every active sequence through the model.  The
timing model captures the quantities Apparate's generative mode cares about:

* per-step latency as a function of the decode batch size (continuous
  batching keeps the accelerator at the largest feasible batch);
* the fraction of a step saved when a token exits at a ramp of a given depth;
* the cost of running deferred tail layers (of previously exited tokens)
  batched alongside a later step (parallel decoding, §3.4).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.models.zoo import ModelSpec

__all__ = ["TokenRecord", "DecodeTimingModel", "PrefillModel",
           "KVCacheAccountant", "kv_bytes_per_token"]


class TokenRecord(NamedTuple):
    """Timing and exit bookkeeping for one generated token."""

    sequence_id: int
    token_index: int
    release_ms: float
    tpt_ms: float
    exited: bool
    exit_depth: Optional[float]
    correct: bool


class DecodeTimingModel:
    """Latency model for decode steps of one generative model."""

    def __init__(self, spec: ModelSpec, ramp_overhead_fraction: float = 0.0) -> None:
        if not spec.is_generative:
            raise ValueError(f"{spec.name} is not a generative model")
        self.spec = spec
        self.ramp_overhead_fraction = float(ramp_overhead_fraction)

    # ----------------------------------------------------------------- steps
    def batch_scale(self, batch_size: int) -> float:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        return 1.0 + self.spec.batch_marginal_cost * (batch_size - 1)

    def full_step_ms(self, batch_size: int) -> float:
        """Time of a decode step that runs the whole model for the batch."""
        return self.spec.bs1_latency_ms * self.batch_scale(batch_size)

    def partial_step_ms(self, batch_size: int, depth_fraction: float) -> float:
        """Time of a decode step that stops at ``depth_fraction`` (all exit)."""
        depth_fraction = min(max(depth_fraction, 0.0), 1.0)
        return self.full_step_ms(batch_size) * depth_fraction

    def ramp_overhead_ms(self, batch_size: int) -> float:
        """Per-step latency added by the (single) active ramp."""
        return self.full_step_ms(batch_size) * self.ramp_overhead_fraction

    # ------------------------------------------------------------ parallel decoding
    def deferred_tail_ms(self, depth_fraction: float, num_deferred: int,
                         batch_size: int) -> float:
        """Extra time to run deferred tail layers alongside a full step.

        The tail layers of ``num_deferred`` previously-exited tokens are
        batched with the current step's tokens; because the accelerator is
        already executing those layers for the non-exiting tokens, the
        marginal cost is only the batch-growth term, which is mild (§3.4).
        """
        if num_deferred <= 0:
            return 0.0
        tail_fraction = 1.0 - min(max(depth_fraction, 0.0), 1.0)
        tail_time_bs1 = self.spec.bs1_latency_ms * tail_fraction
        return tail_time_bs1 * self.spec.batch_marginal_cost * num_deferred

    def flush_step_ms(self, depth_fraction: float, num_deferred: int) -> float:
        """Time of a standalone flush of deferred tails (no piggyback step)."""
        if num_deferred <= 0:
            return 0.0
        tail_fraction = 1.0 - min(max(depth_fraction, 0.0), 1.0)
        return self.spec.bs1_latency_ms * tail_fraction * self.batch_scale(num_deferred)


@dataclass(frozen=True)
class PrefillModel:
    """Chunked-prefill compute and KV-transfer cost of one generative model.

    Prefill runs the prompt through the model in chunks of
    ``tokens_per_chunk`` tokens; each chunk saturates the accelerator's
    compute, so a chunk costs about one full decode step
    (``chunk_time_factor`` scales that).  This makes prefill throughput
    per-replica vastly higher than decode throughput — the asymmetry that
    motivates disaggregating the two phases.

    Two deployment modes are priced:

    * **Dedicated prefill replica** (disaggregated pool): ``prefill_ms`` /
      ``batch_prefill_ms`` chunk times only, plus ``transfer_ms`` to ship the
      prompt's KV cache to a decode replica — bytes grow with
      ``prompt_tokens x layer depth x hidden width`` (K and V, fp16) over a
      ``transfer_gbps`` GB/s interconnect.
    * **In-slot prefill** (monolithic replica): the prompt's chunks compete
      with the replica's running decode streams for the same accelerator, so
      ``inslot_prefill_ms`` stretches the prefill by ``decode_interference``
      per concurrently busy decode slot.  No KV transfer is charged (the
      cache is produced where it is consumed).
    """

    spec: ModelSpec
    tokens_per_chunk: int = 256
    chunk_time_factor: float = 1.0
    transfer_gbps: float = 16.0
    decode_interference: float = 1.0

    def __post_init__(self) -> None:
        if not self.spec.is_generative:
            raise ValueError(f"{self.spec.name} is not a generative model")
        if int(self.tokens_per_chunk) < 1:
            raise ValueError(f"tokens_per_chunk must be >= 1, "
                             f"got {self.tokens_per_chunk}")
        if self.chunk_time_factor <= 0.0:
            raise ValueError(f"chunk_time_factor must be positive, "
                             f"got {self.chunk_time_factor}")
        if self.transfer_gbps <= 0.0:
            raise ValueError(f"transfer_gbps must be positive, "
                             f"got {self.transfer_gbps}")
        if self.decode_interference < 0.0:
            raise ValueError(f"decode_interference must be >= 0, "
                             f"got {self.decode_interference}")

    # ----------------------------------------------------------------- compute
    def chunk_time_ms(self) -> float:
        """Accelerator time of one fully packed prefill chunk."""
        return self.spec.bs1_latency_ms * self.chunk_time_factor

    def num_chunks(self, prompt_tokens: int) -> int:
        """Chunks needed for one prompt (0 for promptless sequences)."""
        if prompt_tokens <= 0:
            return 0
        return int(math.ceil(prompt_tokens / self.tokens_per_chunk))

    def prefill_ms(self, prompt_tokens: int) -> float:
        """Dedicated-replica prefill time of one prompt."""
        return self.num_chunks(prompt_tokens) * self.chunk_time_ms()

    def batch_prefill_ms(self, total_prompt_tokens: int) -> float:
        """Prefill time of a chunk-batch: several prompts packed into one
        chunk stream (prompts share chunk boundaries, so batching saves the
        per-prompt padding of the last chunk)."""
        if total_prompt_tokens <= 0:
            return 0.0
        chunks = int(math.ceil(total_prompt_tokens / self.tokens_per_chunk))
        return chunks * self.chunk_time_ms()

    def inslot_prefill_ms(self, prompt_tokens: int, busy_slots: int) -> float:
        """Prefill time on a monolithic replica with ``busy_slots`` decode
        streams in flight — compute contention stretches the chunks."""
        return self.prefill_ms(prompt_tokens) \
            * (1.0 + self.decode_interference * max(0, busy_slots))

    # ---------------------------------------------------------------- transfer
    def kv_bytes(self, prompt_tokens: int) -> int:
        """KV-cache bytes a prefilled prompt occupies (K+V, fp16 per layer)."""
        if prompt_tokens <= 0:
            return 0
        return int(prompt_tokens) * self.spec.num_blocks * self.spec.hidden_width * 4

    def transfer_ms(self, prompt_tokens: int) -> float:
        """Time to ship the prompt's KV cache prefill -> decode replica."""
        bytes_per_ms = self.transfer_gbps * 1e6
        return self.kv_bytes(prompt_tokens) / bytes_per_ms


def kv_bytes_per_token(spec: ModelSpec) -> int:
    """KV-cache bytes one token occupies (K+V, fp16 per layer) — the same
    per-token cost :meth:`PrefillModel.kv_bytes` charges per prompt token."""
    return spec.num_blocks * spec.hidden_width * 4


@dataclass
class _ResidentSequence:
    """One sequence's KV residency on a replica (its non-shared tokens)."""

    sequence_id: int
    unique_tokens: int
    prefix_group: Optional[int]
    completion_ms: float


class KVCacheAccountant:
    """Per-replica KV-cache occupancy, prefix reuse and LRU eviction.

    The accountant tracks cache residency in **tokens** against a byte
    capacity.  A sequence admitted to a decode slot claims its full footprint
    (prompt plus expected output tokens); tokens of a shared prefix group are
    stored once per group and every group member references them, so routing
    group members to the same replica both skips re-prefill of the shared
    tokens (the **hit**) and shrinks the fleet-wide footprint.

    Residency outlives completion: a finished sequence's cache stays until
    evicted, which is what makes prefix reuse across sequences possible.
    When occupancy exceeds capacity, eviction scans residents oldest-first
    (LRU by admission): finished sequences are evicted for free; a
    still-running victim loses its cache and must pay **recompute** — a
    re-prefill of its evicted context, charged as an extension of its decode
    slot — before it can finish.  A victim is dropped from residency when
    evicted, so each sequence pays recompute at most once.  The
    most-recently-admitted sequence is never selected, so eviction always
    terminates; a single sequence larger than the whole capacity is allowed
    to oversubscribe.
    """

    def __init__(self, capacity_bytes: float, bytes_per_token: float,
                 recompute_ms_per_token: float = 0.0) -> None:
        if not (capacity_bytes > 0.0) or not math.isfinite(capacity_bytes):
            raise ValueError(f"capacity_bytes must be positive and finite, "
                             f"got {capacity_bytes}")
        if not (bytes_per_token > 0.0):
            raise ValueError(f"bytes_per_token must be positive, "
                             f"got {bytes_per_token}")
        if recompute_ms_per_token < 0.0:
            raise ValueError(f"recompute_ms_per_token must be >= 0, "
                             f"got {recompute_ms_per_token}")
        self.capacity_bytes = float(capacity_bytes)
        self.bytes_per_token = float(bytes_per_token)
        self.capacity_tokens = float(capacity_bytes) / float(bytes_per_token)
        self.recompute_ms_per_token = float(recompute_ms_per_token)
        self.used_tokens = 0.0
        self._resident: "OrderedDict[int, _ResidentSequence]" = OrderedDict()
        self._group_tokens: Dict[int, int] = {}
        self._group_refs: Dict[int, int] = {}
        # Conserved counters, copied into the replica's metrics at collection.
        self.hit_tokens = 0
        self.miss_tokens = 0
        self.evictions = 0
        self.evicted_tokens = 0
        self.recompute_tokens = 0

    def __len__(self) -> int:
        return len(self._resident)

    # ------------------------------------------------------------- admission
    def prefix_hit_tokens(self, sample) -> int:
        """Shared-prefix tokens already resident for ``sample``'s group."""
        group = getattr(sample, "prefix_group", None)
        if group is None:
            return 0
        shared = int(getattr(sample, "shared_prefix_tokens", 0))
        return min(self._group_tokens.get(group, 0), shared)

    def admission_tokens(self, sample) -> int:
        """Tokens admitting ``sample`` would add to the cache footprint."""
        group = getattr(sample, "prefix_group", None)
        shared = int(getattr(sample, "shared_prefix_tokens", 0)) \
            if group is not None else 0
        unique = int(sample.prompt_tokens) - shared + int(sample.num_tokens)
        prefix_new = shared if group is not None \
            and group not in self._group_tokens else 0
        return max(0, unique) + prefix_new

    def overflow_tokens(self, sample) -> float:
        """Tokens by which admitting ``sample`` would exceed capacity."""
        return max(0.0, self.used_tokens + self.admission_tokens(sample)
                   - self.capacity_tokens)

    def admit(self, sample, completion_ms: float) -> int:
        """Claim ``sample``'s cache footprint; returns the prefix-hit tokens
        (prompt tokens whose prefill is skipped because they are resident)."""
        group = getattr(sample, "prefix_group", None)
        shared = int(getattr(sample, "shared_prefix_tokens", 0)) \
            if group is not None else 0
        hit = self.prefix_hit_tokens(sample)
        if group is not None and group not in self._group_tokens:
            self._group_tokens[group] = shared
            self._group_refs[group] = 0
            self.used_tokens += shared
        if group is not None:
            self._group_refs[group] += 1
        unique = max(0, int(sample.prompt_tokens) - shared
                     + int(sample.num_tokens))
        self.used_tokens += unique
        self._resident[int(sample.sequence_id)] = _ResidentSequence(
            sequence_id=int(sample.sequence_id), unique_tokens=unique,
            prefix_group=group, completion_ms=float(completion_ms))
        self.hit_tokens += hit
        self.miss_tokens += max(0, int(sample.prompt_tokens) - hit)
        return hit

    def used_bytes(self) -> float:
        """Resident occupancy in bytes (the ``kv_used_bytes`` gauge)."""
        return self.used_tokens * self.bytes_per_token

    # -------------------------------------------------------------- eviction
    def over_capacity(self) -> bool:
        return self.used_tokens > self.capacity_tokens

    def needs_eviction(self) -> bool:
        """Over capacity with at least one evictable (non-MRU) resident."""
        return self.over_capacity() and len(self._resident) > 1

    def _free(self, victim: _ResidentSequence) -> int:
        freed = victim.unique_tokens
        group = victim.prefix_group
        if group is not None:
            self._group_refs[group] -= 1
            if self._group_refs[group] <= 0:
                freed += self._group_tokens.pop(group)
                del self._group_refs[group]
        self.used_tokens -= freed
        return freed

    def evict_to_fit(self, now_ms: float) -> List[Tuple[int, float]]:
        """Evict LRU residents until occupancy fits (or only the MRU is left).

        Finished sequences (completion at or before ``now_ms``) go first and
        cost nothing.  If occupancy still exceeds capacity, still-running
        victims are evicted oldest-first; each returns ``(sequence_id,
        recompute_ms)`` — the re-prefill charge its decode slot must absorb.
        """
        charges: List[Tuple[int, float]] = []
        if not self.over_capacity():
            return charges
        order = list(self._resident)
        mru = order[-1] if order else None
        for active_pass in (False, True):
            for seq_id in order:
                if not self.over_capacity():
                    return charges
                if seq_id == mru or seq_id not in self._resident:
                    continue
                victim = self._resident[seq_id]
                running = victim.completion_ms > now_ms
                if running != active_pass:
                    continue
                del self._resident[seq_id]
                freed = self._free(victim)
                self.evictions += 1
                self.evicted_tokens += freed
                if running:
                    self.recompute_tokens += victim.unique_tokens
                    charges.append((seq_id, victim.unique_tokens
                                    * self.recompute_ms_per_token))
        return charges
