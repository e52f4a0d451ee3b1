"""Synthetic generative workloads (CNN/DailyMail- and SQuAD-like).

Each request is a *sequence*: a prompt followed by a number of generated
tokens.  Per-token difficulty evolves with strong auto-regressive continuity
(shared state across tokens of one sequence), which is why the paper finds
generative adaptation closes most of the gap to the optimal (§4.3).  The two
presets differ in output length and difficulty statistics:

* ``cnn-dailymail`` — summarization: longer outputs (~60 tokens), moderate
  difficulty with many easy function-word tokens.
* ``squad`` — question answering: short outputs (~12 tokens), slightly harder
  tokens on average.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.utils.rng import RngFactory
from repro.workloads.arrivals import (diurnal_arrivals,
                                      flash_crowd_arrivals, poisson_arrivals,
                                      trace_arrivals)
from repro.workloads.difficulty import resolve_preset

__all__ = ["SequenceSample", "GenerativeWorkload", "make_generative_workload",
           "GENERATIVE_DATASET_PRESETS"]

GENERATIVE_DATASET_PRESETS: Dict[str, Dict[str, float]] = {
    "cnn-dailymail": {"mean_output_tokens": 60, "min_output_tokens": 16,
                      "mean_prompt_tokens": 512, "min_prompt_tokens": 96,
                      "difficulty_mean": 0.22, "difficulty_spread": 0.09,
                      "token_volatility": 0.06},
    "squad": {"mean_output_tokens": 12, "min_output_tokens": 3,
              "mean_prompt_tokens": 160, "min_prompt_tokens": 32,
              "difficulty_mean": 0.30, "difficulty_spread": 0.12,
              "token_volatility": 0.08},
}


@dataclass
class SequenceSample:
    """One generative request: per-token raw difficulties and sharpness.

    ``prompt_tokens`` is the prompt length the sequence was conditioned on.
    The decode-only engine ignores it (prompts are assumed pre-processed);
    the prefill/decode disaggregated platform charges chunked prefill compute
    and KV-transfer time for it (see :mod:`repro.serving.disagg`).
    """

    sequence_id: int
    arrival_ms: float
    token_difficulty: np.ndarray
    token_sharpness: np.ndarray
    prompt_tokens: int = 0
    #: tenant class tag; "default" means untenanted.  The tenancy layer
    #: honours pre-tagged sequences whose tag names a configured tenant.
    tenant: str = "default"
    #: shared-prefix structure: sequences of one ``prefix_group`` open with
    #: the same ``shared_prefix_tokens``-token prefix (system prompt / few-shot
    #: header reuse).  ``None`` means no shared prefix; the shared tokens are
    #: *included* in ``prompt_tokens``.
    prefix_group: Optional[int] = None
    shared_prefix_tokens: int = 0

    def __post_init__(self) -> None:
        if int(self.prompt_tokens) < 0:
            raise ValueError(f"prompt_tokens must be >= 0, got {self.prompt_tokens}")
        self.prompt_tokens = int(self.prompt_tokens)
        self.shared_prefix_tokens = int(self.shared_prefix_tokens)
        if self.prefix_group is None:
            if self.shared_prefix_tokens != 0:
                raise ValueError("shared_prefix_tokens requires a prefix_group")
        elif not 0 <= self.shared_prefix_tokens <= self.prompt_tokens:
            raise ValueError(f"shared_prefix_tokens must be in "
                             f"[0, prompt_tokens={self.prompt_tokens}], "
                             f"got {self.shared_prefix_tokens}")
        self.token_difficulty = np.clip(np.asarray(self.token_difficulty, dtype=float), 0.0, 1.0)
        self.token_sharpness = np.asarray(self.token_sharpness, dtype=float)
        if self.token_difficulty.shape != self.token_sharpness.shape:
            raise ValueError("token difficulty and sharpness must have equal length")

    @property
    def num_tokens(self) -> int:
        return int(self.token_difficulty.size)


@dataclass
class GenerativeWorkload:
    """A stream of generative requests with arrival times."""

    name: str
    sequences: List[SequenceSample] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.sequences)

    def total_tokens(self) -> int:
        return sum(s.num_tokens for s in self.sequences)

    def mean_output_length(self) -> float:
        if not self.sequences:
            return 0.0
        return self.total_tokens() / len(self.sequences)

    def total_prompt_tokens(self) -> int:
        return sum(s.prompt_tokens for s in self.sequences)

    def mean_prompt_length(self) -> float:
        if not self.sequences:
            return 0.0
        return self.total_prompt_tokens() / len(self.sequences)


def make_generative_workload(dataset: str = "cnn-dailymail", num_sequences: int = 200,
                             rate_qps: float = 2.0, seed: int = 0,
                             drift_amplitude: float = 0.15, drift_mode: str = "walk",
                             arrival_process: str = "poisson",
                             diurnal_period_s: float = 60.0,
                             preset_overrides: Optional[Dict[str, float]] = None,
                             prefix_groups: int = 0,
                             prefix_share: float = 0.8,
                             prefix_tokens: int = 256) -> GenerativeWorkload:
    """Create a synthetic generative workload with Poisson arrivals (§4.1).

    ``drift_amplitude`` controls how much the stream's topic difficulty drifts
    over time; ``drift_mode`` selects a slow random walk of the per-sequence
    mean (``"walk"``) or a monotone trend toward harder content (``"trend"``).
    Drift is what makes one-time-tuned baselines such as FREE lose accuracy
    while Apparate's runtime adaptation holds the constraint (§4.4).

    ``arrival_process`` selects ``"poisson"`` (the paper's setup),
    ``"diurnal"`` — a compressed day/night cycle whose per-second rate traces
    a raised cosine between ``rate_qps / 4`` and ``7/4 * rate_qps`` (mean
    ``rate_qps``) every ``diurnal_period_s`` seconds, the workload shape the
    autoscaling and pool-sizing studies exercise — ``"flash_crowd"`` (Poisson
    baseline with a sudden sustained 4x spike), or ``"trace:<path>"``
    (replay a CSV of arrival timestamps in ms).

    ``prefix_groups`` adds shared-prefix structure (system-prompt / few-shot
    header reuse): with ``G > 0`` groups, each sequence joins a uniformly
    chosen group with probability ``prefix_share`` and *prepends* that
    group's shared prefix (length ~ Poisson around ``prefix_tokens``) to its
    prompt.  The structure draws from a dedicated ``prefix`` RNG stream, so
    every existing trace (``prefix_groups=0``, the default) stays
    bit-identical.
    """
    rng_factory = RngFactory(seed)
    preset = resolve_preset(GENERATIVE_DATASET_PRESETS, dataset,
                            preset_overrides)

    length_rng = rng_factory.generator(f"gen:{dataset}:lengths")
    prompt_rng = rng_factory.generator(f"gen:{dataset}:prompts")
    difficulty_rng = rng_factory.generator(f"gen:{dataset}:difficulty")
    drift_rng = rng_factory.generator(f"gen:{dataset}:drift")
    arrival_rng = rng_factory.generator(f"gen:{dataset}:arrivals")
    if arrival_process == "poisson":
        arrivals = poisson_arrivals(num_sequences, rate_qps, arrival_rng)
    elif arrival_process == "diurnal":
        arrivals = diurnal_arrivals(num_sequences, low_qps=0.25 * rate_qps,
                                    high_qps=1.75 * rate_qps,
                                    period_s=diurnal_period_s, rng=arrival_rng)
    elif arrival_process == "flash_crowd":
        arrivals = flash_crowd_arrivals(num_sequences, rate_qps, arrival_rng)
    elif arrival_process.startswith("trace:"):
        arrivals = trace_arrivals(num_sequences,
                                  arrival_process[len("trace:"):])
    else:
        raise ValueError(f"unknown arrival_process {arrival_process!r}; "
                         "choose from ('poisson', 'diurnal', 'flash_crowd', "
                         "'trace:<path>')")

    # Per-sequence difficulty drift over the stream (topic drift).
    drift = np.zeros(num_sequences)
    if num_sequences > 1 and drift_amplitude > 0.0:
        if drift_mode == "trend":
            drift = np.linspace(0.0, drift_amplitude, num_sequences)
        elif drift_mode == "walk":
            steps = drift_rng.normal(0.0, drift_amplitude / np.sqrt(num_sequences),
                                     size=num_sequences)
            drift = np.clip(np.cumsum(steps), -drift_amplitude, drift_amplitude)
        else:
            raise ValueError(f"unknown drift_mode {drift_mode!r}")

    # Shared-prefix structure on its own named stream: drawing it only when
    # enabled leaves every other stream's draws untouched.
    if int(prefix_groups) < 0:
        raise ValueError(f"prefix_groups must be >= 0, got {prefix_groups}")
    group_of: List[Optional[int]] = [None] * num_sequences
    shared_of = [0] * num_sequences
    if int(prefix_groups) > 0:
        if not 0.0 < float(prefix_share) <= 1.0:
            raise ValueError(f"prefix_share must be in (0, 1], "
                             f"got {prefix_share}")
        if int(prefix_tokens) < 1:
            raise ValueError(f"prefix_tokens must be >= 1, got {prefix_tokens}")
        prefix_rng = rng_factory.generator(f"gen:{dataset}:prefix")
        group_lengths = [int(max(16, prefix_rng.poisson(int(prefix_tokens))))
                         for _ in range(int(prefix_groups))]
        for seq_id in range(num_sequences):
            if prefix_rng.random() < float(prefix_share):
                group = int(prefix_rng.integers(int(prefix_groups)))
                group_of[seq_id] = group
                shared_of[seq_id] = group_lengths[group]

    sequences: List[SequenceSample] = []
    for seq_id in range(num_sequences):
        length = int(max(preset["min_output_tokens"],
                         length_rng.poisson(preset["mean_output_tokens"])))
        prompt = int(max(preset["min_prompt_tokens"],
                         prompt_rng.poisson(preset["mean_prompt_tokens"])))
        base = float(np.clip(difficulty_rng.normal(preset["difficulty_mean"] + drift[seq_id],
                                                   preset["difficulty_spread"]), 0.02, 0.95))
        # Tokens within a sequence follow a small random walk around the
        # sequence's base difficulty (auto-regressive continuity).
        steps = difficulty_rng.normal(0.0, preset["token_volatility"], size=length)
        difficulties = np.clip(base + np.cumsum(steps) * 0.3, 0.0, 1.0)
        sharpness = difficulty_rng.uniform(0.03, 0.10, size=length)
        sequences.append(SequenceSample(
            sequence_id=seq_id,
            arrival_ms=float(arrivals[seq_id]),
            token_difficulty=difficulties,
            token_sharpness=sharpness,
            prompt_tokens=prompt + shared_of[seq_id],
            prefix_group=group_of[seq_id],
            shared_prefix_tokens=shared_of[seq_id],
        ))
    return GenerativeWorkload(name=dataset, sequences=sequences)
