"""Generative-LLM substrate: autoregressive decoding, parallel decoding, workloads.

Generative models add one complication to early exits (§3.4): each token needs
the key-value (KV) states of every preceding token, so when a token exits at a
ramp its remaining layers cannot simply be skipped — the next token would
stall waiting for KV states.  Apparate adopts parallel decoding: exited tokens
accumulate their hidden states at the ramp, and their remaining layers run
batched alongside the first subsequent non-exiting token.  This subpackage
provides the decode-step timing model, the token feedback record and
synthetic generative workloads (CNN/DailyMail-style summarization and
SQuAD-style question answering).
"""

from repro.generative.sequences import (
    SequenceSample,
    GenerativeWorkload,
    make_generative_workload,
)
from repro.generative.decoding import DecodeTimingModel, TokenRecord
from repro.generative.parallel import TokenFeedback

__all__ = [
    "SequenceSample",
    "GenerativeWorkload",
    "make_generative_workload",
    "DecodeTimingModel",
    "TokenRecord",
    "TokenFeedback",
]
