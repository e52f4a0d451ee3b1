"""Token-level feedback of parallel decoding (§3.4).

When a token exits at a ramp, its hidden states are accumulated at that ramp
and its remaining layers are deferred; they execute batched alongside the
first subsequent non-exiting token (or a forced flush once too many tokens
have accumulated).  The same mechanism yields token-level accuracy feedback:
for each parallel-decoding instance, feedback is kept only up to the first
token whose exited result deviates from the original model — later tokens may
reflect cascading errors from inter-token dependencies and are discarded.
The engine (:meth:`repro.serving.hf_pipelines.ContinuousBatchingEngine.decode_stream`)
runs both rules; this module holds the record it streams to the policy.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["TokenFeedback"]


class TokenFeedback(NamedTuple):
    """Per-token feedback record streamed to the controller."""

    sequence_id: int
    token_index: int
    error_score: float
    exited: bool
    correct: bool
