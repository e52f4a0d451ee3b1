"""Tests for the generative serving engine and decode timing model."""

import pytest

from repro.generative.decoding import DecodeTimingModel
from repro.generative.parallel import TokenFeedback
from repro.generative.sequences import make_generative_workload
from repro.models.zoo import get_model
from repro.serving.generative_cluster import GenerativeClusterPlatform
from repro.serving.hf_pipelines import (
    ContinuousBatchingEngine,
    TokenDecision,
    VanillaTokenPolicy,
)
from tests.serving._seed_decode import ParallelDecodingState, truncate_feedback


def serve(engine, workload, policy):
    """Decode ``workload`` on a fleet of one ``engine`` replica."""
    return GenerativeClusterPlatform([engine]).run(
        workload, lambda ordinal: policy).aggregate()


class FixedExitPolicy:
    """Exit every token at a fixed depth (for deterministic engine tests)."""

    threshold = 0.5

    def __init__(self, depth=0.3, exit_every=1, correct=True):
        self.depth = depth
        self.exit_every = exit_every
        self.correct = correct
        self.calls = 0
        self.feedback_batches = []

    def signals(self, difficulty, sharpness):
        self.calls += 1
        n = len(difficulty)
        exited = [(i % self.exit_every) == 0 if self.exit_every > 1 else True
                  for i in range(n)]
        return ([self.depth] * n, [0.1 if e else 0.9 for e in exited],
                [self.correct] * n)

    def decide(self, sequence_id, token_index, raw_difficulty, sharpness):
        exited = (token_index % self.exit_every) == 0 if self.exit_every > 1 else True
        return TokenDecision(exited=exited, exit_depth=self.depth if exited else None,
                             error_score=0.1 if exited else 0.9, correct=self.correct)

    def feedback(self, records):
        self.feedback_batches.append(list(records))


@pytest.fixture(scope="module")
def timing():
    return DecodeTimingModel(get_model("t5-large"), ramp_overhead_fraction=0.005)


def test_timing_model_rejects_non_generative_spec():
    with pytest.raises(ValueError):
        DecodeTimingModel(get_model("resnet50"))


def test_full_step_grows_with_batch(timing):
    assert timing.full_step_ms(8) > timing.full_step_ms(1)


def test_partial_step_proportional_to_depth(timing):
    assert timing.partial_step_ms(1, 0.5) == pytest.approx(timing.full_step_ms(1) * 0.5)


def test_deferred_tail_cost_is_marginal(timing):
    """Running deferred tails batched with a step costs far less than a full step."""
    assert timing.deferred_tail_ms(0.3, 4, 1) < timing.full_step_ms(1) * 0.5
    assert timing.deferred_tail_ms(0.3, 0, 1) == 0.0


def test_flush_step_cost(timing):
    assert timing.flush_step_ms(0.3, 0) == 0.0
    assert timing.flush_step_ms(0.3, 4) > timing.flush_step_ms(0.3, 1)


class TestParallelDecodingState:
    def test_defer_and_flush(self):
        state = ParallelDecodingState(flush_limit=3)
        state.defer(0.5)
        state.defer(0.3)
        assert state.pending_tokens == 2
        assert state.pending_depth == pytest.approx(0.3)
        assert not state.needs_flush()
        state.defer(0.4)
        assert state.needs_flush()
        assert state.flush() == 3
        assert state.pending_tokens == 0
        assert state.total_flushes == 1

    def test_flush_when_empty(self):
        state = ParallelDecodingState()
        assert state.flush() == 0
        assert state.total_flushes == 0


def test_truncate_feedback_stops_after_first_wrong_exit():
    records = [
        TokenFeedback(0, 0, 0.1, True, True),
        TokenFeedback(0, 1, 0.1, True, False),
        TokenFeedback(0, 2, 0.1, True, True),
    ]
    kept = truncate_feedback(records)
    assert len(kept) == 2
    assert kept[-1].correct is False


def test_truncate_feedback_keeps_all_when_no_deviation():
    records = [TokenFeedback(0, i, 0.1, True, True) for i in range(5)]
    assert len(truncate_feedback(records)) == 5


def test_engine_vanilla_tpt_equals_step_time(timing, small_generative_workload):
    engine = ContinuousBatchingEngine(DecodeTimingModel(get_model("t5-large")),
                                      max_batch_size=4)
    metrics = serve(engine, small_generative_workload, VanillaTokenPolicy())
    assert metrics.exit_rate() == 0.0
    assert metrics.median_tpt() == pytest.approx(get_model("t5-large").bs1_latency_ms)
    assert len(metrics.tokens) == small_generative_workload.total_tokens()


def test_engine_exits_reduce_tpt(timing, small_generative_workload):
    engine = ContinuousBatchingEngine(timing, max_batch_size=4)
    policy = FixedExitPolicy(depth=0.3, exit_every=1)
    metrics = serve(engine, small_generative_workload, policy)
    vanilla_step = get_model("t5-large").bs1_latency_ms
    assert metrics.exit_rate() > 0.9
    assert metrics.median_tpt() < vanilla_step * 0.6


def test_engine_wrong_exits_lower_sequence_accuracy(timing, small_generative_workload):
    engine = ContinuousBatchingEngine(timing, max_batch_size=4)
    policy = FixedExitPolicy(depth=0.3, exit_every=1, correct=False)
    metrics = serve(engine, small_generative_workload, policy)
    assert metrics.mean_sequence_accuracy() < 0.1


def test_engine_mixed_exits_pay_deferred_tails(timing, small_generative_workload):
    engine = ContinuousBatchingEngine(timing, max_batch_size=4)
    policy = FixedExitPolicy(depth=0.3, exit_every=2)   # every other token exits
    metrics = serve(engine, small_generative_workload, policy)
    full_step = timing.full_step_ms(1)
    non_exited = [t.tpt_ms for t in metrics.tokens if not t.exited and t.token_index > 0]
    # Non-exiting tokens pay the full step plus a mild parallel-decoding penalty.
    assert min(non_exited) >= full_step
    assert max(non_exited) < full_step * 1.6


def test_engine_queueing_delays_reported(timing):
    workload = make_generative_workload("squad", num_sequences=30, rate_qps=20.0, seed=3)
    engine = ContinuousBatchingEngine(timing, max_batch_size=1)
    metrics = serve(engine, workload, VanillaTokenPolicy())
    assert metrics.median_queueing_ms() > 0.0


def test_engine_feedback_grouped_by_instance(timing, small_generative_workload):
    engine = ContinuousBatchingEngine(timing, max_batch_size=4)
    policy = FixedExitPolicy(depth=0.3, exit_every=3)
    serve(engine, small_generative_workload, policy)
    assert policy.feedback_batches
    # Every feedback batch ends either with a non-exited token (instance close)
    # or at the sequence end.
    for batch in policy.feedback_batches:
        assert all(isinstance(r, TokenFeedback) for r in batch)


def test_engine_rejects_invalid_batch_size(timing):
    with pytest.raises(ValueError):
        ContinuousBatchingEngine(timing, max_batch_size=0)


def test_engine_empty_workload(timing):
    from repro.generative.sequences import GenerativeWorkload
    engine = ContinuousBatchingEngine(timing)
    metrics = serve(engine, GenerativeWorkload(name="empty"), VanillaTokenPolicy())
    assert len(metrics.tokens) == 0
