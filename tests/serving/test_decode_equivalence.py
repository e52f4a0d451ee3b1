"""The columnar decode path against its per-token seed
(``tests/serving/_seed_decode.py``).

The live ``ContinuousBatchingEngine.decode_stream`` takes a stream's exit
signals from one policy call, walks parallel-decoding instances and writes
token columns; the seed decides, records and feeds back one token at a time.
For vanilla, Apparate (random threshold, position, pre-filled window, one
policy shared by several streams and two replicas' metrics), FREE and the
oracle, on streams of 0-200 tokens with difficulties of 0, 1 and exactly at
a candidate depth and sharpness below the 1e-6 clamp, the two paths must
agree **bit for bit** on the returned completion time, the token columns,
``sequence_accuracy``, deferred-token and flush counts, the feedback batches
the policy is fed, its state after every stream and ``summary()``.
"""

import struct

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.baselines.free import FreeTokenPolicy
from repro.baselines.oracle import OracleTokenPolicy
from repro.core.generative import ApparateTokenPolicy, generative_ramp_depths
from repro.generative.decoding import DecodeTimingModel
from repro.generative.parallel import TokenFeedback
from repro.generative.sequences import SequenceSample
from repro.models.prediction import PredictionModel
from repro.models.zoo import get_model
from repro.serving.hf_pipelines import (ContinuousBatchingEngine,
                                        GenerativeMetrics, VanillaTokenPolicy)
from tests.serving._seed_decode import (SeedApparateTokenPolicy, SeedEngine,
                                        SeedFreeTokenPolicy,
                                        SeedGenerativeMetrics,
                                        SeedOracleTokenPolicy)

SETTINGS = settings(max_examples=150, deadline=None)

T5 = get_model("t5-large")
DEPTHS = generative_ramp_depths("t5-large")
#: The thresholds a tuning round tries.
CANDIDATES = np.arange(0.02, 0.99, 0.02).tolist()


def _tie_difficulties():
    """Raw difficulties whose required depth is exactly a candidate depth
    (the ``depth >= required`` tie of ``is_correct`` and the oracle)."""
    headroom = T5.headroom
    ties = []
    for depth in DEPTHS:
        raw = (depth - (1.0 - headroom)) / headroom
        for value in (raw, np.nextafter(raw, 2.0), np.nextafter(raw, -1.0)):
            value = float(value)
            if 0.0 <= value <= 1.0 and 1.0 - headroom + headroom * value == depth:
                ties.append(value)
                break
    return ties


TIES = _tie_difficulties()


def _bits(value):
    if isinstance(value, float):
        return struct.pack("<d", value)
    return value


# ---------------------------------------------------------------- strategies

@st.composite
def _stream(draw):
    """(difficulty, sharpness) arrays of one stream."""
    n = draw(st.integers(0, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    regime = draw(st.sampled_from(["uniform", "easy", "hard", "special"]))
    if regime == "easy":
        difficulty = rng.uniform(0.0, 0.3, n)
    elif regime == "hard":
        difficulty = rng.uniform(0.7, 1.0, n)
    else:
        difficulty = rng.random(n)
    special = rng.random(n) < (0.6 if regime == "special" else 0.1)
    difficulty[special] = rng.choice([0.0, 1.0] + TIES, int(special.sum()))
    sharpness = rng.uniform(0.005, 0.2, n)
    tiny = rng.random(n) < 0.1
    sharpness[tiny] = rng.choice([0.0, 1e-9, 5e-7], int(tiny.sum()))
    return difficulty, sharpness


def _prefill_records(n, seed):
    rng = np.random.default_rng(seed)
    errors = rng.random(n) ** 2
    correct = rng.random(n) >= 0.1 * errors
    return [TokenFeedback(0, i, e, False, c)
            for i, (e, c) in enumerate(zip(errors.tolist(), correct.tolist()))]


@st.composite
def _apparate(draw):
    kwargs = dict(window=draw(st.integers(16, 256)),
                  refresh_period=draw(st.integers(4, 40)),
                  adjustment_period=draw(st.integers(8, 64)),
                  initial_position=draw(st.integers(0, len(DEPTHS) - 1)),
                  accuracy_constraint=draw(st.sampled_from([0.005, 0.01, 0.05,
                                                            0.2])))
    live = ApparateTokenPolicy(PredictionModel(T5), DEPTHS, **kwargs)
    seed = SeedApparateTokenPolicy(PredictionModel(T5), DEPTHS, **kwargs)
    records = _prefill_records(draw(st.integers(0, 400)),
                               draw(st.integers(0, 2 ** 16)))
    for start in range(0, len(records), 7):
        live.feedback(records[start:start + 7])
        seed.feedback(records[start:start + 7])
    threshold = draw(st.one_of(st.none(), st.just(0.0),
                               st.sampled_from(CANDIDATES),
                               st.floats(-0.1, 1.0)))
    if threshold is not None:
        live.threshold = seed.threshold = threshold
    return live, seed


@st.composite
def _free(draw):
    depth = draw(st.sampled_from(DEPTHS))
    threshold = draw(st.one_of(st.just(0.0), st.sampled_from(CANDIDATES),
                               st.floats(-0.1, 1.0)))
    prediction = PredictionModel(T5)
    return (FreeTokenPolicy(prediction, depth, threshold),
            SeedFreeTokenPolicy(prediction, depth, threshold))


_policies = st.one_of(
    st.just("vanilla").map(lambda _: (VanillaTokenPolicy(), VanillaTokenPolicy())),
    _apparate(),
    _free(),
    st.just("oracle").map(lambda _: (
        OracleTokenPolicy(PredictionModel(T5), DEPTHS),
        SeedOracleTokenPolicy(PredictionModel(T5), DEPTHS))))


# ---------------------------------------------------------------- assertions

def _assert_same_policy(live, seed):
    if not isinstance(live, ApparateTokenPolicy):
        return
    for name in ("threshold", "position", "threshold_tunings", "position_moves",
                 "tokens_seen", "tokens_since_move", "_size", "_next", "_exits",
                 "_exits_correct"):
        assert _bits(getattr(live, name)) == _bits(getattr(seed, name)), name
    size = live._size
    assert list(map(_bits, live._errors[:size])) \
        == list(map(_bits, seed._errors[:size]))
    assert live._correct[:size] == seed._correct[:size]
    assert live._released_accuracy() == seed._released_accuracy()


def _assert_same_metrics(live, seed):
    assert [tuple(map(_bits, record)) for record in live.tokens] == [
        tuple(map(_bits, (r.sequence_id, r.token_index, r.release_ms, r.tpt_ms,
                          r.exited, r.exit_depth, r.correct)))
        for r in seed.tokens]
    assert {k: _bits(v) for k, v in live.sequence_accuracy.items()} \
        == {k: _bits(v) for k, v in seed.sequence_accuracy.items()}
    assert live.deferred_tokens == seed.deferred_tokens
    assert live.deferred_flushes == seed.deferred_flushes
    assert {k: _bits(v) for k, v in live.summary().items()} \
        == {k: _bits(v) for k, v in seed.summary().items()}


def _record_feedback(policy):
    """Log (as float bits) every batch of records ``policy`` is fed."""
    batches = []
    feedback = policy.feedback

    def recorded(records):
        batches.append([tuple(map(_bits, record)) for record in records])
        return feedback(records)

    policy.feedback = recorded
    return batches


def _decode_both(policies, streams, speed, flush_limit, overhead):
    """Decode ``streams`` one after another through both paths, alternating
    between two replicas' metrics; the two policies must be fed the same
    feedback batches.  Returns the metrics pairs."""
    live_policy, seed_policy = policies
    live_batches = _record_feedback(live_policy)
    seed_batches = _record_feedback(seed_policy)
    timing = DecodeTimingModel(T5, ramp_overhead_fraction=overhead)
    live_engine = ContinuousBatchingEngine(timing, flush_limit=flush_limit)
    seed_engine = SeedEngine(timing, flush_limit=flush_limit)
    live_parts = [GenerativeMetrics(), GenerativeMetrics()]
    seed_parts = [SeedGenerativeMetrics(), SeedGenerativeMetrics()]
    now = 0.0
    for sid, (difficulty, sharpness) in enumerate(streams):
        sample = SequenceSample(sequence_id=sid, arrival_ms=now,
                                token_difficulty=difficulty,
                                token_sharpness=sharpness)
        delay = 3.25 * sid
        live, seed = live_parts[sid % 2], seed_parts[sid % 2]
        live.queueing_delays_ms[sid] = seed.queueing_delays_ms[sid] = delay
        got = live_engine.decode_stream(sample, now + delay, live_policy, live,
                                        speed=speed)
        want = seed_engine.decode_stream(sample, now + delay, seed_policy, seed,
                                         speed=speed)
        assert _bits(got) == _bits(want)
        assert live_batches == seed_batches
        _assert_same_policy(live_policy, seed_policy)
        now = got
    for live, seed in zip(live_parts, seed_parts):
        live.makespan_ms = seed.makespan_ms = max(now, 1e-9)
    return live_parts, seed_parts


# ---------------------------------------------------------------- properties

def test_tie_difficulties_exist():
    """The strategies below really hit the ``depth >= required`` tie."""
    assert TIES


@SETTINGS
@given(policies=_policies, streams=st.lists(_stream(), min_size=1, max_size=3),
       speed=st.sampled_from([0.5, 1.0, 2.0]),
       flush_limit=st.sampled_from([1, 2, 8]),
       overhead=st.sampled_from([0.0, 0.005]))
def test_decode_path_matches_seed(policies, streams, speed, flush_limit,
                                  overhead):
    live_parts, seed_parts = _decode_both(policies, streams, speed,
                                          flush_limit, overhead)
    for live, seed in zip(live_parts, seed_parts):
        _assert_same_metrics(live, seed)
    _assert_same_metrics(GenerativeMetrics.merged(live_parts),
                         SeedGenerativeMetrics.merged(seed_parts))


class _CountingPolicy(ApparateTokenPolicy):
    """Counts the engine's signal requests (one per stream, plus one per
    mid-stream ramp move)."""

    signal_calls = 0

    def signals(self, difficulty, sharpness):
        self.signal_calls += 1
        return super().signals(difficulty, sharpness)


def test_ramp_moves_mid_stream_match_seed():
    """A shallow ramp on hard tokens moves later inside the stream; the
    engine re-asks for signals and still matches the seed token for token."""
    kwargs = dict(window=128, refresh_period=8, adjustment_period=8,
                  initial_position=0)
    live = _CountingPolicy(PredictionModel(T5), DEPTHS, **kwargs)
    seed = SeedApparateTokenPolicy(PredictionModel(T5), DEPTHS, **kwargs)
    records = [TokenFeedback(0, i, 0.01, False, True) for i in range(200)]
    live.feedback(records)
    seed.feedback(records)
    moves = live.position_moves
    rng = np.random.default_rng(5)
    streams = [(rng.uniform(0.8, 1.0, 200), rng.uniform(0.01, 0.1, 200))
               for _ in range(2)]
    live_parts, seed_parts = _decode_both((live, seed), streams, 1.0, 8, 0.005)
    assert live.position_moves > moves
    assert live.signal_calls > len(streams)
    for live_metrics, seed_metrics in zip(live_parts, seed_parts):
        _assert_same_metrics(live_metrics, seed_metrics)
