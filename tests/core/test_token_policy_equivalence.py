"""The O(1)-per-token generative policy and the scalar prediction path against
their pre-rewrite versions (``tests/core/_seed_token_policy.py``).

Both properties require *bit-identical* behaviour: the live policy keeps
running exit counts and tunes from per-bin counts, the seed rescans its
window per token and per candidate, and the two must agree on every
threshold, position and counter after every feedback call; the scalar
prediction methods must return the same float bits as the numpy-scalar ones,
and the vectorized ones (``np.exp`` on multi-element arrays,
``ramp_error_score``, ``PredictionModel.ramp_signals``) the same bits as the
scalar ones, element by element.
"""

import struct

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.generative import ApparateTokenPolicy, generative_ramp_depths
from repro.generative.parallel import TokenFeedback
from repro.models.prediction import (PredictionModel, _error_score,
                                     ramp_error_score)
from repro.models.zoo import get_model
from tests.core._seed_token_policy import SeedPredictionModel, SeedTokenPolicy

SETTINGS = settings(max_examples=200, deadline=None)

T5 = get_model("t5-large")
T5_DEPTHS = generative_ramp_depths("t5-large")
#: The thresholds a tuning round tries; errors equal to one of them sit
#: exactly on a searchsorted boundary.
CANDIDATES = np.arange(0.02, 0.99, 0.02).tolist()


def _bits(value):
    return None if value is None else struct.pack("<d", value)


# ----------------------------------------------------------- token policy

def _segment_records(kind, length, seed):
    """``length`` (error, correct) feedback records of one stream regime."""
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        errors, correct = rng.random(length), rng.random(length) < 0.9
    elif kind == "easy":          # confident and right: thresholds climb
        errors, correct = rng.uniform(0.0, 0.1, length), rng.random(length) < 0.995
    elif kind == "wrong":         # confident and wrong: violations, re-tunes
        errors, correct = rng.uniform(0.0, 0.05, length), np.zeros(length, bool)
    elif kind == "hard":          # rarely confident: the ramp moves later
        errors, correct = rng.uniform(0.9, 1.0, length), rng.random(length) < 0.3
    elif kind == "duplicates":    # heavy ties in the sort
        errors = rng.choice([0.1, 0.3, 0.5], length)
        correct = rng.random(length) < 0.8
    else:                         # "candidates": errors on the tuning grid
        errors = rng.choice(CANDIDATES, length)
        correct = rng.random(length) < 0.95
    return list(zip(errors.tolist(), correct.tolist()))


_feedback_step = st.tuples(
    st.just("feedback"),
    st.sampled_from(["uniform", "easy", "wrong", "hard", "duplicates",
                     "candidates"]),
    st.integers(1, 300),           # records in the segment
    st.integers(0, 2 ** 16),       # segment seed
    st.integers(1, 40))            # records per feedback call
_threshold_step = st.tuples(
    st.just("threshold"),
    st.one_of(st.sampled_from(CANDIDATES), st.just(0.0),
              st.floats(-0.2, 1.2)))


def _assert_same_state(seed, live):
    assert live.threshold == seed.threshold
    assert _bits(live.threshold) == _bits(seed.threshold)
    assert live.position == seed.position
    assert live.threshold_tunings == seed.threshold_tunings
    assert live.position_moves == seed.position_moves
    assert live.tokens_seen == seed.tokens_seen
    assert live.tokens_since_move == seed.tokens_since_move
    assert live._released_accuracy() == seed._released_accuracy(seed.threshold)


@SETTINGS
@given(window=st.one_of(st.integers(16, 127),   # too small to move the ramp
                        st.integers(128, 256)),
       refresh_period=st.integers(4, 40),
       adjustment_period=st.integers(8, 96),
       initial_position=st.integers(0, len(T5_DEPTHS) - 1),
       accuracy_constraint=st.sampled_from([0.005, 0.01, 0.05, 0.2]),
       tuning_safety=st.sampled_from([0.25, 1.0]),
       steps=st.lists(st.one_of(_feedback_step, _threshold_step),
                      min_size=1, max_size=14),
       probe=st.tuples(st.floats(-0.2, 1.2), st.floats(0.01, 0.2)))
def test_live_policy_matches_seed_policy(window, refresh_period,
                                         adjustment_period, initial_position,
                                         accuracy_constraint, tuning_safety,
                                         steps, probe):
    kwargs = dict(accuracy_constraint=accuracy_constraint, window=window,
                  refresh_period=refresh_period,
                  adjustment_period=adjustment_period,
                  initial_position=initial_position,
                  tuning_safety=tuning_safety)
    seed = SeedTokenPolicy(SeedPredictionModel(T5), T5_DEPTHS, **kwargs)
    live = ApparateTokenPolicy(PredictionModel(T5), T5_DEPTHS, **kwargs)
    raw, sharpness = probe
    token = 0
    for step in steps:
        if step[0] == "threshold":
            seed.threshold = live.threshold = step[1]
            _assert_same_state(seed, live)
            continue
        _, kind, length, segment_seed, per_call = step
        records = [TokenFeedback(0, token + i, error, False, correct)
                   for i, (error, correct)
                   in enumerate(_segment_records(kind, length, segment_seed))]
        token += length
        for start in range(0, length, per_call):
            batch = records[start:start + per_call]
            seed.feedback(batch)
            live.feedback(batch)
            _assert_same_state(seed, live)
            assert live.decide(0, token, raw, sharpness) \
                == seed.decide(0, token, raw, sharpness)


# ------------------------------------------------------- prediction model

_raw = st.one_of(st.floats(-0.5, 1.5), st.sampled_from([0.0, -0.0, 1.0]))
_depth = st.floats(0.0, 1.0)
_sharpness = st.one_of(st.floats(0.0, 0.5), st.sampled_from([1e-6, 1e-9]))
_shift = st.floats(-0.5, 0.5)
_model = st.sampled_from(["resnet50", "bert-base", "t5-large", "llama2-7b"])


@SETTINGS
@given(model=_model, raw=_raw, depth=_depth, sharpness=_sharpness,
       shift=_shift)
def test_scalar_scores_match_numpy_scalar_path(model, raw, depth, sharpness,
                                               shift):
    live, seed = PredictionModel(get_model(model)), SeedPredictionModel(get_model(model))
    assert _bits(live.required_depth(raw)) == _bits(seed.required_depth(raw))
    assert _bits(live.error_score(raw, depth)) == _bits(seed.error_score(raw, depth))
    assert _bits(live.error_score(raw, depth, sharpness, shift)) \
        == _bits(seed.error_score(raw, depth, sharpness, shift))


@SETTINGS
@given(model=_model, raw=_raw, sharpness=_sharpness, shift=_shift,
       depths=st.lists(_depth, min_size=1, max_size=6),
       thresholds=st.lists(st.one_of(st.floats(-0.1, 1.0), st.just(0.0)),
                           min_size=6, max_size=6))
def test_scalar_observe_and_exit_depth_match_numpy_scalar_path(
        model, raw, sharpness, shift, depths, thresholds):
    live, seed = PredictionModel(get_model(model)), SeedPredictionModel(get_model(model))
    depths = sorted(depths)
    ramp_ids = list(range(len(depths)))
    want = seed.observe(raw, sharpness, ramp_ids, depths, confidence_shift=shift)
    assert [live.is_correct(raw, depth) for depth in depths] == [o.correct for o in want]
    assert [_bits(live.error_score(raw, depth, sharpness, shift)) for depth in depths] \
        == [_bits(o.error_score) for o in want]
    assert _bits(live.exit_depth(raw, sharpness, depths, thresholds, shift)) \
        == _bits(seed.exit_depth(raw, sharpness, depths, thresholds, shift))


# ------------------------------------------- vectorized against scalar path

_z = st.one_of(st.floats(-800.0, 800.0),
               st.sampled_from([0.0, -0.0, 709.8, -709.8, 745.2, -745.2,
                                746.0, -746.0, 1e-300, -1e-300]))


@SETTINGS
@given(zs=st.lists(_z, min_size=1, max_size=70))
def test_array_exp_matches_scalar_exp(zs):
    """numpy may take a SIMD ``exp`` loop on multi-element arrays; every
    element must still carry the scalar call's bits, through overflow
    (z > 709), underflow (z < -745) and signed zeros."""
    with np.errstate(over="ignore", under="ignore"):
        got = np.exp(np.array(zs)).tolist()
        want = [float(np.exp(z)) for z in zs]
    assert list(map(_bits, got)) == list(map(_bits, want))


@SETTINGS
@given(model=_model, depth=_depth, shift=_shift,
       rows=st.lists(st.tuples(_raw, _sharpness), min_size=1, max_size=70))
def test_vector_scores_match_scalar_path(model, depth, shift, rows):
    """``ramp_error_score`` on arrays and ``ramp_signals`` against the
    scalar ``_error_score``, ``error_score`` and ``is_correct``.  Sharpness
    at or below the 1e-6 clamp puts |z| far past 745."""
    live = PredictionModel(get_model(model))
    raw = np.array([r for r, _ in rows])
    sharpness = np.array([s for _, s in rows])
    required = live.required_depths(raw)
    with np.errstate(over="ignore"):
        scores = np.asarray(ramp_error_score(required, depth, sharpness,
                                             shift)).tolist()
        want = [_error_score(d, depth, s, shift)
                for d, s in zip(required.tolist(), sharpness.tolist())]
        errors, agree = live.ramp_signals(raw, depth, sharpness)
        want_errors = [live.error_score(r, depth, s) for r, s in rows]
    assert list(map(_bits, scores)) == list(map(_bits, want))
    assert list(map(_bits, errors)) == list(map(_bits, want_errors))
    assert agree == [live.is_correct(r, depth) for r, _ in rows]


def test_position_is_judged_after_the_same_records_tuning():
    """A refresh and a position judgement on the same record: the judgement
    sees the freshly tuned threshold (a drop to 0 skips it), as in the seed."""
    kwargs = dict(window=128, refresh_period=8, adjustment_period=8,
                  initial_position=len(T5_DEPTHS) // 2)
    seed = SeedTokenPolicy(SeedPredictionModel(T5), T5_DEPTHS, **kwargs)
    live = ApparateTokenPolicy(PredictionModel(T5), T5_DEPTHS, **kwargs)
    rng = np.random.default_rng(11)
    token = 0
    for _ in range(12):
        # Confident and right (thresholds climb), then confident and wrong
        # (a tuning round drops the threshold to 0 on a judgement record).
        for error, correct in [(0.01, True)] * 150 + [(0.01, False)] * 40:
            record = TokenFeedback(0, token, error + 0.001 * rng.random(),
                                   False, correct)
            token += 1
            seed.feedback([record])
            live.feedback([record])
            _assert_same_state(seed, live)
