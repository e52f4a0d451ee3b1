"""The batched greedy tuner and the ring-buffer feedback window against their
pre-rewrite versions (``tests/exits/_seed_tuner.py``).

Both properties require *bit-identical* behaviour: the live tuner replays all
trial configurations of a round in one numpy pass, the seed calls
``evaluate_thresholds`` once per trial, and the two must agree on the
thresholds, round and evaluation counts and every ``ConfigEvaluation`` field;
the live window keeps two preallocated ring buffers, the seed a deque of rows,
and every read must return the same shapes, dtypes and values.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exits.evaluation import ConfigEvaluation, WindowBuffer, evaluate_thresholds
from repro.exits.thresholds import _TrialReplay, tune_thresholds_greedy
from repro.models.prediction import RampObservation
from tests.exits._seed_tuner import SeedWindowBuffer, seed_tune_thresholds_greedy

SETTINGS = settings(max_examples=200, deadline=None)


def _reachable_thresholds():
    """Thresholds the search can land on exactly (sums of its step sizes).

    An error equal to one of them sits exactly on a trial's ``<`` boundary.
    """
    steps = (0.1, 0.2, 0.4, 0.5, 0.05, 0.025, 0.0125, 0.01)
    frontier, seen = {0.0}, {0.0}
    for _ in range(3):
        frontier = {min(1.0, t + s) for t in frontier for s in steps} - seen
        seen |= frontier
    return np.array(sorted(seen))


REACHABLE = _reachable_thresholds()


def assert_same_evaluation(live: ConfigEvaluation, seed: ConfigEvaluation):
    for name in ("num_samples", "accuracy", "mean_savings_ms", "total_savings_ms",
                 "exit_rate"):
        assert getattr(live, name) == getattr(seed, name), name
    for name in ("exit_counts", "ramp_savings_ms", "ramp_overhead_ms"):
        live_arr, seed_arr = getattr(live, name), getattr(seed, name)
        assert live_arr.dtype == seed_arr.dtype, name
        assert np.array_equal(live_arr, seed_arr), name


def assert_same_tuning(live, seed):
    assert live.thresholds == seed.thresholds
    assert live.rounds == seed.rounds
    assert live.evaluations == seed.evaluations
    assert_same_evaluation(live.evaluation, seed.evaluation)


# ------------------------------------------------------------------- tuner

def _column(kind, n, rng):
    """One ramp's (errors, correct) column of a drawn window."""
    if kind == "uniform":
        errors = rng.random(n)
    elif kind == "skewed":          # confident ramps: thresholds climb
        errors = rng.random(n) ** 3
    elif kind == "reachable":       # errors on the search's own thresholds
        errors = rng.choice(REACHABLE, n)
    elif kind == "extremes":        # exactly 0.0 / 1.0, plus duplicates
        errors = rng.choice([0.0, 1.0, 0.1, 0.1 + 0.2, 0.5], n)
    elif kind == "signed":          # below 0: only ``threshold > 0`` stops exits
        errors = rng.choice([-0.1, -0.0, 0.0, 0.05, 0.5], n)
    else:                           # "duplicates": a handful of tied values
        errors = rng.choice(rng.random(3), n)
    agreement = rng.choice(["all", "none", "mostly", "mostly", "mostly", "coin"])
    if agreement == "all":
        correct = np.ones(n, dtype=bool)
    elif agreement == "none":
        correct = np.zeros(n, dtype=bool)
    elif agreement == "mostly":     # agreement falls with the error
        correct = rng.random(n) >= 0.05 * errors
    else:
        correct = rng.random(n) < 0.5
    return errors, correct


@st.composite
def windows(draw, max_rows=600):
    # Window sizes: empty, tiny, the controller's tuning sizes (48-256 rows)
    # and the full 512-row buffer or beyond.
    low, high = draw(st.sampled_from([(low, min(high, max_rows)) for low, high
                                      in ((0, 3), (4, 47), (48, 256), (257, 600))
                                      if low <= max_rows]))
    n = draw(st.integers(low, high))
    num_ramps = draw(st.sampled_from(range(11)))
    kinds = draw(st.lists(st.sampled_from(["uniform", "skewed", "reachable",
                                           "extremes", "signed", "duplicates"]),
                          min_size=num_ramps, max_size=num_ramps))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    columns = [_column(kind, n, rng) for kind in kinds]
    if num_ramps >= 2 and draw(st.booleans()):
        # A repeated column: with tied depths its trials tie on score, so
        # the first-in-ramp-order tie-break decides.
        columns[-1] = columns[0]
    errors = np.column_stack([c[0] for c in columns]) if columns \
        else np.zeros((n, 0))
    correct = np.column_stack([c[1] for c in columns]) if columns \
        else np.zeros((n, 0), dtype=bool)
    if draw(st.booleans()):
        depths = np.sort(rng.uniform(0.05, 0.95, num_ramps)).tolist()
        overheads_ms = rng.uniform(0.0, 0.5, num_ramps).tolist()
    else:                           # tied depths, free ramps: tied scores
        depths = np.sort(rng.choice([0.25, 0.5, 0.75], num_ramps)).tolist()
        overheads_ms = [0.0] * num_ramps
    full_latency_ms = draw(st.sampled_from([16.4, 20.0, 3.3, 103.0]))
    return errors, correct, depths, overheads_ms, full_latency_ms


_knobs = st.fixed_dictionaries({
    "accuracy_constraint": st.sampled_from([0.0, 0.0075, 0.01, 0.02, 0.05, 0.1, 0.5]),
    "conservative_margin": st.sampled_from([0.0, 0.5, 1.0, 3.0]),
    "initial_step": st.sampled_from([0.1, 0.1, 0.05, 0.3]),
    "min_step": st.sampled_from([0.01, 0.01, 0.02]),
    "max_rounds": st.sampled_from([200, 200, 200, 3]),
})


@SETTINGS
@given(window=windows(), knobs=_knobs)
def test_batched_tuner_matches_seed(window, knobs):
    errors, correct, depths, overheads_ms, full_latency_ms = window
    live = tune_thresholds_greedy(errors, correct, depths, overheads_ms,
                                  full_latency_ms, **knobs)
    seed = seed_tune_thresholds_greedy(errors, correct, depths, overheads_ms,
                                       full_latency_ms, **knobs)
    assert_same_tuning(live, seed)


@SETTINGS
@given(window=windows(), trial_seed=st.integers(0, 2 ** 32 - 1),
       num_trials=st.integers(1, 10))
def test_trial_scores_match_evaluate_thresholds(window, trial_seed, num_trials):
    """Each row of a batched replay scores exactly as ``evaluate_thresholds``
    scores it alone: same accuracy, and the same mean-savings bits (the same
    per-sample floats summed in the same pairwise order)."""
    errors, correct, depths, overheads_ms, full_latency_ms = window
    rng = np.random.default_rng(trial_seed)
    trials = rng.choice(np.append(REACHABLE, [0.0, -0.1, 1.0]),
                        (num_trials, len(depths)))
    accuracies, savings = _TrialReplay(errors, correct, depths, overheads_ms,
                                       full_latency_ms).score(trials)
    for row, accuracy, mean_savings in zip(trials, accuracies, savings):
        alone = evaluate_thresholds(errors, correct, row.tolist(), depths,
                                    overheads_ms, full_latency_ms)
        assert accuracy == alone.accuracy
        assert mean_savings == alone.mean_savings_ms


@settings(max_examples=40, deadline=None)
@given(window=windows(max_rows=40))
def test_tuner_matches_seed_on_list_input(window):
    """Nested lists convert the way ``evaluate_thresholds`` converts them (an
    empty list loses its column count, so both tuners reject it alike)."""
    errors, correct, depths, overheads_ms, full_latency_ms = window
    args = (errors.tolist(), correct.tolist(), depths, overheads_ms, full_latency_ms)
    try:
        seed = seed_tune_thresholds_greedy(*args)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            tune_thresholds_greedy(*args)
        return
    assert_same_tuning(tune_thresholds_greedy(*args), seed)


def test_tuner_raises_like_seed_on_mismatched_shapes():
    errors = np.full((4, 2), 0.1)
    for correct, depths, overheads in [
            (np.ones((3, 2), bool), [0.3, 0.6], [0.1, 0.1]),
            (np.ones((4, 2), bool), [0.3], [0.1]),
            (np.ones((4, 2), bool), [0.3, 0.6], [0.1])]:
        for tuner in (tune_thresholds_greedy, seed_tune_thresholds_greedy):
            with pytest.raises(ValueError):
                tuner(errors, correct, depths, overheads, 10.0)


# ------------------------------------------------------------------ window

def _observations(ramp_ids, rng):
    """One request's observations for ``ramp_ids`` in a random order, with
    extra ramp ids the buffer must ignore."""
    ids = list(ramp_ids) + rng.choice(20, int(rng.integers(0, 3))).tolist()
    errors = rng.choice([0.0, 1.0, 0.1, 0.1 + 0.2, 0.5, rng.random()], len(ids))
    observations = [RampObservation(ramp_id=int(rid), depth_fraction=0.5,
                                    error_score=float(error),
                                    correct=bool(rng.random() < 0.7))
                    for rid, error in zip(ids, errors)]
    rng.shuffle(observations)
    return observations


def _rebuild_ids(kind, ramp_ids, rng):
    ids = list(ramp_ids)
    if kind == "same":
        return ids
    if kind == "subset":
        return [r for r in ids if rng.random() < 0.5]
    if kind == "superset":
        return sorted(set(ids) | set(rng.choice(20, 3).tolist()))
    if kind == "disjoint":
        return sorted(set(range(20, 26)) - set(ids))[:int(rng.integers(1, 5))]
    return []


_op = st.one_of(
    st.tuples(st.just("record"), st.integers(1, 12)),
    st.tuples(st.just("record_missing"), st.just(1)),
    st.tuples(st.just("rebuild"),
              st.sampled_from(["same", "subset", "superset", "disjoint", "empty"])),
    st.tuples(st.just("latest"), st.integers(1, 23)),
    st.tuples(st.just("matrices"), st.just(0)),
    st.tuples(st.just("evaluate"), st.integers(0, 23)),
)


def _assert_same_arrays(live, seed):
    assert live.shape == seed.shape
    assert live.dtype == seed.dtype
    assert np.array_equal(live, seed)


@SETTINGS
@given(capacity=st.integers(1, 20),
       initial=st.lists(st.integers(0, 19), max_size=6, unique=True),
       ops=st.lists(_op, max_size=60),
       seed=st.integers(0, 2 ** 32 - 1))
def test_ring_window_matches_seed(capacity, initial, ops, seed):
    rng = np.random.default_rng(seed)
    live = WindowBuffer(sorted(initial), capacity=capacity)
    oracle = SeedWindowBuffer(sorted(initial), capacity=capacity)
    for kind, arg in ops:
        if kind == "record":
            for _ in range(arg):
                observations = _observations(live.ramp_ids, rng)
                live.record(observations)
                oracle.record(observations)
        elif kind == "record_missing":
            if not live.ramp_ids:
                continue
            observations = [o for o in _observations(live.ramp_ids, rng)
                            if o.ramp_id != live.ramp_ids[-1]]
            for buffer in (live, oracle):
                with pytest.raises(KeyError, match="missing observation"):
                    buffer.record(observations)
        elif kind == "rebuild":
            ids = _rebuild_ids(arg, live.ramp_ids, rng)
            live.rebuild(ids)
            oracle.rebuild(ids)
        elif kind == "latest":
            count = min(arg, capacity + 3)
            for got, want in zip(live.latest(count), oracle.latest(count)):
                _assert_same_arrays(got, want)
        elif kind == "matrices":
            _assert_same_arrays(live.errors_matrix(), oracle.errors_matrix())
            _assert_same_arrays(live.correct_matrix(), oracle.correct_matrix())
        else:
            num_ramps = len(live.ramp_ids)
            thresholds = rng.choice(REACHABLE, num_ramps).tolist()
            depths = np.sort(rng.uniform(0.05, 0.95, num_ramps)).tolist()
            overheads_ms = rng.uniform(0.0, 0.5, num_ramps).tolist()
            window = None if arg == 0 else min(arg, capacity + 3)
            assert_same_evaluation(
                live.evaluate(thresholds, depths, overheads_ms, 16.4, window=window),
                oracle.evaluate(thresholds, depths, overheads_ms, 16.4, window=window))
        assert len(live) == len(oracle)
        assert live.ramp_ids == oracle.ramp_ids
    _assert_same_arrays(live.errors_matrix(), oracle.errors_matrix())
    _assert_same_arrays(live.correct_matrix(), oracle.correct_matrix())
