"""The columnar classification EE batch path against its per-input seed
(``tests/exits/_seed_ee_batch.py``), bit for bit.

``ModelExecutor.execute_batch`` returns per-input columns and
``ApparateController.observe_batch`` writes each input's row straight into
the window; the seed built one ``ExecutionResult`` of ``RampObservation``s
per input and recorded the observations.  These properties require the same
columns, window rows, ring cursor, thresholds, ramp sets and controller
statistics, and the same ``RunResult`` for whole runs of Apparate (both
fleet modes) and the static-EE baseline.  The confusion draw, which now
rounds each input and each ramp depth once instead of once per pair, is held
to the seed's draw as well.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import ClusterSpec, Experiment, WorkloadSpec
from repro.baselines.static_ee import _StaticEEExecutor
from repro.core.controller import ApparateController, _SyncedReplicaController
from repro.core.pipeline import ApparateExecutor, model_stack
from repro.exits.evaluation import WindowBuffer
from repro.models.execution import ModelExecutor
from repro.models.prediction import PredictionModel, _confusion_draw
from repro.models.zoo import get_model
from tests.exits._seed_ee_batch import (SeedApparateController,
                                        SeedRingWindowBuffer,
                                        SeedSyncedReplicaController,
                                        seed_apparate_call, seed_confusion_draw,
                                        seed_execute_batch, seed_is_correct,
                                        seed_static_call)

SETTINGS = settings(max_examples=150, deadline=None)
_STACKS = {}


def _stack(model):
    if model not in _STACKS:
        _STACKS[model] = model_stack(model, seed=7)
    return _STACKS[model]


def _bits(value):
    return None if value is None else struct.pack("<d", value)


def _row_bits(values):
    return [_bits(v) for v in values]


def assert_same_execution(live, seed, ramp_ids):
    assert live.batch_size == seed.batch_size
    assert _bits(live.gpu_time_ms) == _bits(seed.gpu_time_ms)
    assert live.ramp_ids == [int(r) for r in ramp_ids]
    assert len(live.correct) == len(seed.results)
    for i, result in enumerate(seed.results):
        observations = result.observations
        assert [o.ramp_id for o in observations] == live.ramp_ids
        assert _row_bits(live.errors[i]) == _row_bits([o.error_score for o in observations])
        assert live.agree[i] == [o.correct for o in observations]
        assert _bits(live.result_offsets_ms[i]) == _bits(result.result_latency_ms)
        assert live.exited[i] is result.exited
        assert _bits(live.exit_depths[i]) == _bits(result.exit_depth)
        assert live.exit_ramp_ids[i] == result.exit_ramp_id
        assert live.correct[i] is result.final_correct


# ------------------------------------------------------------------ executor

#: Raw difficulties, including the clip edges and values a hair from a
#: 9-digit rounding boundary (the confusion draw's key).
_raw = st.one_of(st.floats(-0.2, 1.2),
                 st.sampled_from([0.0, 1.0, 0.1234567885, 0.5000000005,
                                  0.9999999995, math.nextafter(0.5000000005, 1.0)]))
#: Sharpness, including values below the 1e-6 clamp.
_sharpness = st.one_of(st.floats(0.0, 0.3),
                       st.sampled_from([0.0, 1e-9, 1e-7, 9.99e-7, 1e-6]))
_shift = st.floats(-0.5, 0.5)


@st.composite
def _batches(draw):
    model = draw(st.sampled_from(["resnet50", "bert-base", "resnet18"]))
    executor = _stack(model)[4]
    prediction = executor.prediction
    n = draw(st.integers(1, 16))
    raws = draw(st.lists(_raw, min_size=n, max_size=n))
    sharpness = draw(st.lists(_sharpness, min_size=n, max_size=n))
    shifts = draw(st.one_of(st.none(), st.lists(_shift, min_size=n, max_size=n)))
    num_ramps = draw(st.integers(0, 12))
    ramp_ids = sorted(draw(st.lists(st.integers(0, 40), min_size=num_ramps,
                                    max_size=num_ramps, unique=True)))
    depths = draw(st.lists(st.floats(0.0, 1.0), min_size=num_ramps,
                           max_size=num_ramps))
    for r in range(num_ramps):
        if draw(st.booleans()):
            # Exactly an input's required depth: the ``depth >= d`` tie.
            depths[r] = prediction.required_depth(raws[draw(st.integers(0, n - 1))])
    depths.sort()
    overheads = draw(st.lists(st.floats(0.0, 0.05), min_size=num_ramps,
                              max_size=num_ramps))
    thresholds = []
    for r in range(num_ramps):
        kind = draw(st.sampled_from(["zero", "score", "uniform", "negative"]))
        if kind == "zero":
            thresholds.append(0.0)
        elif kind == "score":
            # Exactly an input's error score: the ``error < threshold`` tie.
            i = draw(st.integers(0, n - 1))
            shift = shifts[i] if shifts is not None else 0.0
            thresholds.append(prediction.error_score(raws[i], depths[r],
                                                     sharpness[i], shift))
        elif kind == "uniform":
            thresholds.append(draw(st.floats(0.0, 1.0)))
        else:
            thresholds.append(-draw(st.floats(0.0, 1.0)))
    batch_size = draw(st.one_of(st.none(), st.integers(n, 32)))
    return (executor, raws, sharpness, ramp_ids, depths, thresholds, overheads,
            batch_size, shifts)


@SETTINGS
@given(batch=_batches())
def test_execute_batch_matches_seed(batch):
    (executor, raws, sharpness, ramp_ids, depths, thresholds, overheads,
     batch_size, shifts) = batch
    args = (raws, sharpness, ramp_ids, depths, thresholds, overheads)
    live = executor.execute_batch(*args, batch_size=batch_size,
                                  confidence_shifts=shifts)
    seed = seed_execute_batch(executor, *args, batch_size=batch_size,
                              confidence_shifts=shifts)
    assert_same_execution(live, seed, ramp_ids)


def test_execute_batch_raises_like_seed():
    executor = _stack("resnet50")[4]
    for args in (([], [], [], [], [], []),
                 ([0.2], [0.05], [0], [0.5], [0.5, 0.6], [0.002])):
        for execute in (executor.execute_batch,
                        lambda *a: seed_execute_batch(executor, *a)):
            with pytest.raises(ValueError):
                execute(*args)


# ------------------------------------------------------------ confusion draw

_boundary = st.builds(
    lambda k, side: (math.nextafter((k + 0.5) / 1e9, side) if side else (k + 0.5) / 1e9),
    st.integers(0, 10 ** 9), st.sampled_from([0.0, -math.inf, math.inf]))


@SETTINGS
@given(seed=st.integers(0, 2 ** 31 - 1),
       raw=st.one_of(st.floats(-1.0, 2.0), _boundary),
       depth=st.one_of(st.floats(0.0, 1.0), _boundary))
def test_confusion_draw_matches_seed(seed, raw, depth):
    prediction = PredictionModel(get_model("resnet50"), seed=seed)
    want = seed_confusion_draw(prediction, raw, depth)
    assert _bits(_confusion_draw(seed, round(raw, 9), round(depth, 9))) == _bits(want)
    assert prediction.is_correct(raw, depth) == seed_is_correct(prediction, raw, depth)
    _, agree = prediction.ramp_signals(np.array([raw, depth]), depth,
                                       np.array([0.05, 0.05]))
    assert agree == [seed_is_correct(prediction, raw, depth),
                     seed_is_correct(prediction, depth, depth)]


# --------------------------------------------------------------- controller

_CONTROLLER_KW = dict(accuracy_constraint=0.02, tuning_window=48,
                      threshold_refresh_period=8, ramp_adjustment_period=20,
                      min_tuning_samples=12)


def _stream(rng, size, regime):
    """One batch: easy inputs, hard inputs, or over-confident easy ones."""
    if regime == "easy":
        raws = rng.beta(2.0, 5.0, size)
        shifts = rng.uniform(-0.02, 0.02, size)
    elif regime == "hard":
        raws = rng.uniform(0.4, 1.0, size)
        shifts = rng.uniform(-0.02, 0.02, size)
    else:
        raws = rng.uniform(0.2, 0.9, size)
        shifts = rng.uniform(0.2, 0.5, size)
    return raws.tolist(), rng.uniform(0.02, 0.1, size).tolist(), shifts.tolist()


def assert_same_controller(live, seed):
    assert live.config.active_ramp_ids == seed.config.active_ramp_ids
    assert _row_bits(live.config.ordered_thresholds()) \
        == _row_bits(seed.config.ordered_thresholds())
    assert live.stats == seed.stats
    assert list(live.accuracy_monitor._hits) == list(seed.accuracy_monitor._hits)
    a, b = live.window, seed.window
    assert a.ramp_ids == b.ramp_ids
    assert (a._next, a._size) == (b._next, b._size)
    # Slots past ``_size`` were never written (``np.empty``).
    assert a._errors[:a._size].tobytes() == b._errors[:b._size].tobytes()
    assert a._correct[:a._size].tobytes() == b._correct[:b._size].tobytes()


def _run_controllers(batches, model="resnet50"):
    spec, profile, _prediction, catalog, executor = _stack(model)
    live = ApparateController(spec, catalog, profile, **_CONTROLLER_KW)
    seed = SeedApparateController(spec, catalog, profile, **_CONTROLLER_KW)
    for raws, sharpness, shifts in batches:
        config = live.deployed_config()
        assert config == seed.deployed_config()
        live.observe_batch(executor.execute_batch(raws, sharpness, *config,
                                                  confidence_shifts=shifts))
        seed.observe_batch(seed_execute_batch(executor, raws, sharpness, *config,
                                              confidence_shifts=shifts))
        assert_same_controller(live, seed)
    return live


@settings(max_examples=40, deadline=None)
@given(rng_seed=st.integers(0, 2 ** 32 - 1),
       plan=st.lists(st.tuples(st.integers(1, 16),
                               st.sampled_from(["easy", "hard", "shifted"])),
                     min_size=1, max_size=25))
def test_controller_ingest_matches_seed(rng_seed, plan):
    rng = np.random.default_rng(rng_seed)
    _run_controllers([_stream(rng, size, regime) for size, regime in plan])


def test_violation_refresh_and_mid_batch_adjustment_match_seed():
    rng = np.random.default_rng(5)
    plan = [(7, "easy")] * 12 + [(9, "shifted")] * 4 + [(11, "easy")] * 10
    live = _run_controllers([_stream(rng, size, regime) for size, regime in plan])
    stats = live.stats
    # The run crossed every branch of observe_batch: a violation back-off,
    # periodic refreshes, and ramp-set changes landing inside a batch.
    assert stats.accuracy_triggered_tunings >= 1
    assert stats.threshold_tunings > stats.accuracy_triggered_tunings
    assert stats.ramp_set_changes >= 1
    sizes = [size for size, _ in plan]
    ends = set(np.cumsum(sizes).tolist())
    assert any(index not in ends for index, _ in stats.config_history[1:])


# ------------------------------------------------------------ whole runs

def _seed_path(monkeypatch):
    """Swap the per-input seed path in for the columnar one."""
    monkeypatch.setattr(ModelExecutor, "execute_batch", seed_execute_batch)
    monkeypatch.setattr(ApparateController, "observe_batch",
                        SeedApparateController.observe_batch)
    monkeypatch.setattr(WindowBuffer, "record", SeedRingWindowBuffer.record)
    monkeypatch.setattr(_SyncedReplicaController, "observe_batch",
                        SeedSyncedReplicaController.observe_batch)
    monkeypatch.setattr(ApparateExecutor, "__call__", seed_apparate_call)
    monkeypatch.setattr(_StaticEEExecutor, "__call__", seed_static_call)


@pytest.mark.parametrize("fleet_mode", ["independent", "shared"])
def test_runs_match_seed_path(monkeypatch, fleet_mode):
    experiment = Experiment(
        model="resnet50",
        workload=WorkloadSpec("video", "urban-day", requests=400, rate=240.0,
                              seed=2),
        cluster=ClusterSpec(replicas=3, balancer="join_shortest_queue",
                            fleet_mode=fleet_mode, sync_period=16,
                            faults="700:400"),
        drop_expired=True)
    systems = ["apparate", "static_ee"]
    live = [r.to_json() for r in experiment.run(systems).results]
    with monkeypatch.context() as patched:
        _seed_path(patched)
        seed = [r.to_json() for r in experiment.run(systems).results]
    assert live == seed
    assert live[0]["summary"]["exit_rate"] > 0.0
