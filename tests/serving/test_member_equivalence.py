"""The classification fleet member against the frozen member trio, op by op.

A live :class:`~repro.serving.fleet.ReplicaEntry` holds its own queue,
accelerator clock, metrics, conservation set and recorder, and the
``ServingPlatform`` phases act on it.  ``tests/serving/_seed_loops.py``
keeps the member as it stood before that merge — a ``ReplicaState`` stepped
by the frozen phase functions and read through a ``ReplicaHandle``.  This
property drives one random sequence of ``admit`` / ``expire`` / ``select``
/ ``force_batch`` / ``dispatch`` / ``complete`` calls (random batch
results, clocks before, at and after the accelerator frees, deadlines on
both sides of the clock, Clockwork and profile-less TF-Serving platforms at
speeds other than 1) through both, each with its own recorder, and requires
identical state, metrics, resource view and spans after every step.
"""

import copy

from hypothesis import given, settings, strategies as st

from repro.core.pipeline import model_stack
from repro.obs.recorder import TraceRecorder
from repro.serving.clockwork import ClockworkPlatform
from repro.serving.fleet import ReplicaEntry, ReplicaProfile
from repro.serving.platform import BatchResult
from repro.serving.request import Request
from repro.serving.tfserve import TFServingPlatform
from repro.workloads.difficulty import InputSample
from tests.serving import _seed_loops as frozen

PROFILE = model_stack("resnet50")[1]
SAMPLE = InputSample(index=0, raw_difficulty=0.3, sharpness=0.05,
                     confidence_shift=0.0)

_SPEED = st.one_of(st.sampled_from([0.5, 2.0]), st.floats(0.3, 3.0))
_NUDGE = st.sampled_from([0.0, 1e-9, -1e-9, 2e-9, -2e-9])
_OPS = st.sampled_from(["admit", "admit", "admit", "expire", "select",
                        "force_batch", "dispatch", "dispatch", "complete",
                        "complete", "advance", "advance"])


@st.composite
def _platform(draw):
    full = draw(st.integers(1, 8))
    drops = draw(st.booleans())
    speed = draw(_SPEED)
    if draw(st.booleans()):
        platform = ClockworkPlatform(PROFILE.scaled(speed), max_batch_size=full,
                                     drop_expired=drops)
    else:
        platform = TFServingPlatform(max_batch_size=full,
                                     batch_timeout_ms=draw(st.floats(0.0, 10.0)),
                                     drop_expired=drops)
    return platform, speed


def _result(draw, batch):
    n = len(batch)
    gpu = draw(st.floats(0.0, 40.0))
    offsets = [draw(st.floats(0.0, gpu)) if gpu else 0.0 for _ in range(n)]
    exited = [draw(st.booleans()) for _ in range(n)]
    depths = [draw(st.floats(0.1, 1.0)) if e else None for e in exited]
    correct = [draw(st.booleans()) for _ in range(n)]
    return BatchResult(gpu_time_ms=gpu, result_offsets_ms=offsets,
                       exited=exited, exit_depths=depths, correct=correct)


def _ids(batch):
    return [r.request_id for r in batch]


def _state(live, seed, now):
    """The two members' state, metrics and resource view at ``now``."""
    state = seed.state
    probes = (now, live.busy_until_ms, live.busy_until_ms + 1e-9,
              live.busy_until_ms - 1e-9)
    got = (_ids(live.queue), live.busy_until_ms, live.serving_batch_size,
           live.first_arrival_ms, live.last_event_ms, live.responded_ids,
           live.metrics.responses, live.metrics.num_batches,
           live.metrics.gpu_busy_ms, live.queue_length(),
           [(live.jobs_in_system(t), live.backlog_ms(t), live.work_left_ms(t),
             live.is_idle(t), live.has_work(t), live.busy_units(t))
            for t in probes])
    want = (_ids(state.queue), state.busy_until_ms, state.serving_batch_size,
            state.first_arrival_ms, state.last_event_ms, state.responded_ids,
            state.metrics.responses, state.metrics.num_batches,
            state.metrics.gpu_busy_ms, seed.queue_length(),
            [(seed.jobs_in_system(t), seed.backlog_ms(t), seed.work_left_ms(t),
              seed.is_idle(t), seed.has_work(t), seed.busy_units(t))
             for t in probes])
    return got, want


def _spans(recorder):
    return [span.to_json() for span in recorder.spans()]


def _outcome(call):
    """``call()``'s return value, or the type and text of what it raised."""
    try:
        return call()
    except RuntimeError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), platform=_platform(), replica_id=st.integers(0, 5),
       added_ms=st.floats(-50.0, 50.0), steps=st.integers(1, 40))
def test_member_matches_the_frozen_trio(data, platform, replica_id, added_ms,
                                        steps):
    draw = data.draw
    platform, speed = platform
    profile = ReplicaProfile(speed=speed)
    live_obs, seed_obs = TraceRecorder(), TraceRecorder()
    live = ReplicaEntry(replica_id, platform, None, profile, added_ms, live_obs)
    state = frozen.ReplicaState()
    state.obs_replica = replica_id
    seed = frozen.ReplicaEntry(replica_id, platform, None, profile, state,
                               added_ms)

    now = 0.0
    next_id = 0
    batches = []   # dispatched batches, completable (again) in any order
    for _ in range(steps):
        op = draw(_OPS)
        if op == "admit":
            # Arrivals out of order too; deadlines land on both sides of now.
            wait = draw(st.floats(0.0, 60.0))
            slo = max(draw(st.one_of(st.floats(-20.0, 20.0), _NUDGE)) + wait,
                      1e-3)
            request = Request(request_id=next_id, arrival_ms=now - wait,
                              sample=SAMPLE, slo_ms=slo)
            next_id += 1
            platform.admit(live, request)
            frozen.seed_admit(platform, state, copy.copy(request), seed_obs)
        elif op == "expire":
            platform.expire(live, now)
            frozen.seed_expire(platform, state, now, seed_obs)
        elif op == "select" and live.queue:
            # Runners consult the batching policy only about a queue.
            got, wake = platform.select(live, now)
            want, seed_wake = frozen.seed_select(platform, state, now)
            assert (_ids(got), wake) == (_ids(want), seed_wake)
        elif op == "force_batch":
            assert _ids(platform.force_batch(live)) == \
                _ids(frozen.seed_force_batch(platform, state))
        elif op == "dispatch" and live.queue:
            if draw(st.booleans()):
                batch, _ = platform.select(live, now)
            else:
                batch = platform.force_batch(live)
            if batch:
                # The frozen side's copies of the same requests, in order.
                queued = {r.request_id: r for r in state.queue}
                seed_batch = [queued[r.request_id] for r in batch]
                platform.dispatch(live, batch)
                frozen.seed_dispatch(platform, state, seed_batch)
                batches.append((batch, seed_batch))
        elif op == "complete" and batches:
            batch, seed_batch = batches[draw(st.integers(0, len(batches) - 1))]
            result = _result(draw, batch)
            start = now
            got = _outcome(lambda: platform.complete(live, batch, result, start))
            want = _outcome(lambda: frozen.seed_complete(
                platform, state, seed_batch, copy.deepcopy(result), start,
                seed_obs))
            assert got == want
        elif op == "advance":
            # Just before, at or just after the accelerator frees, or anywhere.
            if live.busy_until_ms > now and draw(st.booleans()):
                now = live.busy_until_ms + draw(_NUDGE)
            else:
                now += draw(st.floats(0.0, 30.0))
        got, want = _state(live, seed, now)
        assert got == want
        assert _spans(live_obs) == _spans(seed_obs)

    live.finalize_makespan()
    state.finalize_makespan()
    assert live.metrics.makespan_ms == state.metrics.makespan_ms
    assert live_obs.gauges == seed_obs.gauges

