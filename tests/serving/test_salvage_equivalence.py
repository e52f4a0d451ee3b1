"""The cluster's SLO-salvage phase against its seed scan, bit for bit.

``ClusterPlatform._salvage_doomed`` checks each queued request with inline
arithmetic over per-member completion-offset tables and costs the targets
only once a doomed request turns up; ``seed_salvage_doomed`` in
``tests/serving/_seed_loops.py`` prices every visit through
``_completion_eta_ms``.  This property runs both on deep copies of one random
fleet state (Clockwork replicas with a latency profile and profile-less
TF-Serving ones, draining members, in-flight batches ending before, at and
after ``now``, deadlines on and around the completion estimates, tied
targets, requests already rerouted or expired) for two passes, and requires
the same queues in the same order, reroutes, admissions and return values.
"""

import copy

from hypothesis import given, settings, strategies as st

from repro.core.pipeline import model_stack
from repro.serving.clockwork import ClockworkPlatform
from repro.serving.cluster import ClusterPlatform
from repro.serving.fleet import ACTIVE, DRAINING, RETIRED, ReplicaProfile
from repro.serving.request import Request
from repro.serving.tfserve import TFServingPlatform
from repro.workloads.difficulty import InputSample
from tests.serving._seed_loops import (FleetState, _completion_eta_ms,
                                       seed_salvage_doomed)

PROFILE = model_stack("resnet50")[1]
SAMPLE = InputSample(index=0, raw_difficulty=0.3, sharpness=0.05,
                     confidence_shift=0.0)


def _views(fleet):
    serving = [e for e in fleet.entries if e.status != RETIRED]
    active = [e for e in serving if e.status == ACTIVE]
    for position, entry in enumerate(active):
        entry.index = position
    return serving, active


@st.composite
def _replicas(draw):
    """``(platform, speed, status)`` per member; at least one is active."""
    identical = draw(st.booleans())      # equal members: tied targets
    count = draw(st.integers(1, 5))
    first = None
    replicas = []
    for i in range(count):
        if identical and first is not None:
            spec = first
        else:
            spec = (draw(st.one_of(st.sampled_from([0.5, 1.0, 2.0]),
                                   st.floats(0.5, 2.0))),
                    draw(st.integers(1, 16)),
                    draw(st.sampled_from(["clockwork", "tfserve"])),
                    draw(st.integers(0, 9)) > 0)
            first = first or spec
        speed, full, kind, drops = spec
        if kind == "clockwork":
            platform = ClockworkPlatform(PROFILE.scaled(speed), max_batch_size=full,
                                         drop_expired=drops)
        else:
            platform = TFServingPlatform(max_batch_size=full, drop_expired=drops)
        status = DRAINING if i and draw(st.integers(0, 3)) == 0 else ACTIVE
        replicas.append((platform, speed, status))
    return replicas


_busy = st.sampled_from(["idle", "past", "now", "future"])
_deadline = st.sampled_from(["random", "expired", "own_eta", "target_eta"])
_nudge = st.sampled_from([0.0, 1e-9, -1e-9, 2e-9, -2e-9])


def _fill(draw, fleet, now, next_id, rerouted, sizes):
    """Append requests to each member's queue; returns the next free id."""
    _, active = _views(fleet)
    for entry in fleet.entries:
        for _ in range(draw(sizes)):
            kind = draw(_deadline)
            arrival, slo = 0.0, 0.0
            if kind == "random":
                arrival = now - draw(st.floats(0.0, 200.0))
                slo = draw(st.floats(1.0, 300.0))
            elif kind == "expired":
                arrival = now - draw(st.floats(50.0, 200.0))
                slo = draw(st.floats(1.0, 49.0))
            elif kind == "own_eta":
                # On the estimate at this position, before any move.
                ahead = len(entry.state.queue) + 1
                slo = _completion_eta_ms(entry, ahead, now) + draw(_nudge)
            else:
                target = active[draw(st.integers(0, len(active) - 1))]
                slo = _completion_eta_ms(target, target.queue_length() + 1,
                                         now) + draw(_nudge)
            request = Request(request_id=next_id, arrival_ms=arrival,
                              sample=SAMPLE, slo_ms=slo)
            entry.state.queue.append(request)
            if draw(st.integers(0, 6)) == 0:
                rerouted.add(next_id)
            next_id += 1
    return next_id


def _snapshot(fleet, rerouted, moved):
    return (moved, sorted(rerouted),
            [[r.request_id for r in e.state.queue] for e in fleet.entries],
            [e.state.first_arrival_ms for e in fleet.entries])


@settings(max_examples=300, deadline=None)
@given(data=st.data(), replicas=_replicas(),
       now=st.floats(0.0, 1000.0), step=st.floats(0.0, 50.0))
def test_salvage_matches_seed(data, replicas, now, step):
    draw = data.draw
    cluster = ClusterPlatform([p for p, _, _ in replicas], balancer="rr",
                              profiles=[ReplicaProfile(s) for _, s, _ in replicas])
    fleet = FleetState()
    for (platform, speed, status) in replicas:
        entry = fleet.add(platform, None, ReplicaProfile(speed), 0.0)
        entry.status = status
        busy = draw(_busy)
        if busy == "past":
            entry.state.busy_until_ms = now - draw(st.floats(0.0, 100.0))
        elif busy == "now":
            entry.state.busy_until_ms = now
        elif busy == "future":
            entry.state.busy_until_ms = now + draw(st.floats(0.0, 100.0))
    rerouted = set()
    small_or_long = st.one_of(st.integers(0, 3), st.integers(0, 40))
    next_id = _fill(draw, fleet, now, 0, rerouted, small_or_long)

    live = copy.deepcopy((cluster, fleet, rerouted))
    seed = copy.deepcopy((cluster, fleet, rerouted))
    for first_pass, pass_now in ((True, now), (False, now + step)):
        got = live[0]._salvage_doomed(*_views(live[1]), pass_now, live[2])
        want = seed_salvage_doomed(seed[0], seed[1], _views(seed[1])[1],
                                   pass_now, seed[2])
        assert _snapshot(live[1], live[2], got) == _snapshot(seed[1], seed[2], want)
        if not first_pass:
            break
        # Arrivals before the next pass (the live tables grow past their
        # first use); the seed copy gets the same requests in the same order.
        first_new = next_id
        next_id = _fill(draw, live[1], now + step, next_id, live[2],
                        st.integers(0, 6))
        for live_entry, seed_entry in zip(live[1].entries, seed[1].entries):
            seed_entry.state.queue.extend(
                copy.copy(r) for r in live_entry.state.queue
                if r.request_id >= first_new)
        seed[2].update(r for r in live[2] if r >= first_new)
