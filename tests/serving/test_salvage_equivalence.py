"""The cluster's SLO-salvage phase against its seed scan, bit for bit.

``ClusterPlatform._salvage_doomed`` checks each queued request with inline
arithmetic over per-member completion-offset tables and costs the targets
only once a doomed request turns up; ``seed_salvage_doomed`` in
``tests/serving/_seed_loops.py`` prices every visit through
``_completion_eta_ms``.  This property builds one random fleet twice from
the same draws — live :class:`~repro.serving.fleet.ReplicaEntry` members for
the live phase, the oracle's frozen ``ReplicaState``/``ReplicaEntry``
members for the seed scan — (Clockwork replicas with a latency profile and
profile-less TF-Serving ones, draining members, in-flight batches ending
before, at and after ``now``, deadlines on and around the completion
estimates, tied targets, requests already rerouted or expired), runs both
for two passes, and requires the same queues in the same order, reroutes,
admissions and return values.
"""

import copy

from hypothesis import given, settings, strategies as st

from repro.core.pipeline import model_stack
from repro.serving.clockwork import ClockworkPlatform
from repro.serving.cluster import ClusterPlatform
from repro.serving.fleet import (ACTIVE, DRAINING, RETIRED, ReplicaEntry,
                                 ReplicaProfile)
from repro.serving.request import Request
from repro.serving.tfserve import TFServingPlatform
from repro.workloads.difficulty import InputSample
from tests.serving._seed_loops import (FleetState, _completion_eta_ms,
                                       seed_salvage_doomed)

PROFILE = model_stack("resnet50")[1]
SAMPLE = InputSample(index=0, raw_difficulty=0.3, sharpness=0.05,
                     confidence_shift=0.0)


def _views(entries):
    serving = [e for e in entries if e.status != RETIRED]
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


def _fill(draw, fleet, members, now, next_id, rerouted, sizes):
    """Append the same requests to each frozen member's queue and its live
    twin's; returns the next free id."""
    _, active = _views(fleet.entries)
    for entry, member in zip(fleet.entries, members):
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
            member.queue.append(copy.copy(request))
            if draw(st.integers(0, 6)) == 0:
                for ids in rerouted:
                    ids.add(next_id)
            next_id += 1
    return next_id


def _snapshot(states, rerouted, moved):
    return (moved, sorted(rerouted),
            [[r.request_id for r in state.queue] for state in states],
            [state.first_arrival_ms for state in states])


@settings(max_examples=300, deadline=None)
@given(data=st.data(), replicas=_replicas(),
       now=st.floats(0.0, 1000.0), step=st.floats(0.0, 50.0))
def test_salvage_matches_seed(data, replicas, now, step):
    draw = data.draw
    cluster = ClusterPlatform([p for p, _, _ in replicas], balancer="rr",
                              profiles=[ReplicaProfile(s) for _, s, _ in replicas])
    fleet = FleetState()
    members = []
    for replica_id, (platform, speed, status) in enumerate(replicas):
        entry = fleet.add(platform, None, ReplicaProfile(speed), 0.0)
        member = ReplicaEntry(replica_id, platform, None, ReplicaProfile(speed))
        entry.status = member.status = status
        busy = draw(_busy)
        if busy == "past":
            until = now - draw(st.floats(0.0, 100.0))
        elif busy == "now":
            until = now
        elif busy == "future":
            until = now + draw(st.floats(0.0, 100.0))
        if busy != "idle":
            entry.state.busy_until_ms = member.busy_until_ms = until
        members.append(member)
    live, seed = set(), set()
    small_or_long = st.one_of(st.integers(0, 3), st.integers(0, 40))
    next_id = _fill(draw, fleet, members, now, 0, (live, seed), small_or_long)

    for first_pass, pass_now in ((True, now), (False, now + step)):
        got = cluster._salvage_doomed(*_views(members), pass_now, live)
        want = seed_salvage_doomed(cluster, fleet, _views(fleet.entries)[1],
                                   pass_now, seed)
        assert _snapshot(members, live, got) == \
            _snapshot([e.state for e in fleet.entries], seed, want)
        if not first_pass:
            break
        # Arrivals before the next pass (the live tables grow past their
        # first use); both fleets get the same requests in the same order.
        next_id = _fill(draw, fleet, members, now + step, next_id,
                        (live, seed), st.integers(0, 6))
