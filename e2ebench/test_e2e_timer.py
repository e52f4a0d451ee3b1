"""Tests of the benchmark's outside-in layer timer and its metric catalog.

Run with ``PYTHONPATH=src python -m pytest e2ebench -q``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

import run as bench
from e2e_timer import LayerTimer, SPANS, layer_targets
from e2e_workloads import WORKLOADS


def _originals(targets):
    return [(owner, attr, vars(owner)[attr]) for _, owner, attr in targets]


def _assert_restored(saved):
    for owner, attr, original in saved:
        assert vars(owner)[attr] is original, (owner, attr)


def test_every_layer_has_a_target_and_every_target_is_patched():
    targets = layer_targets()
    assert {name for name, _, _ in targets} == set(SPANS)
    saved = _originals(targets)
    with LayerTimer(targets):
        for owner, attr, original in saved:
            assert vars(owner)[attr] is not original, (owner, attr)
    _assert_restored(saved)


def test_restores_originals_when_the_block_raises():
    targets = layer_targets()
    saved = _originals(targets)
    with pytest.raises(ZeroDivisionError):
        with LayerTimer(targets):
            1 / 0
    _assert_restored(saved)


def test_self_time_excludes_wrapped_callees():
    class Layer:
        def outer(self, n):
            for _ in range(n):
                self.inner()
            return n

        def inner(self):
            return sum(range(2000))

    timer = LayerTimer([("outer", Layer, "outer"), ("inner", Layer, "inner")])
    with timer:
        assert Layer().outer(50) == 50
    stats = timer.stats(["outer", "inner", "absent"])
    assert stats["outer"][0] == 1 and stats["inner"][0] == 50
    assert stats["absent"] == (0, 0.0)
    # Summing inner's work into outer's self time would make outer dominate.
    assert stats["outer"][1] < stats["inner"][1]
    timer.reset()
    assert timer.stats(["outer"])["outer"] == (0, 0.0)


@pytest.mark.parametrize("name,size", [("cv-fleet", 300), ("llm-fleet", 24),
                                       ("llm-disagg-kv", 80)])
def test_wrapped_and_unwrapped_results_are_identical(name, size):
    base = WORKLOADS[name].build(3)
    experiment = dataclasses.replace(
        base, workload=dataclasses.replace(base.workload, requests=size))
    trace = experiment.workload_obj()
    timer = LayerTimer(layer_targets())
    for system in bench.SYSTEMS:
        untraced = experiment.run([system]).results[0]
        with timer:
            traced = experiment.run([system]).results[0]
        assert bench.fingerprint(traced) == bench.fingerprint(untraced)
        bench.run_outcome(traced, trace, WORKLOADS[name].generative)
    stats = timer.stats()
    assert stats["api.result"][0] == 2
    assert stats["kernel.drive"][1] > 0.0
    assert stats["balancer.choose"][0] >= 2 * size


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == bench.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == bench.per_layer_units()
