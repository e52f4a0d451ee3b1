"""Tests for the analytic latency model."""

import numpy as np
import pytest

from repro.graph.builders import build_graph_for_model
from repro.models.latency import build_latency_profile
from repro.models.zoo import get_model


@pytest.fixture(scope="module")
def resnet_profile():
    spec = get_model("resnet50")
    return build_latency_profile(spec, build_graph_for_model("resnet50"))


def test_bs1_total_matches_table5(resnet_profile):
    assert resnet_profile.total_latency_ms(1) == pytest.approx(16.4, rel=1e-6)


def test_total_latency_is_the_cached_node_sum_scaled():
    """The cached bs=1 total gives the bits re-summing the nodes gave."""
    from repro.models.zoo import MODEL_ZOO
    for name in MODEL_ZOO:
        base = build_latency_profile(get_model(name))
        for profile in (base, base.scaled(2.0), base.scaled(0.7), base.scaled(3.3)):
            node_sum = float(profile.node_latency_ms.sum())
            for batch_size in range(1, 33):
                assert profile.total_latency_ms(batch_size) \
                    == profile.batch_scale(batch_size) * node_sum


def test_node_latencies_are_read_only(resnet_profile):
    with pytest.raises(ValueError):
        resnet_profile.node_latency_ms[0] = 0.0
    # The profile holds its own copy: the caller's array stays writable.
    values = np.array([1.0, 2.0])
    profile = type(resnet_profile)(spec=resnet_profile.spec, node_names=["a", "b"],
                                   node_latency_ms=values,
                                   cumulative_fraction=np.array([1 / 3, 1.0]))
    values[0] = 5.0
    assert profile.total_latency_ms(1) == 3.0


def test_batch_latency_grows_with_batch_size(resnet_profile):
    latencies = [resnet_profile.total_latency_ms(b) for b in (1, 2, 4, 8, 16)]
    assert all(b > a for a, b in zip(latencies, latencies[1:]))


def test_throughput_grows_with_batch_size(resnet_profile):
    """The latency-throughput tension of Figure 1: both grow with batch size."""
    throughputs = [resnet_profile.throughput_qps(b) for b in (1, 2, 4, 8, 16)]
    assert all(b > a for a, b in zip(throughputs, throughputs[1:]))


def test_cumulative_fraction_monotone_and_normalized(resnet_profile):
    cumulative = resnet_profile.cumulative_fraction
    assert np.all(np.diff(cumulative) >= 0)
    assert cumulative[-1] == pytest.approx(1.0)


def test_depth_fraction_lookup(resnet_profile):
    early = resnet_profile.depth_fraction("layer1.block0.add")
    late = resnet_profile.depth_fraction("layer4.block2.add")
    assert 0.0 < early < late <= 1.0


def test_savings_for_exit_complements_latency_to_depth(resnet_profile):
    total = resnet_profile.total_latency_ms(4)
    reached = resnet_profile.latency_to_depth(0.3, 4)
    saved = resnet_profile.savings_for_exit(0.3, 4)
    assert reached + saved == pytest.approx(total)


def test_latency_to_depth_clips_out_of_range(resnet_profile):
    assert resnet_profile.latency_to_depth(-0.5) == 0.0
    assert resnet_profile.latency_to_depth(2.0) == pytest.approx(
        resnet_profile.total_latency_ms(1))


def test_ramp_overhead_scales_with_batch(resnet_profile):
    assert resnet_profile.ramp_overhead_ms(0.002, 8) > resnet_profile.ramp_overhead_ms(0.002, 1)


def test_invalid_batch_size_rejected(resnet_profile):
    with pytest.raises(ValueError):
        resnet_profile.total_latency_ms(0)


def test_sweep_batch_sizes_table(resnet_profile):
    table = resnet_profile.sweep_batch_sizes([1, 4, 16])
    assert set(table) == {1, 4, 16}
    assert table[16]["throughput_qps"] > table[1]["throughput_qps"]
    assert table[16]["latency_ms"] > table[1]["latency_ms"]


def test_profiles_build_for_all_registered_models():
    from repro.models.zoo import list_models
    for spec in list_models():
        profile = build_latency_profile(spec)
        assert profile.total_latency_ms(1) == pytest.approx(spec.bs1_latency_ms, rel=1e-6)
