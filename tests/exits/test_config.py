"""Tests for the EE configuration object."""

import pytest

from repro.exits.config import EEConfig
from repro.core.pipeline import model_stack


@pytest.fixture(scope="module")
def catalog():
    return model_stack("resnet50")[3]


def test_new_ramps_default_to_zero_threshold(catalog):
    config = EEConfig(catalog=catalog, active_ramp_ids=[1, 3])
    assert config.ordered_thresholds() == [0.0, 0.0]


def test_active_ramps_sorted_and_deduplicated(catalog):
    config = EEConfig(catalog=catalog, active_ramp_ids=[5, 1, 5, 3])
    assert config.active_ramp_ids == [1, 3, 5]


def test_invalid_ramp_id_rejected(catalog):
    with pytest.raises(ValueError):
        EEConfig(catalog=catalog, active_ramp_ids=[len(catalog) + 5])


def test_invalid_threshold_rejected(catalog):
    with pytest.raises(ValueError):
        EEConfig(catalog=catalog, active_ramp_ids=[0], thresholds={0: 1.5})


def test_set_threshold_clamps_to_unit_interval(catalog):
    config = EEConfig(catalog=catalog, active_ramp_ids=[0])
    config.set_threshold(0, 2.0)
    assert config.thresholds[0] == 1.0
    config.set_threshold(0, -1.0)
    assert config.thresholds[0] == 0.0


def test_set_threshold_requires_active_ramp(catalog):
    config = EEConfig(catalog=catalog, active_ramp_ids=[0])
    with pytest.raises(KeyError):
        config.set_threshold(3, 0.5)


def test_add_and_remove_ramp(catalog):
    config = EEConfig(catalog=catalog, active_ramp_ids=[2])
    config.add_ramp(4, threshold=0.3)
    assert config.active_ramp_ids == [2, 4]
    assert config.thresholds[4] == pytest.approx(0.3)
    config.remove_ramp(2)
    assert config.active_ramp_ids == [4]
    assert 2 not in config.thresholds


def test_add_existing_ramp_is_noop(catalog):
    config = EEConfig(catalog=catalog, active_ramp_ids=[2], thresholds={2: 0.4})
    config.add_ramp(2, threshold=0.9)
    assert config.thresholds[2] == pytest.approx(0.4)


def test_add_ramp_outside_catalog_rejected(catalog):
    config = EEConfig(catalog=catalog)
    with pytest.raises(KeyError):
        config.add_ramp(len(catalog) + 1)


def test_disable_all_exits(catalog):
    config = EEConfig(catalog=catalog, active_ramp_ids=[0, 1], thresholds={0: 0.5, 1: 0.7})
    config.disable_all_exits()
    assert all(t == 0.0 for t in config.ordered_thresholds())


def test_copy_is_independent(catalog):
    config = EEConfig(catalog=catalog, active_ramp_ids=[0])
    clone = config.copy()
    clone.add_ramp(1)
    clone.set_threshold(0, 0.9)
    assert config.active_ramp_ids == [0]
    assert config.thresholds[0] == 0.0


def test_ordered_views_aligned(catalog):
    config = EEConfig(catalog=catalog, active_ramp_ids=[1, 4], thresholds={1: 0.2, 4: 0.6})
    assert len(config.ordered_depths()) == 2
    assert config.ordered_depths()[0] < config.ordered_depths()[1]
    assert config.ordered_thresholds() == [0.2, 0.6]
    assert config.total_overhead_fraction() == pytest.approx(
        catalog.ramp(1).overhead_fraction + catalog.ramp(4).overhead_fraction)


def test_describe_mentions_ramps(catalog):
    config = EEConfig(catalog=catalog, active_ramp_ids=[0])
    assert catalog.ramp(0).node_name in config.describe()


def test_deployed_view_is_kept_until_each_change(catalog):
    config = EEConfig(catalog=catalog, active_ramp_ids=[1, 4], thresholds={1: 0.2, 4: 0.6})

    def fresh():
        return (tuple(config.active_ramp_ids), tuple(config.ordered_depths()),
                tuple(config.ordered_thresholds()), tuple(config.ordered_overheads()))

    view = config.deployed()
    assert view == fresh() and config.deployed() is view
    for change in (lambda: config.set_threshold(4, 0.3),
                   lambda: config.set_thresholds({1: 0.5}),
                   lambda: config.add_ramp(6, threshold=0.1),
                   lambda: config.remove_ramp(1),
                   config.disable_all_exits):
        change()
        assert config.deployed() is not view
        view = config.deployed()
        assert view == fresh()
