"""Tests for the model registry."""

import pytest

from repro.models.zoo import (MODEL_ZOO, ModelSpec, Task, get_model, list_models,
                              register_model)


# Table 5 of the paper: bs=1 latency and default SLO per classification model.
TABLE5 = {
    "resnet18": (6.5, 13.0),
    "resnet50": (16.4, 32.8),
    "resnet101": (33.3, 66.6),
    "vgg11": (3.3, 10.0),
    "vgg13": (3.8, 10.0),
    "vgg16": (4.5, 10.0),
    "distilbert-base": (15.5, 31.0),
    "bert-base": (29.4, 58.8),
    "bert-large": (63.2, 126.4),
    "gpt2-medium": (103.0, 206.0),
}


@pytest.mark.parametrize("name,expected", sorted(TABLE5.items()))
def test_table5_latencies_and_slos(name, expected):
    spec = get_model(name)
    assert spec.bs1_latency_ms == pytest.approx(expected[0])
    assert spec.default_slo_ms == pytest.approx(expected[1])


def test_unknown_model_raises_keyerror():
    with pytest.raises(KeyError):
        get_model("not-a-model")


def test_lookup_is_case_insensitive():
    assert get_model("ResNet50").name == "resnet50"


def test_list_models_by_task():
    cv = list_models(Task.CV_CLASSIFICATION)
    assert all(s.task is Task.CV_CLASSIFICATION for s in cv)
    assert {"resnet18", "resnet50", "resnet101", "vgg11", "vgg13", "vgg16"} <= {s.name for s in cv}


def test_generative_models_registered():
    names = {s.name for s in list_models(Task.GENERATIVE)}
    assert {"t5-large", "llama2-7b", "llama2-13b"} <= names


def test_is_generative_property():
    assert get_model("t5-large").is_generative
    assert not get_model("resnet50").is_generative


def test_with_overrides_returns_new_spec():
    base = get_model("resnet50")
    derived = base.with_overrides(name="resnet50-copy", headroom=0.5)
    assert derived.name == "resnet50-copy"
    assert derived.headroom == 0.5
    assert base.headroom != 0.5 or base.name == "resnet50"


def test_register_custom_model():
    spec = ModelSpec("custom-tiny", Task.CV_CLASSIFICATION, "resnet", 1.0, 2.0, 4.0,
                     num_blocks=4, hidden_width=64)
    register_model(spec)
    try:
        assert get_model("custom-tiny") is spec
    finally:
        # The zoo is process-wide: later tests iterate every registered model.
        MODEL_ZOO.pop("custom-tiny", None)
    with pytest.raises(KeyError):
        get_model("custom-tiny")


def test_headroom_within_unit_interval():
    for spec in list_models():
        assert 0.0 <= spec.headroom <= 1.0


def test_slo_is_twice_bs1_latency_for_classification():
    for name in TABLE5:
        spec = get_model(name)
        if spec.family in ("vgg",):
            continue  # VGG SLOs are floored at 10 ms in the paper.
        assert spec.default_slo_ms == pytest.approx(2 * spec.bs1_latency_ms)
