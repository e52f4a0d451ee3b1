"""Tests for the CV and NLP workload factories."""

import numpy as np
import pytest

from repro.workloads.nlp import NLP_DATASET_PRESETS, make_nlp_workload
from repro.workloads.video import VIDEO_SCENE_PRESETS, make_video_workload


def test_video_workload_basic_shape():
    wl = make_video_workload("urban-day", num_frames=900, fps=30.0, seed=3)
    assert len(wl) == 900
    assert wl.arrival_times_ms.shape == (900,)
    assert np.allclose(np.diff(wl.arrival_times_ms), 1000.0 / 30.0)


def test_video_presets_differ_in_difficulty():
    day = make_video_workload("urban-day", num_frames=4000, seed=1)
    night = make_video_workload("urban-night", num_frames=4000, seed=1)
    assert night.trace.mean_difficulty() > day.trace.mean_difficulty()


def test_video_unknown_preset_raises():
    """An unknown scene used to draw a trace from urban-day's statistics."""
    with pytest.raises(ValueError, match="'unknown-scene'.*urban-day"):
        make_video_workload("unknown-scene", num_frames=100, seed=0)


def test_unknown_nlp_and_generative_presets_raise():
    from repro.generative.sequences import make_generative_workload
    with pytest.raises(ValueError, match="'yelp'.*amazon"):
        make_nlp_workload("yelp", num_requests=10, seed=0)
    with pytest.raises(ValueError, match="'wiki'.*cnn-dailymail"):
        make_generative_workload("wiki", num_sequences=10, seed=0)


def test_video_preset_overrides_apply():
    wl = make_video_workload("urban-day", num_frames=3000, seed=2,
                             preset_overrides={"mean": 0.8})
    assert wl.trace.mean_difficulty() > 0.5


def test_video_workload_reproducible():
    a = make_video_workload("highway", num_frames=500, seed=9)
    b = make_video_workload("highway", num_frames=500, seed=9)
    assert np.allclose(a.trace.raw_difficulty, b.trace.raw_difficulty)


def test_all_video_presets_generate():
    for name in VIDEO_SCENE_PRESETS:
        assert len(make_video_workload(name, num_frames=50, seed=0)) == 50


def test_nlp_workload_basic_shape():
    wl = make_nlp_workload("amazon", num_requests=800, rate_qps=30, seed=4)
    assert len(wl) == 800
    assert wl.arrival_times_ms.shape == (800,)
    assert np.all(np.diff(wl.arrival_times_ms) >= 0)


def test_nlp_datasets_have_presets():
    assert {"amazon", "imdb"} <= set(NLP_DATASET_PRESETS)


def test_nlp_poisson_arrival_option():
    wl = make_nlp_workload("imdb", num_requests=500, rate_qps=50, seed=5,
                           arrival_process="poisson")
    duration_s = (wl.arrival_times_ms[-1] - wl.arrival_times_ms[0]) / 1000.0
    assert len(wl) / duration_s == pytest.approx(50.0, rel=0.3)


def test_nlp_workload_reproducible():
    a = make_nlp_workload("amazon", num_requests=400, seed=6)
    b = make_nlp_workload("amazon", num_requests=400, seed=6)
    assert np.allclose(a.trace.raw_difficulty, b.trace.raw_difficulty)
    assert np.allclose(a.arrival_times_ms, b.arrival_times_ms)


def test_nlp_harder_than_video_on_average():
    video = make_video_workload("urban-day", num_frames=3000, seed=7)
    nlp = make_nlp_workload("amazon", num_requests=3000, seed=7)
    assert nlp.trace.mean_difficulty() > video.trace.mean_difficulty()
