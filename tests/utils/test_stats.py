"""Tests for statistics helpers."""

import numpy as np
import pytest

from repro.utils.stats import (
    WindowedAccuracy,
    percentile,
    savings_percent,
    summarize_latencies,
)


def test_percentile_empty_returns_zero():
    assert percentile([], 50) == 0.0


def test_percentile_median_of_known_values():
    assert percentile([1.0, 2.0, 3.0], 50) == pytest.approx(2.0)


def test_summarize_latencies_keys_and_values():
    summary = summarize_latencies([10.0, 20.0, 30.0, 40.0])
    assert set(summary) == {"p25", "p50", "p95", "p99", "mean", "count"}
    assert summary["count"] == 4
    assert summary["mean"] == pytest.approx(25.0)
    assert summary["p50"] == pytest.approx(25.0)
    assert summary["p95"] <= summary["p99"] <= 40.0


def test_summarize_latencies_empty():
    summary = summarize_latencies([])
    assert summary["count"] == 0
    assert summary["p95"] == 0.0
    assert summary["p99"] == 0.0


class TestWindowedAccuracy:
    def test_empty_window_reports_perfect_accuracy(self):
        assert WindowedAccuracy(window=4).accuracy() == 1.0

    def test_rejects_non_positive_window(self):
        with pytest.raises(ValueError):
            WindowedAccuracy(window=0)

    def test_accuracy_over_partial_window(self):
        monitor = WindowedAccuracy(window=4)
        monitor.record(True)
        monitor.record(False)
        assert monitor.accuracy() == pytest.approx(0.5)
        assert not monitor.full()

    def test_window_slides(self):
        monitor = WindowedAccuracy(window=2)
        monitor.record(False)
        monitor.record(False)
        monitor.record(True)
        monitor.record(True)
        assert monitor.accuracy() == 1.0

    def test_reset_clears_history(self):
        monitor = WindowedAccuracy(window=2)
        monitor.record(False)
        monitor.reset()
        assert monitor.accuracy() == 1.0
        assert len(monitor) == 0


def test_savings_percent():
    assert savings_percent(100.0, 60.0) == pytest.approx(40.0)
    assert savings_percent(0.0, 60.0) == 0.0
