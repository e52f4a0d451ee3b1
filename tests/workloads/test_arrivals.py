"""Tests for arrival processes."""

import numpy as np
import pytest

from repro.utils.rng import RngFactory
from repro.workloads.arrivals import (diurnal_arrivals, fixed_rate_arrivals,
                                      flash_crowd_arrivals, maf_trace_arrivals,
                                      poisson_arrivals, trace_arrivals)


def test_fixed_rate_spacing():
    arrivals = fixed_rate_arrivals(10, rate_qps=20.0)
    assert np.allclose(np.diff(arrivals), 50.0)


def test_fixed_rate_start_offset():
    arrivals = fixed_rate_arrivals(3, rate_qps=10.0, start_ms=500.0)
    assert arrivals[0] == pytest.approx(500.0)


def test_fixed_rate_rejects_non_positive_rate():
    with pytest.raises(ValueError):
        fixed_rate_arrivals(5, rate_qps=0.0)


def test_poisson_mean_rate_close_to_target():
    rng = RngFactory(0).generator("poisson")
    arrivals = poisson_arrivals(20_000, rate_qps=50.0, rng=rng)
    duration_s = (arrivals[-1] - arrivals[0]) / 1000.0
    observed = len(arrivals) / duration_s
    assert observed == pytest.approx(50.0, rel=0.1)


def test_poisson_monotone_timestamps():
    rng = RngFactory(1).generator("poisson")
    arrivals = poisson_arrivals(1000, 10.0, rng)
    assert np.all(np.diff(arrivals) >= 0)


def test_maf_produces_requested_count():
    rng = RngFactory(2).generator("maf")
    arrivals = maf_trace_arrivals(5000, mean_rate_qps=30.0, rng=rng)
    assert arrivals.shape == (5000,)
    assert np.all(np.diff(arrivals) >= 0)


def test_maf_mean_rate_in_reasonable_band():
    rng = RngFactory(3).generator("maf")
    arrivals = maf_trace_arrivals(30_000, mean_rate_qps=40.0, rng=rng)
    duration_s = (arrivals[-1] - arrivals[0]) / 1000.0
    observed = len(arrivals) / duration_s
    assert 15.0 < observed < 120.0


def test_maf_is_burstier_than_poisson():
    """Azure-Functions-like traces have heavier per-second rate variation."""
    rng = RngFactory(4)
    maf = maf_trace_arrivals(20_000, 40.0, rng.generator("maf"))
    poisson = poisson_arrivals(20_000, 40.0, rng.generator("poisson"))

    def per_second_cv(arrivals):
        seconds = np.floor(arrivals / 1000.0).astype(int)
        counts = np.bincount(seconds - seconds.min())
        counts = counts[counts > 0]
        return counts.std() / counts.mean()

    assert per_second_cv(maf) > per_second_cv(poisson)


def test_rejects_non_positive_rates():
    rng = RngFactory(5).generator("x")
    with pytest.raises(ValueError):
        poisson_arrivals(10, 0.0, rng)
    with pytest.raises(ValueError):
        maf_trace_arrivals(10, -1.0, rng)


@pytest.mark.parametrize("rate", [float("nan"), float("inf")])
@pytest.mark.parametrize("generator", [
    lambda rate, rng: fixed_rate_arrivals(10, rate),
    lambda rate, rng: poisson_arrivals(10, rate, rng),
    lambda rate, rng: maf_trace_arrivals(10, rate, rng),
    lambda rate, rng: diurnal_arrivals(10, low_qps=rate, high_qps=rate),
    lambda rate, rng: diurnal_arrivals(10, low_qps=1.0, high_qps=rate),
    lambda rate, rng: flash_crowd_arrivals(10, rate, rng),
], ids=["fixed", "poisson", "maf", "diurnal-low", "diurnal-high", "flash-crowd"])
def test_rejects_non_finite_rates(generator, rate):
    """NaN arrival times never compare below the next event, so a NaN rate
    would spin the simulator forever; an infinite one puts every arrival at
    t = 0."""
    with pytest.raises(ValueError, match="finite|inf"):
        generator(rate, RngFactory(5).generator("x"))


def test_flash_crowd_spike_rate_jumps():
    """During the spike window the observed rate is several times the base."""
    rng = RngFactory(6).generator("flash")
    arrivals = flash_crowd_arrivals(20_000, base_qps=20.0, rng=rng,
                                    spike_start_s=60.0, spike_multiplier=5.0,
                                    spike_duration_s=120.0)
    assert arrivals.shape == (20_000,)
    assert np.all(np.diff(arrivals) >= 0)
    before = np.sum(arrivals < 60_000.0)
    spike = np.sum((arrivals >= 60_000.0) & (arrivals < 180_000.0))
    base_rate = before / 60.0
    spike_rate = spike / 120.0
    assert spike_rate > 3.0 * base_rate


def test_flash_crowd_returns_to_base_after_spike():
    rng = RngFactory(7).generator("flash")
    arrivals = flash_crowd_arrivals(5_000, base_qps=20.0, rng=rng,
                                    spike_start_s=10.0, spike_multiplier=4.0,
                                    spike_duration_s=20.0)
    after = arrivals[arrivals >= 30_000.0]
    assert len(after) > 100
    observed = len(after) / ((after[-1] - after[0]) / 1000.0)
    assert 10.0 < observed < 40.0


def test_flash_crowd_validation():
    rng = RngFactory(8).generator("flash")
    with pytest.raises(ValueError):
        flash_crowd_arrivals(10, base_qps=0.0, rng=rng)
    with pytest.raises(ValueError):
        flash_crowd_arrivals(10, base_qps=5.0, rng=rng, spike_start_s=-1.0)
    with pytest.raises(ValueError):
        flash_crowd_arrivals(10, base_qps=5.0, rng=rng, spike_multiplier=0.5)
    with pytest.raises(ValueError):
        flash_crowd_arrivals(10, base_qps=5.0, rng=rng, spike_duration_s=0.0)


def test_trace_replay_sorts_and_truncates():
    arrivals = trace_arrivals(3, [500.0, 100.0, 900.0, 300.0])
    assert np.allclose(arrivals, [100.0, 300.0, 500.0])


def test_trace_replay_from_csv(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("0.0,250.5,1000.0\n2000.0\n")
    arrivals = trace_arrivals(4, str(path))
    assert np.allclose(arrivals, [0.0, 250.5, 1000.0, 2000.0])


def test_trace_replay_validation(tmp_path):
    with pytest.raises(ValueError, match="holds 2 timestamps; 5 requested"):
        trace_arrivals(5, [1.0, 2.0])
    with pytest.raises(ValueError, match="finite"):
        trace_arrivals(2, [1.0, float("nan")])
    with pytest.raises(ValueError, match=">= 0"):
        trace_arrivals(2, [-5.0, 1.0])
    with pytest.raises(ValueError, match="not found"):
        trace_arrivals(2, str(tmp_path / "missing.csv"))


def test_workload_factories_accept_new_processes(tmp_path):
    from repro.generative.sequences import make_generative_workload
    from repro.workloads.nlp import make_nlp_workload

    nlp = make_nlp_workload(num_requests=200, rate_qps=40.0,
                            arrival_process="flash_crowd")
    assert len(nlp.arrival_times_ms) == 200

    gen = make_generative_workload(num_sequences=50, rate_qps=4.0,
                                   arrival_process="flash_crowd")
    assert len(gen.sequences) == 50

    path = tmp_path / "gen_trace.csv"
    path.write_text(",".join(str(250.0 * i) for i in range(60)))
    gen = make_generative_workload(num_sequences=50, rate_qps=4.0,
                                   arrival_process=f"trace:{path}")
    assert gen.sequences[0].arrival_ms == 0.0
    assert gen.sequences[-1].arrival_ms == 250.0 * 49

    with pytest.raises(ValueError, match="unknown arrival_process"):
        make_nlp_workload(num_requests=10, arrival_process="bogus")
    with pytest.raises(ValueError, match="unknown arrival_process"):
        make_generative_workload(num_sequences=10, arrival_process="bogus")
