"""Figure 17: the effect of looser SLOs on Apparate's wins.

Higher SLOs induce larger serving batches and more queuing, which dampens
Apparate's *relative* latency savings (its exits shave serving time, not
queueing).  The paper shows wins shrinking as SLOs grow from 1x to 4x.
"""

import pytest

from bench_common import pct_win, print_table, run_once, run_systems
from repro.models.zoo import get_model
from repro.workloads.nlp import make_nlp_workload
from repro.workloads.video import make_video_workload

SLO_SCALES = [1.0, 2.0, 4.0]
CASES = {
    # The paper upsamples video to 120 fps for this experiment so queuing exists.
    "resnet50": make_video_workload("urban-day", num_frames=4000, fps=120.0, seed=1),
    "bert-base": make_nlp_workload("amazon", num_requests=4000, rate_qps=40.0, seed=2),
}


@pytest.mark.parametrize("model_name", sorted(CASES))
def test_fig17_wins_shrink_with_looser_slos(benchmark, model_name):
    workload = CASES[model_name]
    base_slo = get_model(model_name).default_slo_ms

    def sweep():
        return {scale: run_systems(model_name, workload, ["vanilla", "apparate"],
                                   slo_ms=base_slo * scale)
                for scale in SLO_SCALES}

    results = run_once(benchmark, sweep)
    rows = []
    wins = {}
    for scale in SLO_SCALES:
        vanilla = results[scale].result("vanilla").summary
        apparate = results[scale].result("apparate").summary
        wins[scale] = pct_win(vanilla["p50_ms"], apparate["p50_ms"])
        rows.append({"model": model_name, "slo_scale": scale,
                     "vanilla_p50_ms": vanilla["p50_ms"],
                     "apparate_p50_ms": apparate["p50_ms"],
                     "win_%": wins[scale],
                     "avg_batch": vanilla["avg_batch_size"]})
    print_table("Figure 17 — SLO sensitivity", rows)

    # Shape: wins stay positive throughout, and for the queuing-dominated NLP
    # workload the relative win does not grow as SLOs loosen (larger batches
    # and queuing dilute serving-time savings).  The simulated CV substrate
    # under-weights queuing growth, so its trend is asserted only weakly.
    assert all(w >= -2.0 for w in wins.values())
    if model_name == "bert-base":
        assert wins[4.0] <= wins[1.0] + 3.0
    else:
        assert wins[4.0] <= wins[1.0] + 15.0
