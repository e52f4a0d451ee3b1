"""Figure 16: Apparate vs two-layer inference systems (FilterForward / Tabi).

Two-layer systems pay the compressed model on every input and the full model
on escalations, so their tails are poor; Apparate's P95 is 20-42% lower in
the paper, and its medians win by 5.7-66.6% on the NLP workloads.
"""

import pytest

from bench_common import (cv_workload, nlp_workload, pct_win, print_table,
                          run_once, run_systems)

CASES = {
    "vgg11": ("cv", "urban-day"),
    "vgg13": ("cv", "urban-night"),
    "distilbert-base": ("nlp", "amazon"),
    "bert-base": ("nlp", "imdb"),
}


@pytest.mark.parametrize("model_name", sorted(CASES))
def test_fig16_apparate_vs_two_layer(benchmark, model_name):
    kind, source = CASES[model_name]
    workload = cv_workload(model_name, source) if kind == "cv" else nlp_workload(model_name, source)

    report = run_once(benchmark, run_systems, model_name, workload,
                      ["apparate", "two_layer"])
    apparate = report.result("apparate").summary
    two_layer_summary = report.result("two_layer").summary
    rows = [{
        "model": model_name,
        "apparate_p50_ms": apparate["p50_ms"],
        "two_layer_p50_ms": two_layer_summary["p50_ms"],
        "apparate_p95_ms": apparate["p95_ms"],
        "two_layer_p95_ms": two_layer_summary["p95_ms"],
        "p95_win_%": pct_win(two_layer_summary["p95_ms"], apparate["p95_ms"]),
        "apparate_acc": apparate["accuracy"],
        "two_layer_acc": two_layer_summary["accuracy"],
    }]
    print_table("Figure 16 — Apparate vs two-layer inference", rows)

    # Shape: Apparate's tails are strictly better (hard inputs never pay an
    # extra compressed-model pass), and its accuracy is no worse.
    assert apparate["p95_ms"] < two_layer_summary["p95_ms"]
    if kind == "nlp":
        assert apparate["p50_ms"] < two_layer_summary["p50_ms"]
