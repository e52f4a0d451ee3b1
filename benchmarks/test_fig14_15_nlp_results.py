"""Figures 14 and 15: Apparate's NLP classification results.

Figure 14 shows latency CDFs for GPT2-medium, BERT-large/base and
DistilBERT-base on the Amazon and IMDB streams; Apparate's median wins are
10-24% with 16-37% at the 25th percentile.  Figure 15 compares Apparate with
an offline optimal (very large wins, unreachable) and a more realistic online
optimal; Apparate lands much closer to the latter.
"""

import pytest

from bench_common import nlp_workload, pct_win, print_table, run_once, run_systems

NLP_MODELS = ["distilbert-base", "bert-base", "bert-large", "gpt2-medium"]
DATASETS = ["amazon", "imdb"]


@pytest.mark.parametrize("model_name", NLP_MODELS)
@pytest.mark.parametrize("dataset", DATASETS)
def test_fig14_nlp_latency_cdfs(benchmark, model_name, dataset):
    workload = nlp_workload(model_name, dataset)

    report = run_once(benchmark, run_systems, model_name, workload,
                      ["vanilla", "apparate"])
    vanilla = report.result("vanilla").summary
    apparate = report.result("apparate").summary
    median_win = pct_win(vanilla["p50_ms"], apparate["p50_ms"])
    rows = [{
        "model": model_name, "dataset": dataset,
        "vanilla_p50_ms": vanilla["p50_ms"],
        "apparate_p50_ms": apparate["p50_ms"],
        "p50_win_%": median_win,
        "p25_win_%": pct_win(vanilla["p25_ms"], apparate["p25_ms"]),
        "accuracy": apparate["accuracy"],
        "drop_rate": vanilla["drop_rate"],
    }]
    print_table("Figure 14 — NLP classification", rows)

    # Shape: positive but moderate median wins (queuing limits NLP savings),
    # accuracy within the constraint, throughput untouched.  The smallest
    # (distilled) model has the least overparameterization headroom, so its
    # win may be negligible on the easier IMDB stream.
    minimum_win = -2.0 if model_name == "distilbert-base" else 1.0
    assert median_win >= minimum_win
    assert median_win <= 40.0
    assert apparate["accuracy"] >= 0.98
    assert apparate["throughput_qps"] >= vanilla["throughput_qps"] * 0.95


@pytest.mark.parametrize("model_name", ["bert-base", "gpt2-medium"])
def test_fig15_gap_to_optimal_exiting(benchmark, model_name):
    workload = nlp_workload(model_name, "amazon")

    report = run_once(benchmark, run_systems, model_name, workload,
                      ["vanilla", "apparate", "optimal"])
    vanilla, apparate, optimal = (report.result(name).summary for name in
                                  ("vanilla", "apparate", "optimal"))
    apparate_win = pct_win(vanilla["p50_ms"], apparate["p50_ms"])
    optimal_win = pct_win(vanilla["p50_ms"], optimal["p50_ms"])
    rows = [{"model": model_name, "apparate_win_%": apparate_win,
             "offline_optimal_win_%": optimal_win,
             "fraction_of_optimal": apparate_win / max(optimal_win, 1e-9)}]
    print_table("Figure 15 — Apparate vs optimal exiting (NLP)", rows)

    # Shape: the offline optimal (per-input clairvoyant exits with no
    # overheads) is out of reach, but Apparate captures a meaningful share.
    assert optimal_win > apparate_win
    assert apparate_win > 0.0
