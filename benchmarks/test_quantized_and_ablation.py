"""§4.2 quantized models and §4.5 ablation of ramp adjustment.

* Quantized (Int8) BERT models: Apparate's wins largely persist, with a mild
  dip because quantization removes some of the overparameterization exits rely
  on (paper: 7.3-19.4% median wins vs 10.0-24.2% unquantized).
* Disabling ramp adjustment costs 20-33% of the median latency wins while
  accuracy and tail constraints continue to hold.
"""

import pytest

from bench_common import (cv_workload, nlp_workload, pct_win, print_table,
                          run_once, run_systems)
from repro.api import ExitPolicySpec
from repro.models.quantization import quantized_spec
from repro.models.zoo import get_model

QUANTIZED_BASES = ["bert-base", "bert-large"]


@pytest.mark.parametrize("base_name", QUANTIZED_BASES)
def test_quantized_models_keep_most_of_the_wins(benchmark, base_name):
    spec = quantized_spec(get_model(base_name), register=True)
    workload = nlp_workload(spec.name, "amazon")
    base_workload = nlp_workload(base_name, "amazon")

    def compare():
        return (run_systems(spec, workload, ["vanilla", "apparate"]),
                run_systems(base_name, base_workload, ["vanilla", "apparate"]))

    quantized, full = run_once(benchmark, compare)
    apparate_q = quantized.result("apparate").summary
    win_q = pct_win(quantized.result("vanilla").summary["p50_ms"],
                    apparate_q["p50_ms"])
    win_fp = pct_win(full.result("vanilla").summary["p50_ms"],
                     full.result("apparate").summary["p50_ms"])
    rows = [{"model": base_name, "fp_win_%": win_fp, "int8_win_%": win_q,
             "int8_accuracy": apparate_q["accuracy"]}]
    print_table("§4.2 — quantized models", rows)

    # Shape: wins persist on the quantized model (possibly milder) and the
    # accuracy constraint still holds.
    assert win_q > 0.0
    assert win_q <= win_fp + 5.0
    assert apparate_q["accuracy"] >= 0.98


@pytest.mark.parametrize("model_name,kind,source", [("resnet50", "cv", "urban-day"),
                                                    ("gpt2-medium", "nlp", "amazon")])
def test_ablation_disabling_ramp_adjustment_costs_wins(benchmark, model_name, kind, source):
    workload = cv_workload(model_name, source) if kind == "cv" else nlp_workload(model_name, source)

    def compare():
        return tuple(
            run_systems(model_name, workload, [system],
                        ee=ExitPolicySpec(ramp_adjustment_enabled=enabled))
            .result(system).summary
            for system, enabled in (("vanilla", True), ("apparate", True),
                                    ("apparate", False)))

    vanilla, full, no_adjust = run_once(benchmark, compare)
    win_full = pct_win(vanilla["p50_ms"], full["p50_ms"])
    win_no_adjust = pct_win(vanilla["p50_ms"], no_adjust["p50_ms"])
    rows = [{"model": model_name, "win_full_%": win_full,
             "win_no_adjustment_%": win_no_adjust,
             "accuracy_no_adjustment": no_adjust["accuracy"],
             "p95_ratio_no_adjustment": no_adjust["p95_ms"]
             / max(vanilla["p95_ms"], 1e-9)}]
    print_table("§4.5 — ramp-adjustment ablation", rows)

    # Shape: ramp adjustment contributes part of the wins; without it the
    # system still meets accuracy and tail constraints.
    assert win_full >= win_no_adjust - 2.0
    assert no_adjust["accuracy"] >= 0.98
    assert no_adjust["p95_ms"] <= vanilla["p95_ms"] * 1.05
