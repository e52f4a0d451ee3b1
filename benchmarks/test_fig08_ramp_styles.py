"""Figure 8: many lightweight ramps beat fewer, heavier ramps.

Under the same ramp budget, Apparate's default (pooling + final fc) ramps
allow more simultaneously active positions than conv-heavy or deep-pooler
alternatives, which the paper finds yields 1.3-5.4x lower median latencies.
"""

import pytest

from bench_common import cv_workload, nlp_workload, print_table, run_once, run_systems
from repro.api import ExitPolicySpec
from repro.exits.ramps import RampStyle

CASES = {
    "resnet50": ("cv", "urban-day", [RampStyle.LIGHTWEIGHT, RampStyle.CONV_HEAVY]),
    "bert-base": ("nlp", "amazon", [RampStyle.LIGHTWEIGHT, RampStyle.STACKED_FC,
                                    RampStyle.DEEP_POOLER]),
}


@pytest.mark.parametrize("model_name", sorted(CASES))
def test_fig08_lightweight_ramps_maximize_savings(benchmark, model_name):
    kind, source, styles = CASES[model_name]
    workload = cv_workload(model_name, source) if kind == "cv" else nlp_workload(model_name, source)

    def sweep():
        return {style: run_systems(model_name, workload, ["apparate"],
                                   ee=ExitPolicySpec(ramp_style=style))
                .result("apparate") for style in styles}

    results = run_once(benchmark, sweep)
    rows = [{"model": model_name, "ramp_style": style.value,
             "p50_ms": results[style].summary["p50_ms"],
             "accuracy": results[style].summary["accuracy"],
             "active_ramps": results[style].summary["active_ramps"]}
            for style in styles]
    print_table("Figure 8 — ramp architecture comparison", rows)

    light = results[RampStyle.LIGHTWEIGHT]
    for style in styles[1:]:
        heavy = results[style]
        # Shape: the lightweight default is at least as good as heavier styles
        # and never activates fewer ramps; every style meets the constraint.
        assert light.summary["p50_ms"] <= heavy.summary["p50_ms"] * 1.05
        assert light.raw.fleet.primary().catalog.max_active_ramps() >= \
            heavy.raw.fleet.primary().catalog.max_active_ramps()
        assert heavy.summary["accuracy"] >= 0.985
