"""Figure 19 and Table 3: sensitivity to the accuracy constraint and ramp budget.

Looser accuracy constraints increase Apparate's wins markedly; larger ramp
budgets help only marginally (diminishing returns from overlapping ramps).
"""

import pytest

from bench_common import (cv_workload, nlp_workload, pct_win, print_table,
                          run_once, run_systems)
from repro.api import ExitPolicySpec


def _sweep(model_name, workload, **policies):
    """Vanilla's summary and Apparate's result under each exit policy."""
    vanilla = run_systems(model_name, workload, ["vanilla"]).result("vanilla")
    return vanilla.summary, {
        key: run_systems(model_name, workload, ["apparate"],
                         ee=ExitPolicySpec(**{knob: key}))
        .result("apparate")
        for knob, keys in policies.items() for key in keys}

ACCURACY_TARGETS = [0.01, 0.02, 0.05]
RAMP_BUDGETS = [0.02, 0.05, 0.10]
CASES = {"resnet50": ("cv", "urban-day"), "gpt2-medium": ("nlp", "amazon")}


@pytest.mark.parametrize("model_name", sorted(CASES))
def test_fig19_accuracy_constraint_sensitivity(benchmark, model_name):
    kind, source = CASES[model_name]
    workload = cv_workload(model_name, source) if kind == "cv" else nlp_workload(model_name, source)

    vanilla, results = run_once(benchmark, _sweep, model_name, workload,
                                accuracy_constraint=ACCURACY_TARGETS)
    rows = []
    wins = {}
    for target in ACCURACY_TARGETS:
        wins[target] = pct_win(vanilla["p50_ms"], results[target].summary["p50_ms"])
        rows.append({"model": model_name, "accuracy_target_%": target * 100,
                     "win_%": wins[target],
                     "achieved_accuracy": results[target].summary["accuracy"]})
    print_table("Figure 19 — accuracy-constraint sensitivity", rows)

    # Shape: loosening the constraint never reduces the achievable win, and
    # every run respects its own constraint (with finite-window slack).
    assert wins[0.05] >= wins[0.01] - 2.0
    for target in ACCURACY_TARGETS:
        assert results[target].summary["accuracy"] >= 1.0 - target - 0.01


@pytest.mark.parametrize("model_name", sorted(CASES))
def test_table3_ramp_budget_sensitivity(benchmark, model_name):
    kind, source = CASES[model_name]
    workload = cv_workload(model_name, source) if kind == "cv" else nlp_workload(model_name, source)

    vanilla, results = run_once(benchmark, _sweep, model_name, workload,
                                ramp_budget=RAMP_BUDGETS)
    rows = []
    wins = {}
    for budget in RAMP_BUDGETS:
        wins[budget] = pct_win(vanilla["p50_ms"], results[budget].summary["p50_ms"])
        rows.append({"model": model_name, "ramp_budget_%": budget * 100,
                     "win_%": wins[budget],
                     "active_ramps": results[budget].summary["active_ramps"],
                     "p95_ms": results[budget].summary["p95_ms"]})
    print_table("Table 3 — ramp-budget sensitivity", rows)

    # Shape: more budget never hurts much, and gains taper (diminishing returns).
    assert wins[0.10] >= wins[0.02] - 3.0
    spread = wins[0.10] - wins[0.02]
    assert spread < 25.0
