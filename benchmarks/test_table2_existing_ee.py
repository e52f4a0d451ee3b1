"""Table 2: comparison with existing EE models (BranchyNet / DeeBERT).

Static, always-on-ramp EE models with one-time threshold tuning lose up to
23.9 (CV) and 17.8 (NLP) accuracy points under workload drift, while Apparate
meets the 1% constraint; and even the oracle-tuned variant of the static
baselines does not beat Apparate's tails.
"""

import pytest

from bench_common import (cv_workload, nlp_workload, print_table, run_once,
                          run_systems)
from repro.api import ExitPolicySpec
from repro.baselines.static_ee import StaticEEVariant
from repro.exits.ramps import RampStyle

CASES = {
    "resnet50": ("cv", "urban-day", RampStyle.LIGHTWEIGHT),    # BranchyNet style
    "bert-base": ("nlp", "amazon", RampStyle.DEEP_POOLER),     # DeeBERT style
}
VARIANTS = [StaticEEVariant.SHARED, StaticEEVariant.PER_RAMP, StaticEEVariant.ORACLE]


@pytest.mark.parametrize("model_name", sorted(CASES))
def test_table2_static_ee_vs_apparate(benchmark, model_name):
    kind, source, style = CASES[model_name]
    workload = cv_workload(model_name, source) if kind == "cv" else nlp_workload(model_name, source)

    def compare():
        report = run_systems(model_name, workload, ["vanilla", "apparate"])
        static = {variant: run_systems(
                      model_name, workload, ["static_ee"],
                      ee=ExitPolicySpec(ramp_style=style),
                      overrides={"static_ee": {"variant": variant}})
                  .result("static_ee").summary for variant in VARIANTS}
        return (report.result("vanilla").summary,
                report.result("apparate").summary, static)

    vanilla, apparate, static = run_once(benchmark, compare)

    def row(name, summary):
        return {"system": name, "model": model_name,
                "accuracy": summary["accuracy"],
                "p50_ms": summary["p50_ms"],
                "p95_ms": summary["p95_ms"]}

    rows = [row("Apparate", apparate)]
    rows += [row(f"static-{variant.value}", static[variant]) for variant in VARIANTS]
    rows.append(row("vanilla", vanilla))
    print_table("Table 2 — existing EE models", rows)

    # Shape: Apparate meets the constraint and its tail stays within the 2%
    # budget of vanilla serving.  The one-time-tuned CV baseline loses
    # noticeably more accuracy under drift (BranchyNet rows of Table 2); the
    # NLP baseline's always-on deep-pooler ramps tax its median latency
    # (DeeBERT rows of Table 2).
    assert apparate["accuracy"] >= 0.985
    assert apparate["p95_ms"] <= vanilla["p95_ms"] * 1.03
    worst_static = min(static[v]["accuracy"] for v in
                       (StaticEEVariant.SHARED, StaticEEVariant.PER_RAMP))
    if kind == "cv":
        assert worst_static < apparate["accuracy"]
    else:
        assert apparate["p50_ms"] < static[StaticEEVariant.SHARED]["p50_ms"]
