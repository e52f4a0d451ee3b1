#!/usr/bin/env python3
"""Generative LLM serving with early exits and parallel decoding (§3.4, §4.3).

Serves synthetic CNN/DailyMail-style summarization and SQuAD-style question
answering with T5-large and Llama2, comparing vanilla decoding, Apparate's
adaptive single ramp, the FREE baseline (one-time-tuned fixed ramp) and the
optimal oracle.  Expect large median time-per-token (TPT) wins for T5 and
smaller ones for Llama2, with Apparate holding the accuracy constraint where
FREE's static tuning may not.

Run:  python examples/generative_llm.py
"""

from repro.api import Experiment
from repro.generative.sequences import make_generative_workload

CASES = [
    ("t5-large", "cnn-dailymail"),
    ("t5-large", "squad"),
    ("llama2-7b", "squad"),
    ("llama2-13b", "squad"),
]


def main() -> None:
    print(f"{'model':<12s} {'dataset':<14s} {'vanilla TPT':>12s} {'Apparate TPT':>13s} "
          f"{'win %':>7s} {'FREE TPT':>9s} {'optimal TPT':>12s} {'acc (A/F)':>12s}")
    for model, dataset in CASES:
        workload = make_generative_workload(dataset, num_sequences=150, rate_qps=2.0,
                                            seed=5, drift_amplitude=0.3, drift_mode="trend")
        report = Experiment(model=model, workload=workload) \
            .run(["vanilla", "apparate", "free", "optimal"])
        vanilla, apparate, free, optimal = (
            report.result(name).summary
            for name in ("vanilla", "apparate", "free", "optimal"))

        win = 100.0 * (vanilla["tpt_p50_ms"] - apparate["tpt_p50_ms"]) \
            / vanilla["tpt_p50_ms"]
        print(f"{model:<12s} {dataset:<14s} {vanilla['tpt_p50_ms']:12.2f} "
              f"{apparate['tpt_p50_ms']:13.2f} {win:7.1f} "
              f"{free['tpt_p50_ms']:9.2f} {optimal['tpt_p50_ms']:12.2f} "
              f"{apparate['sequence_accuracy']:.3f}/"
              f"{free['sequence_accuracy']:.3f}")

        # One replica, so one token policy.
        policy = report.result("apparate").raw.policies[0]
        print(f"{'':12s} ramp settled at depth {policy.ramp_depth:.2f} "
              f"(threshold {policy.threshold:.2f}) after {policy.position_moves} moves "
              f"and {policy.threshold_tunings} threshold tunings")


if __name__ == "__main__":
    main()
