#!/usr/bin/env python3
"""Streaming sentiment analysis (the paper's NLP classification workloads).

Serves Amazon- and IMDB-like review streams with the BERT-family models under
bursty Azure-Functions-like arrivals, comparing vanilla serving, Apparate and
a Tabi-style two-layer cascade.  This is §4.2's NLP experiment in miniature:
Apparate's wins are smaller than for CV (queuing dominates and review streams
have little continuity) but accuracy always stays within the 1% constraint
while the cascade suffers on tail latency.

Run:  python examples/nlp_sentiment.py
"""

from repro.api import Experiment
from repro.workloads import make_nlp_workload

CASES = [
    ("distilbert-base", "amazon", 30.0),
    ("bert-base", "amazon", 20.0),
    ("bert-base", "imdb", 20.0),
    ("bert-large", "amazon", 10.0),
    ("gpt2-medium", "amazon", 6.0),
]
NUM_REQUESTS = 4000


def main() -> None:
    print(f"{'model':<16s} {'dataset':<8s} {'vanilla p50':>12s} {'Apparate p50':>13s} "
          f"{'win %':>7s} {'2-layer p95':>12s} {'Apparate p95':>13s} {'accuracy':>9s}")
    for model, dataset, rate in CASES:
        workload = make_nlp_workload(dataset, num_requests=NUM_REQUESTS, rate_qps=rate, seed=11)
        report = Experiment(model=model, workload=workload) \
            .run(["vanilla", "apparate", "two_layer"])
        vanilla, apparate, two_layer = (
            report.result(name).summary
            for name in ("vanilla", "apparate", "two_layer"))

        win = 100.0 * (vanilla["p50_ms"] - apparate["p50_ms"]) / vanilla["p50_ms"]
        print(f"{model:<16s} {dataset:<8s} {vanilla['p50_ms']:12.2f} "
              f"{apparate['p50_ms']:13.2f} {win:7.1f} "
              f"{two_layer['p95_ms']:12.2f} "
              f"{apparate['p95_ms']:13.2f} "
              f"{apparate['accuracy']:9.3f}")


if __name__ == "__main__":
    main()
