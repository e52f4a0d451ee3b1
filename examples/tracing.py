#!/usr/bin/env python3
"""Tracing walkthrough: attribute a tail latency phase by phase.

End-of-run rollups can say *that* the p99 blew up; a trace says *where*.
This example serves a generative workload on a disaggregated
prefill/decode fleet with tracing enabled and then answers three
questions the summary table cannot:

1. where does a typical request spend its time (per-phase p50/p99
   breakdown: prefill wait, prefill, KV transfer, decode queue, decode);
2. which request was the worst, and which phase did its latency hide in;
3. what did the fleet look like over time (gauge series: queue depths,
   busy slots, handoff backlog) — exported as Chrome trace-event JSON
   you can open in Perfetto or chrome://tracing, one process per pool,
   one track per replica.

Tracing is off by default and costs nothing when off; with it on, the
recorder only reads timestamps the simulator already computed, so the
metrics are bit-identical to the untraced run — the trace *is* the run.

Run:  python examples/tracing.py            # writes trace_disagg.json
"""

from repro.api import ClusterSpec, Experiment, WorkloadSpec
from repro.obs import format_phase_table, write_chrome_trace

MODEL = "llama2-7b"
SEQUENCES = 300
PREFILL_REPLICAS = 2
DECODE_REPLICAS = 3
TRACE_PATH = "trace_disagg.json"


def main() -> None:
    experiment = Experiment(
        model=MODEL,
        workload=WorkloadSpec("generative", requests=SEQUENCES),
        cluster=ClusterSpec(replicas=DECODE_REPLICAS, disaggregate=True,
                            prefill_replicas=PREFILL_REPLICAS),
        trace=True)
    result = experiment.run(["vanilla"]).result("vanilla")
    obs = result.details["obs"]

    print(f"=== {MODEL}: {SEQUENCES} sequences, {PREFILL_REPLICAS} prefill + "
          f"{DECODE_REPLICAS} decode replicas ===")
    spans = obs["spans"]
    print(f"spans: {spans['total']} admitted, {spans['closed']} closed "
          f"({spans['outcomes']})\n")

    print("Where a request spends its time:")
    print(format_phase_table(obs["phases"]))

    worst = obs["worst_request"]
    print(f"\nWorst served request: #{worst['request_id']} "
          f"({worst['latency_ms']:.1f} ms end to end)")
    for phase, ms in sorted(worst["phases"].items(), key=lambda kv: -kv[1]):
        share = 100.0 * ms / worst["latency_ms"]
        print(f"  {phase:<14s} {ms:9.1f} ms  ({share:4.1f}%)")

    # The same spans + gauges as a Perfetto-loadable timeline.
    write_chrome_trace(result.trace, TRACE_PATH)
    print(f"\nwrote {TRACE_PATH} — open in https://ui.perfetto.dev or "
          "chrome://tracing")
    print(f"Same knobs on the CLI:  repro-apparate run --model {MODEL} "
          f"--disaggregate --requests {SEQUENCES} \\\n    --prefill-replicas "
          f"{PREFILL_REPLICAS} --decode-replicas {DECODE_REPLICAS} "
          f"--trace-out {TRACE_PATH}")


if __name__ == "__main__":
    main()
