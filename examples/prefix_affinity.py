#!/usr/bin/env python3
"""KV-aware routing: prefix-affinity placement on a shared-prefix workload.

Chat-style fleets see heavy prompt reuse — a handful of system prompts and
few-shot headers open most requests.  Whether that reuse turns into cache
hits is a *placement* decision: the shared prefix is resident on whichever
decode replica served the group last, so a balancer that ignores residency
re-prefills the same tokens again and again.  This walkthrough makes
KV-cache memory a routed resource:

1. build a generative workload with shared-prefix structure
   (``prefix_groups=8``: every sequence opens with one of eight ~256-token
   system prompts) on a diurnal arrival cycle;
2. give each decode replica a finite KV budget (``kv_capacity``): admission
   claims footprint, over-capacity occupancy LRU-evicts, and an evicted
   still-running sequence pays a re-prefill recompute;
3. serve the same workload under prefix-blind balancers (round-robin, JSQ,
   least-work) and the two KV-aware policies — ``kv_aware_least_work``
   (avoid replicas the sequence would thrash) and ``prefix_affinity``
   (discount replicas by the prefill their resident prefix saves);
4. read the routed-resource outcome off the report: ``prefix_affinity``
   earns the highest hit-rate AND the best TTFT p99 — affinity and load are
   traded off in one currency (milliseconds), so groups spill instead of
   herding onto a hotspot.

Run:  python examples/prefix_affinity.py
"""

from repro.api import ClusterSpec, Experiment, WorkloadSpec
from repro.generative.decoding import kv_bytes_per_token
from repro.models.zoo import get_model

MODEL = "t5-large"
SEQUENCES = 200
RATE_QPS = 30.0
REPLICAS = 4
CAPACITY_TOKENS = 3000      # per-replica KV budget, in tokens
PREFIX_GROUPS = 8
PREFIX_TOKENS = 256

BALANCERS = ("round_robin", "join_shortest_queue", "least_work_left",
             "kv_aware_least_work", "prefix_affinity")


def serve(balancer: str):
    capacity_bytes = CAPACITY_TOKENS * kv_bytes_per_token(get_model(MODEL))
    experiment = Experiment(
        model=MODEL,
        workload=WorkloadSpec(kind="generative", source="squad",
                              requests=SEQUENCES, rate=RATE_QPS,
                              arrival_process="diurnal",
                              prefix_groups=PREFIX_GROUPS, prefix_share=1.0,
                              prefix_tokens=PREFIX_TOKENS),
        cluster=ClusterSpec(replicas=REPLICAS, balancer=balancer,
                            prefill_in_slot=True,
                            kv_capacity=capacity_bytes),
        max_batch_size=2,    # scarce decode slots: queueing shapes the tail
        seed=13)
    return experiment.run(["vanilla"]).result("vanilla")


def main() -> None:
    print(f"=== {REPLICAS}-replica monolithic fleet, "
          f"{PREFIX_GROUPS}x{PREFIX_TOKENS}-token shared prefixes, "
          f"{CAPACITY_TOKENS}-token KV budget per replica ===")
    print(f"{'balancer':<22s} {'ttft p99':>10s} {'hit rate':>9s} "
          f"{'evictions':>10s} {'recompute':>10s}")
    results = {}
    for balancer in BALANCERS:
        result = serve(balancer)
        kv = result.details["kv_cache"]
        results[balancer] = (result.summary["ttft_p99_ms"], kv)
        print(f"{balancer:<22s} {result.summary['ttft_p99_ms']:>8.1f}ms "
              f"{kv['hit_rate']:>9.1%} {kv['evictions']:>10d} "
              f"{kv['recompute_tokens']:>10d}")

    affinity_ttft, affinity_kv = results["prefix_affinity"]
    best_blind = min(results[b][0] for b in BALANCERS[:3])
    print(f"\nprefix_affinity TTFT p99 win over best prefix-blind: "
          f"{100.0 * (best_blind - affinity_ttft) / best_blind:.1f}%  "
          f"(hit rate {affinity_kv['hit_rate']:.1%})")
    print(f"Same knobs on the CLI:  repro-apparate run --model {MODEL} "
          f"--workload generative:squad --replicas {REPLICAS} \\\n    "
          "--balancer prefix-affinity --kv-capacity "
          f"{CAPACITY_TOKENS * kv_bytes_per_token(get_model(MODEL))} "
          f"--prefix-groups {PREFIX_GROUPS} --prefix-tokens {PREFIX_TOKENS}")


if __name__ == "__main__":
    main()
