#!/usr/bin/env python3
"""Quickstart: declare one Experiment, compare every system on it.

The ``repro.api`` facade is the front door to the reproduction: an
:class:`~repro.api.Experiment` declares the model, the workload and the exit
policy once, and any set of registered systems (``vanilla``, ``apparate``,
``static_ee``, ``two_layer``, ``optimal``, …) runs on exactly that
configuration:

1. declare a video-analytics experiment on ResNet50 with the paper's default
   knobs (1% accuracy constraint, 2% ramp budget), served by a one-replica
   fleet (``Experiment``'s default, the paper's single-model setup);
2. ``run`` vanilla serving, Apparate and the optimal oracle and print the
   cross-system comparison table;
3. put the same experiment on a **fleet**: the cluster layer is a dynamic
   control plane — ``ClusterSpec`` declares the replica set (and optionally
   an autoscaler band plus heterogeneous replica profiles), a pluggable
   balancer dispatches over the live membership, and ``sweep`` compares
   fleet shapes in one call;
4. run **generative** (token-level) serving on the same fleet control
   plane: the identical ``ClusterSpec`` on a generative model drives
   continuous-batching decode replicas, with balancers costing replicas by
   outstanding decode work and token-level fleet metrics (per-token p99,
   deferred flushes) on the result.

Run:  python examples/quickstart.py
"""

from repro.api import (ClusterSpec, Experiment, ExitPolicySpec, WorkloadSpec,
                       list_systems)


def main() -> None:
    experiment = Experiment(
        model="resnet50",
        workload=WorkloadSpec("video", "urban-day", requests=6000, rate=30.0),
        ee=ExitPolicySpec(
            accuracy_constraint=0.01,   # at most 1% accuracy loss vs the original
            ramp_budget=0.02,           # ramps may inflate worst-case latency <= 2%
        ),
        seed=0,
    )
    print(f"registered systems: {', '.join(list_systems())}")

    # One call, three systems, one comparison table.
    report = experiment.run(systems=["vanilla", "apparate", "optimal"])
    print(f"\nmodel=resnet50 workload=video:urban-day "
          f"requests={report.params['workload']['requests']}")
    print(report.format_table())

    v = report.result("vanilla").summary
    a = report.result("apparate").summary
    win = 100.0 * (v["p50_ms"] - a["p50_ms"]) / v["p50_ms"]
    print(f"\nApparate median latency win over vanilla: {win:.1f}% "
          f"(exit rate {a['exit_rate']:.0%}, accuracy {a['accuracy']:.3f})")

    # The controller's runtime adaptation stats ride along on the result.
    controller = report.result("apparate").raw.fleet.primary()
    print(f"controller: {controller.stats.threshold_tunings} threshold tunings, "
          f"{controller.stats.ramp_adjustments} ramp adjustments")
    print(f"final configuration: {controller.config.describe()}")

    # --- the fleet control plane ------------------------------------------
    # Cluster serving is declarative too: a ClusterSpec describes the fleet
    # (size, balancer, EE control topology) and the same systems run on it.
    # Sweeping fleet shapes is one call:
    sweep = experiment.sweep(systems=["vanilla"], replicas=[1, 2],
                             balancer="join_shortest_queue")
    print("\nfleet scaling (join_shortest_queue):")
    print(sweep.format_table(metrics=["p50_ms", "p99_ms", "throughput_qps"]))

    # The replica set is dynamic fleet state, not a frozen list: declare an
    # autoscaler and a [min, max] band and the fleet grows under queue/SLO
    # pressure and drains back during lulls (drained replicas finish their
    # in-flight work; every request is still answered exactly once).
    elastic = Experiment(
        model="resnet50",
        workload=WorkloadSpec("video", "urban-day", requests=3000, rate=90.0),
        cluster=ClusterSpec(replicas=1, balancer="least_work_left",
                            autoscaler="reactive",
                            min_replicas=1, max_replicas=4),
        seed=0)
    result = elastic.run(systems=["vanilla"]).result("vanilla")
    print(f"\nelastic fleet: peak {result.summary['peak_replicas']:.0f} replicas, "
          f"{result.summary['replica_seconds']:.1f} replica-seconds, "
          f"{result.summary['rerouted']:.0f} doomed requests salvaged")
    print(f"fleet-size timeline: {result.details['fleet_timeline']}")
    # Heterogeneous fleets ride the same spec: profiles="2,1,0.5" declares a
    # 2x replica beside a base and a half-speed one, and the work-aware
    # balancers (least_work_left, weighted_* variants) cost them correctly.
    # See examples/autoscaling.py for the full diurnal 2 -> 6 -> 2 story.

    # --- generative cluster serving ---------------------------------------
    # The same ClusterSpec on a generative model runs token-level early exits
    # on the fleet control plane: each replica is a continuous-batching
    # decode engine, balancers cost replicas by outstanding decode *work*
    # (queued tokens x depth-scaled step time), and drain/retire lets
    # in-flight sequences finish before a replica leaves the fleet.  At an
    # arrival rate that saturates the vanilla fleet, Apparate's exits free
    # decode slots fast enough that the queueing-inclusive per-token p99
    # collapses — the paper's latency/goodput trade, now at fleet scale.
    generative = Experiment(
        model="t5-large",
        workload=WorkloadSpec("generative", "cnn-dailymail",
                              requests=250, rate=32.0),
        cluster=ClusterSpec(replicas=4, balancer="least_work_left"),
        ee=ExitPolicySpec(accuracy_constraint=0.01),
        seed=0)
    gen_report = generative.run(systems=["vanilla", "apparate"])
    print("\ngenerative cluster (4 replicas, least_work_left):")
    print(gen_report.format_table())
    gv = gen_report.result("vanilla").summary
    ga = gen_report.result("apparate").summary
    print(f"per-token p99: vanilla {gv['token_p99_ms']:.0f}ms -> "
          f"Apparate {ga['token_p99_ms']:.0f}ms at accuracy "
          f"{ga['sequence_accuracy']:.3f} "
          f"({ga['deferred_flushes']:.0f} deferred flushes)")
    # Elastic decode fleets work too: ClusterSpec(replicas=4,
    # autoscaler="reactive", max_replicas=8) converts the same overload into
    # scale-out, and the CLI mirrors all of it:
    #   repro-apparate generate --replicas 4 --balancer least_work_left \
    #       --autoscaler reactive --max-replicas 8

    # --- prefill/decode disaggregation ------------------------------------
    # Production LLM fleets split the two generative phases onto separate
    # pools: prefill (compute-bound prompt chunking) and decode (TPT-bound
    # token streaming), connected by a KV-cache handoff.  disaggregate=True
    # runs exactly that: a 2-replica prefill pool and a 4-replica decode
    # pool on one global clock, each with its own balancer and its own
    # autoscaler (prefill scales on queued prompt tokens, decode on
    # outstanding decode work), with the KV-transfer time (bytes ~ prompt
    # tokens x layer depth) charged before the first decode step.  The new
    # TTFT metric (arrival -> first token, queueing + prefill + transfer
    # inclusive) is what this buys: prompt surges no longer steal decode
    # compute, so TTFT p99 drops while per-token p99 stays decode-bound.
    disagg = Experiment(
        model="t5-large",
        workload=WorkloadSpec("generative", "cnn-dailymail",
                              requests=250, rate=24.0,
                              arrival_process="diurnal",
                              overrides={"mean_prompt_tokens": 1024}),
        cluster=ClusterSpec(replicas=4, disaggregate=True,
                            prefill_replicas=2, decode_replicas=4,
                            balancer="least_work_left",
                            prefill_autoscaler="reactive",
                            decode_autoscaler="reactive"),
        ee=ExitPolicySpec(accuracy_constraint=0.01),
        seed=0)
    disagg_report = disagg.run(systems=["vanilla", "apparate"])
    print("\ndisaggregated serving (2 prefill + 4 decode, diurnal prompts):")
    print(disagg_report.format_table(
        metrics=["ttft_p99_ms", "ttft_mean_ms", "token_p99_ms", "tpt_p50_ms",
                 "sequence_accuracy"]))
    da = disagg_report.result("apparate").summary
    print(f"pools sized independently: prefill peak "
          f"{da['prefill_peak_replicas']:.0f} "
          f"({da['prefill_replica_seconds']:.1f} replica-seconds), "
          f"decode peak {da['peak_replicas']:.0f}; "
          f"KV transfer {da['transfer_ms_mean']:.2f}ms/seq")
    # The CLI mirrors it, including TTFT-deadline shedding (--ttft-slo):
    #   repro-apparate generate --disaggregate --prefill-replicas 2 \
    #       --decode-replicas 4 --prefill-autoscaler reactive \
    #       --decode-autoscaler reactive --ttft-slo 500

    # Everything is JSON-serializable for downstream tooling:
    # json.dumps(report.to_json()) / json.dumps(sweep.to_json()).


if __name__ == "__main__":
    main()
