"""Command-line interface for the Apparate reproduction.

The CLI is a thin shell over the declarative :class:`repro.api.Experiment`
facade: each subcommand assembles an ``Experiment`` (model + workload spec +
optional cluster spec) and runs any set of registered systems through the
system registry (``repro.api.list_systems()``).

``repro-apparate models``
    List the registered model zoo (Table 5 latencies, SLOs, tasks).

``repro-apparate classify --model resnet50 --workload video:urban-day``
    Serve a classification workload and print the cross-system comparison.
    ``--systems`` picks the systems (default ``vanilla,apparate``; the
    baselines ``static_ee``, ``two_layer`` and ``optimal`` are also
    registered).  Every run is a fleet: ``--replicas N`` (default 1, the
    paper's single-model setup) replicas behind ``--balancer``, with
    ``--fleet-mode`` EE control; ``--autoscaler reactive --min-replicas 1
    --max-replicas 8`` makes the fleet elastic and ``--replica-profiles
    2,2,0.5,0.5`` heterogeneous.

``repro-apparate generate --model t5-large --dataset cnn-dailymail``
    Serve a generative workload; ``--systems`` may add ``free`` and
    ``optimal`` (``--with-baselines`` is a shorthand for both).  The
    token-level engines run on the same fleet control plane and take the
    same ``--replicas``/``--balancer``/``--autoscaler``/``--min-replicas``/
    ``--max-replicas``/``--replica-profiles`` flags as ``classify``, with
    balancers costing replicas by outstanding decode work;
    ``--disaggregate`` splits the fleet into prefill and decode pools.

``repro-apparate sweep --replicas 1,2,4 --balancer round_robin,jsq``
    Run a parameter grid over replica counts / balancers / fleet modes in one
    command and print one row per grid point and system.  Generative models
    sweep too (``--model t5-large --workload generative:squad``).

``classify`` and ``generate`` also take ``--trace`` (record request spans +
fleet gauges and print a per-phase latency breakdown), ``--trace-out
trace.json`` (export Chrome trace-event JSON for Perfetto), and
``--gauge-interval MS`` (fleet-gauge sampling period on the simulated clock).

Every subcommand accepts ``--json`` for machine-readable output
(``RunReport.to_json()`` / ``SweepReport.to_json()``).  Validation errors
raise :class:`ValueError` inside the API and are converted to ``SystemExit``
only here, at the process boundary.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence

from repro.api import (ClusterSpec, Experiment, ExitPolicySpec, RunReport,
                       WorkloadSpec, list_systems)
from repro.models.zoo import Task, get_model, list_models
from repro.serving.autoscaler import AUTOSCALER_NAMES
from repro.serving.cluster import balancer_names
from repro.tenancy import TENANT_POLICIES

__all__ = ["build_parser", "main"]


def _split_csv(text: str) -> List[str]:
    return [item.strip() for item in str(text).split(",") if item.strip()]


def _balancer_arg(text: str) -> str:
    """Normalize a CLI balancer spelling (``prefix-affinity`` ==
    ``prefix_affinity``) before argparse checks it against ``choices``."""
    return str(text).strip().lower().replace("-", "_")


def _parse_int_list(text: str, option: str) -> List[int]:
    try:
        values = [int(item) for item in _split_csv(text)]
    except ValueError as exc:
        raise ValueError(f"{option} expects a comma-separated list of integers, "
                         f"got {text!r}") from exc
    if not values:
        raise ValueError(f"{option} expects at least one value, got {text!r}")
    return values


def _parse_float_list(text: str, option: str) -> List[float]:
    try:
        values = [float(item) for item in _split_csv(text)]
    except ValueError as exc:
        raise ValueError(f"{option} expects a comma-separated list of numbers, "
                         f"got {text!r}") from exc
    if not values:
        raise ValueError(f"{option} expects at least one value, got {text!r}")
    return values


def _add_trace_args(parser) -> None:
    """Observability flags shared by the classify and generate commands."""
    parser.add_argument("--trace", action="store_true",
                        help="record request spans and fleet gauges; prints "
                             "a per-phase latency breakdown after the run")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="write the recorded trace as Chrome trace-event "
                             "JSON (load in Perfetto / chrome://tracing); "
                             "implies --trace.  With multiple systems, one "
                             "file per system (suffixed with the system name)")
    parser.add_argument("--gauge-interval", type=float, default=None,
                        metavar="MS",
                        help="fleet-gauge sampling period in simulated ms "
                             "(default 50; requires --trace/--trace-out)")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-apparate",
        description="Apparate (SOSP 2024) reproduction: early exits for ML serving.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list the registered model zoo")

    classify = sub.add_parser("classify", help="serve a classification workload")
    classify.add_argument("--model", default="resnet50",
                          help="registered model name (see the 'models' command)")
    classify.add_argument("--workload", default="video:urban-day",
                          help="'video:<scene>' or 'nlp:<dataset>'")
    classify.add_argument("--systems", default="vanilla,apparate",
                          help="comma-separated registered systems to compare "
                               f"(classification systems: "
                               f"{','.join(list_systems('classification'))})")
    classify.add_argument("--requests", type=int, default=4000,
                          help="number of requests to serve")
    classify.add_argument("--rate", type=float, default=None,
                          help="arrival rate in qps (video default: 30 fps)")
    classify.add_argument("--platform", default="clockwork",
                          choices=["clockwork", "tfserve"])
    classify.add_argument("--accuracy-constraint", type=float, default=0.01)
    classify.add_argument("--ramp-budget", type=float, default=0.02)
    classify.add_argument("--seed", type=int, default=0)
    classify.add_argument("--replicas", type=int, default=1,
                          help="number of model replicas (default: 1)")
    classify.add_argument("--balancer", default="round_robin", type=_balancer_arg,
                          choices=list(balancer_names("classification")),
                          help="load-balancing policy (default: round_robin)")
    classify.add_argument("--fleet-mode", default="independent",
                          choices=["independent", "shared"],
                          help="EE control topology: one controller per replica "
                               "(independent, the default) or one shared fleet "
                               "controller with periodic sync")
    classify.add_argument("--autoscaler", default="none",
                          choices=list(AUTOSCALER_NAMES),
                          help="fleet autoscaling policy (default: none, a "
                               "fixed fleet)")
    classify.add_argument("--min-replicas", type=int, default=None,
                          help="lower fleet bound for the autoscaler "
                               "(default: 1 when a scaler is enabled)")
    classify.add_argument("--max-replicas", type=int, default=None,
                          help="upper fleet bound for the autoscaler "
                               "(default: 2x --replicas when a scaler is enabled)")
    classify.add_argument("--replica-profiles", default=None,
                          help="comma-separated per-replica speed[:cost] "
                               "multipliers for a heterogeneous fleet, e.g. "
                               "'2,2,0.5,0.5' (must match --replicas)")
    classify.add_argument("--tenants", default=None,
                          help="multi-tenant mix as 'name:key=value,...;...' "
                               "(keys: weight/share/priority/slo/ttft/exits), "
                               "e.g. 'chat:weight=4;batch:priority=batch'")
    classify.add_argument("--tenant-policy", default="weighted_fair",
                          choices=list(TENANT_POLICIES),
                          help="dispatch discipline across tenants "
                               "(default: weighted_fair)")
    classify.add_argument("--faults", default=None,
                          help="replica failure injection: "
                               "'crash_ms:down_ms[:pool];...' or "
                               "'mtbf=..,mttr=..,horizon=..[,seed=..][,pool=..]' "
                               "for a seeded random schedule")
    _add_trace_args(classify)
    classify.add_argument("--json", action="store_true",
                          help="print the RunReport as JSON instead of a table")

    generate = sub.add_parser("generate", help="serve a generative workload")
    generate.add_argument("--model", default="t5-large")
    generate.add_argument("--dataset", default="cnn-dailymail",
                          choices=["cnn-dailymail", "squad"])
    generate.add_argument("--systems", default="vanilla,apparate",
                          help="comma-separated registered systems to compare "
                               f"(generative systems: "
                               f"{','.join(list_systems('generative'))})")
    generate.add_argument("--sequences", type=int, default=150)
    generate.add_argument("--rate", type=float, default=2.0)
    generate.add_argument("--accuracy-constraint", type=float, default=0.01)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--with-baselines", action="store_true",
                          help="also run the FREE baseline and the optimal oracle")
    generate.add_argument("--replicas", type=int, default=1,
                          help="number of decode replicas (default: 1)")
    generate.add_argument("--balancer", default="round_robin", type=_balancer_arg,
                          choices=list(balancer_names("generative")),
                          help="load-balancing policy "
                               "(default: round_robin; work-aware policies "
                               "cost replicas by outstanding decode tokens; "
                               "kv_aware_least_work / prefix_affinity also "
                               "read each replica's KV-cache state)")
    generate.add_argument("--fleet-mode", default="independent",
                          choices=["independent", "shared"],
                          help="token-EE control topology: one policy per "
                               "replica (independent, the default) or one "
                               "fleet-wide policy fed by every replica")
    generate.add_argument("--autoscaler", default="none",
                          choices=list(AUTOSCALER_NAMES),
                          help="fleet autoscaling policy (default: none, a "
                               "fixed fleet)")
    generate.add_argument("--min-replicas", type=int, default=None,
                          help="lower fleet bound for the autoscaler "
                               "(default: 1 when a scaler is enabled; with "
                               "--disaggregate this bounds the decode pool)")
    generate.add_argument("--max-replicas", type=int, default=None,
                          help="upper fleet bound for the autoscaler "
                               "(default: 2x --replicas when a scaler is "
                               "enabled; with --disaggregate this bounds "
                               "the decode pool)")
    generate.add_argument("--replica-profiles", default=None,
                          help="comma-separated per-replica speed[:cost] "
                               "multipliers for a heterogeneous decode fleet "
                               "(must match --replicas; with --disaggregate "
                               "these profile the decode pool and must match "
                               "--decode-replicas)")
    generate.add_argument("--kv-capacity", type=float, default=None,
                          help="per-replica KV-cache budget in bytes; when the "
                               "working set overflows it, LRU sequences are "
                               "evicted and pay a recompute penalty (default: "
                               "unbounded, the pre-existing behavior)")
    generate.add_argument("--prefix-groups", type=int, default=None,
                          help="number of shared-prefix groups in the workload "
                               "(0, the default, disables prefix structure)")
    generate.add_argument("--prefix-share", type=float, default=None,
                          help="fraction of sequences that belong to a shared-"
                               "prefix group (default: 0.8)")
    generate.add_argument("--prefix-tokens", type=int, default=None,
                          help="length in tokens of each group's shared prefix "
                               "(default: 256)")
    generate.add_argument("--prefill-in-slot", action="store_true",
                          help="monolithic fleets only: charge each prompt's "
                               "chunked prefill inside the claiming decode "
                               "slot (stretched by busy-slot contention) — "
                               "the honest comparator for --disaggregate")
    generate.add_argument("--disaggregate", action="store_true",
                          help="split the fleet into a prefill pool and a "
                               "decode pool with a KV-transfer handoff queue "
                               "(each pool balanced and autoscaled "
                               "independently)")
    generate.add_argument("--prefill-replicas", type=int, default=None,
                          help="initial prefill pool size (disaggregated "
                               "serving; default: --replicas)")
    generate.add_argument("--decode-replicas", type=int, default=None,
                          help="initial decode pool size (disaggregated "
                               "serving; default: --replicas)")
    generate.add_argument("--prefill-autoscaler", default=None,
                          choices=list(AUTOSCALER_NAMES),
                          help="prefill pool autoscaling policy, scaling on "
                               "queued prompt tokens (default: --autoscaler)")
    generate.add_argument("--decode-autoscaler", default=None,
                          choices=list(AUTOSCALER_NAMES),
                          help="decode pool autoscaling policy, scaling on "
                               "outstanding decode work (default: "
                               "--autoscaler)")
    generate.add_argument("--ttft-slo", type=float, default=None,
                          help="time-to-first-token SLO in ms; sequences "
                               "whose wait already blew it are shed "
                               "(counted in the 'shed' metric)")
    generate.add_argument("--tenants", default=None,
                          help="multi-tenant mix as 'name:key=value,...;...' "
                               "(keys: weight/share/priority/slo/ttft/exits), "
                               "e.g. 'chat:weight=4;batch:priority=batch'")
    generate.add_argument("--tenant-policy", default="weighted_fair",
                          choices=list(TENANT_POLICIES),
                          help="dispatch discipline across tenants "
                               "(default: weighted_fair)")
    generate.add_argument("--faults", default=None,
                          help="replica failure injection: "
                               "'crash_ms:down_ms[:pool];...' or "
                               "'mtbf=..,mttr=..,horizon=..[,seed=..][,pool=..]' "
                               "for a seeded random schedule")
    _add_trace_args(generate)
    generate.add_argument("--json", action="store_true",
                          help="print the RunReport as JSON instead of a table")

    sweep = sub.add_parser(
        "sweep", help="run a parameter grid (replicas x balancer x fleet mode)")
    sweep.add_argument("--model", default="resnet50")
    sweep.add_argument("--workload", default=None,
                       help="'video:<scene>', 'nlp:<dataset>' or "
                            "'generative:<dataset>' (default: video:urban-day, "
                            "or generative:cnn-dailymail for generative models)")
    sweep.add_argument("--systems", default="vanilla,apparate",
                       help="comma-separated registered systems to run at "
                            "every grid point")
    sweep.add_argument("--requests", type=int, default=2000)
    sweep.add_argument("--rate", type=float, default=None)
    sweep.add_argument("--platform", default="clockwork",
                       choices=["clockwork", "tfserve"])
    sweep.add_argument("--replicas", default="1,2,4",
                       help="comma-separated replica counts (e.g. 1,2,4)")
    sweep.add_argument("--balancer", default=None,
                       help="comma-separated balancer names to sweep")
    sweep.add_argument("--fleet-mode", default=None,
                       help="comma-separated fleet modes to sweep "
                            "(independent,shared)")
    sweep.add_argument("--autoscaler", default=None,
                       help="comma-separated autoscaling policies to sweep "
                            f"({','.join(AUTOSCALER_NAMES)})")
    sweep.add_argument("--min-replicas", type=int, default=None,
                       help="lower fleet bound applied at every grid point "
                            "(bounds the decode pool in disaggregated grids)")
    sweep.add_argument("--max-replicas", type=int, default=None,
                       help="upper fleet bound applied at every grid point "
                            "(bounds the decode pool in disaggregated grids)")
    sweep.add_argument("--replica-profiles", default=None,
                       help="per-replica speed[:cost] list applied at every "
                            "grid point (must match the replica counts swept; "
                            "profiles the decode pool in disaggregated grids)")
    sweep.add_argument("--disaggregate", action="store_true",
                       help="run every grid point on disaggregated "
                            "prefill/decode pools (generative models only)")
    sweep.add_argument("--prefill-replicas", default=None,
                       help="comma-separated prefill pool sizes to sweep "
                            "(implies --disaggregate)")
    sweep.add_argument("--decode-replicas", default=None,
                       help="comma-separated decode pool sizes to sweep "
                            "(implies --disaggregate)")
    sweep.add_argument("--kv-capacity", default=None,
                       help="comma-separated per-replica KV-cache budgets in "
                            "bytes to sweep (generative models only)")
    sweep.add_argument("--prefix-groups", default=None,
                       help="comma-separated shared-prefix group counts to "
                            "sweep (generative workloads only; 0 = no "
                            "prefix structure)")
    sweep.add_argument("--prefix-share", type=float, default=None,
                       help="fraction of sequences in a shared-prefix group, "
                            "applied at every grid point (default: 0.8)")
    sweep.add_argument("--prefix-tokens", type=int, default=None,
                       help="shared-prefix length in tokens, applied at "
                            "every grid point (default: 256)")
    sweep.add_argument("--tenants", default=None,
                       help="tenant mix(es); separate grid values with '|' "
                            "(an empty segment means no tenants), e.g. "
                            "'chat:weight=4;batch:priority=batch|'")
    sweep.add_argument("--tenant-policy", default=None,
                       choices=list(TENANT_POLICIES),
                       help="tenant dispatch discipline applied at every "
                            "grid point (default: weighted_fair)")
    sweep.add_argument("--faults", default=None,
                       help="fault schedule(s); separate grid values with "
                            "'|' (an empty segment means fault-free), e.g. "
                            "'2000:1000|'")
    sweep.add_argument("--accuracy-constraint", type=float, default=0.01)
    sweep.add_argument("--ramp-budget", type=float, default=0.02)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--workers", type=int, default=None,
                       help="run grid points on N worker processes "
                            "(default: serial in this process); results are "
                            "bit-identical to serial")
    sweep.add_argument("--executor", choices=("serial", "process"),
                       default=None,
                       help="sweep backend (default: process when "
                            "--workers > 1, else serial)")
    sweep.add_argument("--json", action="store_true",
                       help="print the SweepReport as JSON instead of a table")
    return parser


def _cmd_models(_args: argparse.Namespace) -> int:
    print(f"{'name':<18s} {'task':<20s} {'params (M)':>11s} {'bs=1 (ms)':>10s} {'SLO (ms)':>9s}")
    for spec in list_models():
        slo = f"{spec.default_slo_ms:.1f}" if spec.default_slo_ms else "-"
        print(f"{spec.name:<18s} {spec.task.value:<20s} {spec.params_millions:11.1f} "
              f"{spec.bs1_latency_ms:10.1f} {slo:>9s}")
    return 0


def _print_win_line(report: RunReport) -> None:
    """Print the headline vanilla-vs-Apparate win when both systems ran."""
    systems = report.systems()
    if "vanilla" not in systems or "apparate" not in systems:
        return
    v, a = report.result("vanilla").summary, report.result("apparate").summary
    if report.kind == "generative":
        win = 100.0 * (v["tpt_p50_ms"] - a["tpt_p50_ms"]) / max(v["tpt_p50_ms"], 1e-9)
        details = report.result("apparate").details
        print(f"median TPT win: {win:.1f}%  (ramp depth {details['ramp_depth']:.2f}, "
              f"threshold {details['threshold']:.2f})")
        p99_win = 100.0 * (v["token_p99_ms"] - a["token_p99_ms"]) \
            / max(v["token_p99_ms"], 1e-9)
        print(f"per-token p99 win: {p99_win:.1f}%  "
              f"({a['deferred_flushes']:.0f} deferred flushes)")
        if report.params["cluster"]["disaggregate"]:
            ttft_win = 100.0 * (v["ttft_p99_ms"] - a["ttft_p99_ms"]) \
                / max(v["ttft_p99_ms"], 1e-9)
            print(f"TTFT p99 win: {ttft_win:.1f}%")
    else:
        win = 100.0 * (v["p50_ms"] - a["p50_ms"]) / max(v["p50_ms"], 1e-9)
        print(f"median latency win: {win:.1f}%")


def _print_dispatch_lines(report: RunReport) -> None:
    """Per-replica dispatch counts for every system that reports them."""
    counts = {r.system: r.details["dispatch_counts"] for r in report.results
              if r.details.get("dispatch_counts")}
    if not counts:
        return
    replicas = max(len(c) for c in counts.values())
    for i in range(replicas):
        cells = " ".join(f"{system}={c[i]}" for system, c in counts.items()
                         if i < len(c))
        print(f"replica {i}: {cells} requests dispatched")


def _print_fleet_size_lines(report: RunReport) -> None:
    """Fleet-size trajectory + replica-seconds for systems that scaled."""
    for result in report.results:
        timeline = result.details.get("fleet_timeline") or []
        sizes = [int(n) for _, n in timeline]
        if len(set(sizes)) <= 1:
            continue
        trajectory = [sizes[0]] + [n for prev, n in zip(sizes, sizes[1:])
                                   if n != prev]
        print(f"{result.system} fleet size: "
              + " -> ".join(str(n) for n in trajectory)
              + f" (peak {max(sizes)}), "
              f"{result.details.get('replica_seconds', 0.0):.1f} replica-seconds, "
              f"{result.details.get('rerouted', 0)} rerouted")


def _print_pool_lines(report: RunReport) -> None:
    """Prefill-pool trajectory + TTFT pipeline stages for disagg systems."""
    for result in report.results:
        timeline = result.details.get("prefill_fleet_timeline")
        if timeline is None:
            continue
        sizes = [int(n) for _, n in timeline] or [0]
        trajectory = [sizes[0]] + [n for prev, n in zip(sizes, sizes[1:])
                                   if n != prev]
        summary = result.summary
        print(f"{result.system} prefill pool: "
              + " -> ".join(str(n) for n in trajectory)
              + f" (peak {max(sizes)}), "
              f"{result.details.get('prefill_replica_seconds', 0.0):.1f} "
              f"replica-seconds; "
              f"prefill delay {summary.get('prefill_delay_mean_ms', 0.0):.1f}ms, "
              f"KV transfer {summary.get('transfer_ms_mean', 0.0):.2f}ms, "
              f"TTFT p99 {summary.get('ttft_p99_ms', 0.0):.1f}ms, "
              f"{summary.get('shed', 0.0):.0f} shed")


def _print_tenant_lines(report: RunReport) -> None:
    """Fault-injection churn and the per-tenant rollup table, when present."""
    for result in report.results:
        crashes = result.details.get("crashes")
        if crashes is not None:
            print(f"{result.system} faults: {crashes} crashes, "
                  f"{result.details.get('recoveries', 0)} recoveries, "
                  f"{result.details.get('requeued', 0)} requeued")
        rollups = result.details.get("tenant_rollups")
        if not rollups:
            continue
        print(f"{result.system} tenants:")
        if "sequences" in next(iter(rollups.values())):
            print(f"  {'tenant':<14s} {'seqs':>6s} {'served':>6s} "
                  f"{'tokens':>8s} {'shed%':>6s} {'ttft p99':>10s} "
                  f"{'token p99':>10s}")
            for name, stats in rollups.items():
                print(f"  {name:<14s} {stats['sequences']:6.0f} "
                      f"{stats['served']:6.0f} {stats['tokens']:8.0f} "
                      f"{100.0 * stats['shed_rate']:5.1f}% "
                      f"{stats['ttft_p99_ms']:8.1f}ms "
                      f"{stats['token_p99_ms']:8.1f}ms")
        else:
            print(f"  {'tenant':<14s} {'reqs':>6s} {'served':>6s} "
                  f"{'drop%':>6s} {'p99':>9s} {'slo-att':>8s} "
                  f"{'goodput':>9s}")
            for name, stats in rollups.items():
                print(f"  {name:<14s} {stats['requests']:6.0f} "
                      f"{stats['served']:6.0f} "
                      f"{100.0 * stats['drop_rate']:5.1f}% "
                      f"{stats['p99_ms']:7.1f}ms "
                      f"{100.0 * stats['slo_attainment']:7.1f}% "
                      f"{stats['goodput_qps']:7.1f}/s")


def _print_kv_lines(report: RunReport) -> None:
    """Per-system KV-cache rollup for runs with a capacity budget."""
    for result in report.results:
        kv = result.details.get("kv_cache")
        if not kv:
            continue
        print(f"{result.system} kv-cache: {100.0 * kv['hit_rate']:.1f}% hit "
              f"({kv['hit_tokens']} of "
              f"{kv['hit_tokens'] + kv['miss_tokens']} tokens), "
              f"{kv['evictions']} evictions "
              f"({kv['evicted_tokens']} tokens), "
              f"{kv['recompute_tokens']} recomputed")


def _print_fleet_stats(report: RunReport) -> None:
    """EE-control adaptation stats for the systems that carry them."""
    for result in report.results:
        summary = result.summary
        if "num_controllers" not in summary:
            continue
        mode = result.details.get("fleet_mode", "independent")
        print(f"fleet controllers: {summary['num_controllers']:.0f} ({mode}), "
              f"{summary['threshold_tunings']:.0f} threshold tunings, "
              f"{summary['ramp_adjustments']:.0f} ramp adjustments")


def _trace_spec(args: argparse.Namespace):
    """The ``Experiment.trace`` knob for the parsed CLI flags (or ``None``)."""
    if not (args.trace or args.trace_out):
        if args.gauge_interval is not None:
            raise ValueError("--gauge-interval requires --trace or --trace-out")
        return None
    from repro.obs import TraceSpec
    if args.gauge_interval is not None:
        return TraceSpec(gauge_interval_ms=float(args.gauge_interval))
    return TraceSpec()


def _print_obs_lines(report: RunReport) -> None:
    """Per-system phase-breakdown tables for traced runs."""
    from repro.obs import format_phase_table
    for result in report.results:
        obs = result.details.get("obs")
        if not obs or not obs.get("phases"):
            continue
        spans = obs["spans"]
        outcomes = " ".join(f"{k}={v}" for k, v in spans["outcomes"].items())
        print(f"{result.system} spans: {spans['total']} "
              f"({outcomes or 'none closed'})")
        print("\n".join("  " + line for line in
                        format_phase_table(obs["phases"]).splitlines()))


def _write_traces(report: RunReport, path: str) -> None:
    """One Chrome trace file per traced system under ``--trace-out``."""
    from repro.obs import write_chrome_trace
    traced = [r for r in report.results if r.trace is not None]
    root, ext = os.path.splitext(path)
    for result in traced:
        out = path if len(traced) == 1 else f"{root}.{result.system}{ext}"
        write_chrome_trace(result.trace, out)
        print(f"wrote {result.system} trace to {out}", file=sys.stderr)


def _fleet_header(cluster: ClusterSpec) -> str:
    """The run header's fleet part: pools or replicas, then tenants/faults."""
    if cluster.disaggregate:
        prefill_band = cluster.resolved_prefill_band()
        decode_band = cluster.resolved_decode_band()
        header = (f" disaggregated prefill={cluster.resolved_prefill_replicas()}"
                  f"[{prefill_band[0]}..{prefill_band[1]},"
                  f"{cluster.prefill_autoscaler_name()}]"
                  f" decode={cluster.resolved_decode_replicas()}"
                  f"[{decode_band[0]}..{decode_band[1]},"
                  f"{cluster.decode_autoscaler_name()}]")
    else:
        header = (f" replicas={cluster.replicas} "
                  f"balancer={cluster.balancer_name()} "
                  f"fleet-mode={cluster.fleet_mode}")
        if cluster.autoscaler_name() != "none":
            header += (f" autoscaler={cluster.autoscaler_name()}"
                       f"[{cluster.resolved_min_replicas()}"
                       f"..{cluster.resolved_max_replicas()}]")
    if cluster.kv_capacity is not None:
        header += f" kv-capacity={cluster.kv_capacity:.4g}B"
    if cluster.tenants is not None:
        header += f" tenants={cluster.tenants.describe()}"
    if cluster.faults is not None:
        header += f" faults={cluster.faults.describe()}"
    return header


def _classification_experiment(args: argparse.Namespace) -> Experiment:
    spec = get_model(args.model)
    if spec.task is Task.GENERATIVE:
        raise ValueError(f"{spec.name} is generative; use the 'generate' command")
    workload = WorkloadSpec.parse(args.workload, requests=args.requests,
                                  rate=args.rate)
    ee = ExitPolicySpec(accuracy_constraint=args.accuracy_constraint,
                        ramp_budget=args.ramp_budget)
    cluster = ClusterSpec(replicas=int(args.replicas), balancer=args.balancer,
                          fleet_mode=args.fleet_mode, autoscaler=args.autoscaler,
                          min_replicas=args.min_replicas,
                          max_replicas=args.max_replicas,
                          profiles=args.replica_profiles, tenants=args.tenants,
                          tenant_policy=args.tenant_policy, faults=args.faults)
    return Experiment(model=spec, workload=workload, cluster=cluster, ee=ee,
                      platform=args.platform, seed=args.seed,
                      trace=_trace_spec(args))


def _cmd_classify(args: argparse.Namespace) -> int:
    experiment = _classification_experiment(args)
    report = experiment.run(_split_csv(args.systems))
    if args.trace_out:
        _write_traces(report, args.trace_out)
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
        return 0
    print(f"model={experiment.spec.name} workload={args.workload} "
          f"platform={args.platform} requests={args.requests}"
          + _fleet_header(experiment.cluster))
    print(report.format_table())
    _print_dispatch_lines(report)
    _print_fleet_size_lines(report)
    _print_fleet_stats(report)
    _print_tenant_lines(report)
    _print_obs_lines(report)
    _print_win_line(report)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    spec = get_model(args.model)
    if not spec.is_generative:
        raise ValueError(f"{spec.name} is not generative; use the 'classify' command")
    systems = _split_csv(args.systems)
    if args.with_baselines:
        systems += [name for name in ("free", "optimal") if name not in systems]
    workload = WorkloadSpec(kind="generative", source=args.dataset,
                            requests=args.sequences, rate=args.rate,
                            prefix_groups=args.prefix_groups or 0,
                            prefix_share=args.prefix_share
                            if args.prefix_share is not None else 0.8,
                            prefix_tokens=args.prefix_tokens
                            if args.prefix_tokens is not None else 256)
    if args.ttft_slo is not None and args.ttft_slo <= 0:
        # An explicit flag value gets explicit validation (the zero-means-off
        # rule exists only to absorb model default_slo_ms=0.0 internally).
        raise ValueError(f"--ttft-slo must be positive, got {args.ttft_slo}")
    disaggregate = args.disaggregate or any(
        value is not None for value in
        (args.prefill_replicas, args.decode_replicas,
         args.prefill_autoscaler, args.decode_autoscaler))
    if disaggregate and args.prefill_in_slot:
        raise ValueError("--prefill-in-slot is the monolithic deployment; "
                         "it cannot be combined with --disaggregate")
    fleet = dict(replicas=int(args.replicas), balancer=args.balancer,
                 fleet_mode=args.fleet_mode, autoscaler=args.autoscaler,
                 kv_capacity=args.kv_capacity, tenants=args.tenants,
                 tenant_policy=args.tenant_policy, faults=args.faults)
    if disaggregate:
        # Fleet-wide --min/--max-replicas and --replica-profiles apply to the
        # decode pool (the pool --replicas sizes by default); the prefill
        # pool is bounded by its own autoscaler band.
        cluster = ClusterSpec(disaggregate=True,
                              prefill_replicas=args.prefill_replicas,
                              decode_replicas=args.decode_replicas,
                              prefill_autoscaler=args.prefill_autoscaler,
                              decode_autoscaler=args.decode_autoscaler,
                              decode_min_replicas=args.min_replicas,
                              decode_max_replicas=args.max_replicas,
                              decode_profiles=args.replica_profiles, **fleet)
    else:
        cluster = ClusterSpec(min_replicas=args.min_replicas,
                              max_replicas=args.max_replicas,
                              profiles=args.replica_profiles,
                              prefill_in_slot=args.prefill_in_slot, **fleet)
    experiment = Experiment(
        model=spec, workload=workload, cluster=cluster,
        ee=ExitPolicySpec(accuracy_constraint=args.accuracy_constraint),
        slo_ms=args.ttft_slo, seed=args.seed, trace=_trace_spec(args))
    report = experiment.run(systems)
    if args.trace_out:
        _write_traces(report, args.trace_out)
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
        return 0
    header = f"model={spec.name} dataset={args.dataset} sequences={args.sequences}"
    if workload.prefix_groups:
        header += (f" prefix={workload.prefix_groups}x"
                   f"{workload.prefix_tokens}tok"
                   f"@{workload.prefix_share:.0%}")
    print(header + _fleet_header(cluster))
    print(report.format_table())
    _print_dispatch_lines(report)
    _print_fleet_size_lines(report)
    _print_pool_lines(report)
    _print_kv_lines(report)
    _print_tenant_lines(report)
    _print_obs_lines(report)
    _print_win_line(report)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = get_model(args.model)
    default_workload = "generative:cnn-dailymail" if spec.is_generative \
        else "video:urban-day"
    workload = WorkloadSpec.parse(args.workload or default_workload,
                                  requests=args.requests, rate=args.rate)
    experiment = Experiment(
        model=spec, workload=workload,
        ee=ExitPolicySpec(accuracy_constraint=args.accuracy_constraint,
                          ramp_budget=args.ramp_budget),
        platform=args.platform, seed=args.seed)
    disaggregated = bool(args.disaggregate or args.prefill_replicas
                         or args.decode_replicas)
    grid = {"replicas": _parse_int_list(args.replicas, "--replicas")}
    if args.balancer:
        grid["balancer"] = [_balancer_arg(b) for b in _split_csv(args.balancer)]
    if args.fleet_mode:
        grid["fleet_mode"] = _split_csv(args.fleet_mode)
    if args.autoscaler:
        grid["autoscaler"] = _split_csv(args.autoscaler)
    # Fleet-wide bounds/profiles target the decode pool in disaggregated
    # grids (matching the 'generate' command's remapping) — the ClusterSpec
    # fleet-wide keys are rejected as dead configuration there.
    if args.min_replicas is not None:
        grid["decode_min_replicas" if disaggregated
             else "min_replicas"] = args.min_replicas
    if args.max_replicas is not None:
        grid["decode_max_replicas" if disaggregated
             else "max_replicas"] = args.max_replicas
    if args.replica_profiles:
        grid["decode_profiles" if disaggregated
             else "profiles"] = args.replica_profiles
    if disaggregated:
        grid["disaggregate"] = True
    if args.prefill_replicas:
        grid["prefill_replicas"] = _parse_int_list(args.prefill_replicas,
                                                   "--prefill-replicas")
    if args.decode_replicas:
        grid["decode_replicas"] = _parse_int_list(args.decode_replicas,
                                                  "--decode-replicas")
    if args.kv_capacity:
        grid["kv_capacity"] = _parse_float_list(args.kv_capacity,
                                                "--kv-capacity")
    if args.prefix_groups:
        grid["prefix_groups"] = _parse_int_list(args.prefix_groups,
                                                "--prefix-groups")
    if args.prefix_share is not None:
        grid["prefix_share"] = args.prefix_share
    if args.prefix_tokens is not None:
        grid["prefix_tokens"] = args.prefix_tokens
    # '|' separates grid values for tenants/faults (the specs themselves use
    # ',' and ';'); an empty segment sweeps the off state.
    if args.tenants is not None:
        mixes = [m.strip() or None for m in args.tenants.split("|")]
        grid["tenants"] = mixes if len(mixes) > 1 else mixes[0]
    if args.tenant_policy is not None:
        grid["tenant_policy"] = args.tenant_policy
    if args.faults is not None:
        schedules = [f.strip() or None for f in args.faults.split("|")]
        grid["faults"] = schedules if len(schedules) > 1 else schedules[0]
    # Live per-point progress on stderr (table mode only: --json output must
    # stay a single parseable document, and stderr keeps pipelines clean).
    progress = None if args.json else _sweep_progress_printer()
    sweep = experiment.sweep(systems=_split_csv(args.systems),
                             workers=args.workers, executor=args.executor,
                             progress=progress, **grid)
    if args.json:
        print(json.dumps(sweep.to_json(), indent=2))
        return 0
    axis_sizes = [len(v) if isinstance(v, (list, tuple)) else 1
                  for v in grid.values()]
    print(f"model={spec.name} workload={workload.kind}:{workload.resolved_source()} "
          f"platform={args.platform} requests={args.requests} "
          f"grid={'x'.join(str(n) for n in axis_sizes)}")
    print(sweep.format_table())
    failed = sweep.errors()
    for point in failed:
        print(f"FAILED {point.params}: {point.error['type']}: "
              f"{point.error['message']}", file=sys.stderr)
    return 1 if failed else 0


def _sweep_progress_printer():
    """A progress callback printing one line per finished grid point."""
    def emit(outcome, done: int, total: int) -> None:
        params = " ".join(f"{k}={v}" for k, v in outcome.params.items())
        status = "ok" if outcome.error is None \
            else f"ERROR {outcome.error['type']}: {outcome.error['message']}"
        cache = ""
        if outcome.cache is not None:
            # Whether this point reused a sibling's materialized workload
            # trace ("hit"), paid to generate its own ("miss"), or arrived
            # with the parent's pre-materialized workload attached ("warm").
            hits, misses = outcome.cache["hits"], outcome.cache["misses"]
            tag = "miss" if misses else ("hit" if hits else "warm")
            cache = f" trace-cache {tag} ({hits}h/{misses}m)"
        print(f"[{done}/{total}] {params} {status} "
              f"{outcome.wall_s:.2f}s{cache}",
              file=sys.stderr, flush=True)
    return emit


_COMMANDS = {
    "models": _cmd_models,
    "classify": _cmd_classify,
    "generate": _cmd_generate,
    "sweep": _cmd_sweep,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``repro-apparate`` console script.

    The API layer signals every invalid configuration with ``ValueError``;
    this is the single place it becomes a ``SystemExit`` for the shell.
    """
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


if __name__ == "__main__":   # pragma: no cover
    sys.exit(main())
