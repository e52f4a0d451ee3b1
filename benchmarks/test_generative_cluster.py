"""Generative cluster serving: token-level early exits on the fleet control
plane (acceptance benchmark for the last ROADMAP capability gap).

Not a paper figure — the paper's generative evaluation (Figure 18) is single
replica.  This benchmark puts the same four systems (vanilla, Apparate, FREE,
the optimal oracle) on a 4-replica decode fleet behind the declarative
``Experiment`` facade, at an arrival rate chosen *between* the vanilla fleet's
capacity and the Apparate fleet's capacity.  Expected shape:

* every system runs end-to-end through ``ClusterSpec`` dispatch and conserves
  tokens exactly against the single-replica engine;
* the vanilla fleet saturates — sequences queue for decode slots and the
  queueing-inclusive per-token p99 explodes — while Apparate's exits free
  slots fast enough that its per-token p99 stays near the decode cadence, at
  matched (constraint-satisfying) accuracy;
* a reactive autoscaler converts the same overload into scale-out instead of
  queueing, again without losing a token.
"""

import pytest

from bench_common import pct_win, print_table, run_once
from repro.api import ClusterSpec, Experiment, ExitPolicySpec
from repro.generative.sequences import make_generative_workload

REPLICAS = 4
SEQUENCES = 250
# t5-large decodes ~60-token CNN/DailyMail summaries in ~1.1s on 8 slots, so
# 4 vanilla replicas serve ~29 seq/s; 32 seq/s saturates vanilla but not the
# exit-accelerated fleet.
RATE_QPS = 32.0


@pytest.fixture(scope="module")
def workload():
    return make_generative_workload("cnn-dailymail", num_sequences=SEQUENCES,
                                    rate_qps=RATE_QPS, seed=3,
                                    drift_amplitude=0.25, drift_mode="walk")


def test_generative_cluster_four_systems_end_to_end(benchmark, workload):
    experiment = Experiment(model="t5-large", workload=workload,
                            cluster=ClusterSpec(replicas=REPLICAS),
                            ee=ExitPolicySpec(accuracy_constraint=0.01), seed=0)

    report = run_once(benchmark, lambda: experiment.run(
        ["vanilla", "apparate", "free", "optimal"]))

    single = Experiment(model="t5-large", workload=workload,
                        ee=ExitPolicySpec(accuracy_constraint=0.01), seed=0) \
        .run(["apparate"]).result("apparate")
    vanilla = report.result("vanilla").summary
    apparate = report.result("apparate").summary

    rows = [{"system": name,
             "tpt_p50_ms": report.result(name).summary["tpt_p50_ms"],
             "token_p99_ms": report.result(name).summary["token_p99_ms"],
             "accuracy": report.result(name).summary["sequence_accuracy"],
             "exit_rate": report.result(name).summary["exit_rate"],
             "tokens": report.result(name).summary["num_tokens"]}
            for name in ("vanilla", "apparate", "free", "optimal")]
    print_table(f"Generative cluster — {REPLICAS} replicas @ {RATE_QPS} seq/s",
                rows)

    # Every system ran on the fleet and answered every token exactly once.
    total_tokens = float(workload.total_tokens())
    for name in ("vanilla", "apparate", "free", "optimal"):
        summary = report.result(name).summary
        assert summary["num_replicas"] == float(REPLICAS)
        assert summary["num_tokens"] == total_tokens

    # Token conservation vs the single-replica engine: the fleet emits the
    # same token multiset, just partitioned across replicas.
    assert apparate["num_tokens"] == single.summary["num_tokens"]
    fleet_ids = sorted(
        (t.sequence_id, t.token_index)
        for replica in report.result("apparate").raw.metrics.replicas
        for t in replica.tokens)
    single_ids = sorted((t.sequence_id, t.token_index)
                        for t in single.raw.metrics.aggregate().tokens)
    assert fleet_ids == single_ids

    # The headline: at matched accuracy, exits free decode slots fast enough
    # that Apparate's queueing-inclusive per-token p99 beats the saturated
    # vanilla fleet by a wide margin (the latency/goodput trade at scale).
    p99_win = pct_win(vanilla["token_p99_ms"], apparate["token_p99_ms"])
    assert apparate["sequence_accuracy"] >= 0.99 - 1e-9
    assert apparate["token_p99_ms"] < vanilla["token_p99_ms"]
    assert p99_win > 30.0
    # Decode-cadence median also wins (the single-replica Figure 18 shape
    # survives fleet dispatch).
    assert apparate["tpt_p50_ms"] < vanilla["tpt_p50_ms"]


def test_generative_autoscaler_converts_overload_into_scale_out(workload):
    """The same saturating trace on an elastic vanilla fleet: the reactive
    scaler grows the fleet past its initial size, tokens are conserved, and
    the p99 lands far below the fixed saturated fleet's."""
    fixed = Experiment(model="t5-large", workload=workload,
                       cluster=ClusterSpec(replicas=REPLICAS), seed=0) \
        .run(["vanilla"]).result("vanilla")
    elastic = Experiment(
        model="t5-large", workload=workload,
        cluster=ClusterSpec(replicas=REPLICAS, balancer="least_work_left",
                            autoscaler="reactive", min_replicas=REPLICAS,
                            max_replicas=2 * REPLICAS), seed=0) \
        .run(["vanilla"]).result("vanilla")
    assert elastic.summary["peak_replicas"] > REPLICAS
    assert elastic.summary["num_tokens"] == float(workload.total_tokens())
    assert elastic.summary["token_p99_ms"] < fixed.summary["token_p99_ms"]
    assert elastic.details["fleet_timeline"][0][1] == REPLICAS
