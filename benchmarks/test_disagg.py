"""Prefill/decode disaggregation: independent pool autoscaling vs the
monolithic generative fleet (acceptance benchmark for the disaggregated
serving subsystem).

Not a paper figure — the paper's generative engine is decode-only.  This
benchmark puts Apparate on a *prompt-heavy diurnal* workload (CNN/DailyMail
summarization with ~1k-token articles, day/night arrival cycle) in two
deployments of the same initial footprint (6 replicas):

* **monolithic** — a 6-replica generative cluster whose decode slots also run
  each prompt's chunked prefill, stretched by compute contention with the
  decode streams in flight (``prefill_in_slot=True``); one reactive
  autoscaler sizes the whole fleet;
* **disaggregated** — 2 prefill + 4 decode replicas connected by a
  KV-transfer handoff queue, each pool with its own balancer and its own
  reactive autoscaler (prefill scales on queued prompt chunks, decode on
  outstanding decode work).

Expected shape: at the diurnal peak the monolithic fleet's prefills steal
decode compute, so TTFT p99 and the queueing-inclusive per-token p99 blow up;
the disaggregated platform absorbs the same prompt surge in its prefill pool
(which scales out on its own schedule while the decode pool does not),
beating the monolithic cluster on TTFT p99 at matched accuracy and no worse
per-token p99 — while still emitting exactly the workload's token multiset,
bit-for-bit the same identities as the single-replica engine.
"""

from collections import Counter

import pytest

from bench_common import pct_win, print_table, run_once
from repro.api import ClusterSpec, Experiment, ExitPolicySpec
from repro.generative.sequences import make_generative_workload

SEQUENCES = 1200          # ~60s at the mean rate: one full diurnal period, so
                          # the p99 tail reflects the whole cycle rather than a
                          # handful of sequences on a truncated rising edge
MEAN_RATE_QPS = 20.0      # diurnal cycle swings between 5 and 35 seq/s
ACCURACY_CONSTRAINT = 0.01
TOTAL_REPLICAS = 6        # same initial footprint in both deployments
EE = ExitPolicySpec(accuracy_constraint=ACCURACY_CONSTRAINT)


@pytest.fixture(scope="module")
def workload():
    """Prompt-heavy summarization under a compressed day/night cycle."""
    return make_generative_workload(
        "cnn-dailymail", num_sequences=SEQUENCES, rate_qps=MEAN_RATE_QPS,
        seed=3, arrival_process="diurnal",
        preset_overrides={"mean_prompt_tokens": 1024, "min_prompt_tokens": 256})


def monolithic_experiment(workload):
    return Experiment(
        model="t5-large", workload=workload, ee=EE, seed=0,
        # prefill_in_slot: monolithic replicas prefill in their own decode
        # slots — the interference disaggregation exists to remove.
        cluster=ClusterSpec(replicas=TOTAL_REPLICAS,
                            balancer="least_work_left",
                            autoscaler="reactive", min_replicas=2,
                            max_replicas=2 * TOTAL_REPLICAS,
                            prefill_in_slot=True))


def disaggregated_experiment(workload):
    return Experiment(
        model="t5-large", workload=workload, ee=EE, seed=0,
        cluster=ClusterSpec(replicas=TOTAL_REPLICAS, disaggregate=True,
                            balancer="least_work_left",
                            prefill_replicas=2, decode_replicas=4,
                            prefill_autoscaler="reactive",
                            decode_autoscaler="reactive",
                            prefill_min_replicas=1, prefill_max_replicas=6,
                            decode_min_replicas=2, decode_max_replicas=8))


def test_disaggregation_beats_monolith_on_ttft_under_diurnal_prompts(
        benchmark, workload):
    def run_both():
        mono = monolithic_experiment(workload).run(["apparate"])
        disagg = disaggregated_experiment(workload).run(["vanilla", "apparate"])
        return mono, disagg

    mono_report, disagg_report = run_once(benchmark, run_both)
    mono = mono_report.result("apparate").summary
    disagg = disagg_report.result("apparate").summary
    disagg_vanilla = disagg_report.result("vanilla").summary

    rows = [
        {"deployment": "monolithic 6r (apparate)",
         "ttft_p99_ms": mono["ttft_p99_ms"],
         "token_p99_ms": mono["token_p99_ms"],
         "tpt_p50_ms": mono["tpt_p50_ms"],
         "accuracy": mono["sequence_accuracy"],
         "replica_s": mono["replica_seconds"]},
        {"deployment": "disagg 2p+4d (apparate)",
         "ttft_p99_ms": disagg["ttft_p99_ms"],
         "token_p99_ms": disagg["token_p99_ms"],
         "tpt_p50_ms": disagg["tpt_p50_ms"],
         "accuracy": disagg["sequence_accuracy"],
         "replica_s": disagg["replica_seconds"]
         + disagg["prefill_replica_seconds"]},
        {"deployment": "disagg 2p+4d (vanilla)",
         "ttft_p99_ms": disagg_vanilla["ttft_p99_ms"],
         "token_p99_ms": disagg_vanilla["token_p99_ms"],
         "tpt_p50_ms": disagg_vanilla["tpt_p50_ms"],
         "accuracy": disagg_vanilla["sequence_accuracy"],
         "replica_s": disagg_vanilla["replica_seconds"]
         + disagg_vanilla["prefill_replica_seconds"]},
    ]
    print_table(
        f"Disaggregated vs monolithic — diurnal {MEAN_RATE_QPS:.0f} seq/s "
        f"mean, ~1k-token prompts", rows)
    print(f"TTFT p99 win: {pct_win(mono['ttft_p99_ms'], disagg['ttft_p99_ms']):.1f}%  "
          f"(prefill pool peak {disagg['prefill_peak_replicas']:.0f}, "
          f"decode pool peak {disagg['peak_replicas']:.0f})")

    # Headline: disaggregation wins TTFT p99 decisively (the margin in this
    # configuration is >2x; assert a conservative 30%).
    assert disagg["ttft_p99_ms"] < 0.7 * mono["ttft_p99_ms"]

    # ... at matched accuracy (both within 1.5x of the 1% constraint) ...
    assert disagg["sequence_accuracy"] >= 1.0 - 1.5 * ACCURACY_CONSTRAINT
    assert mono["sequence_accuracy"] >= 1.0 - 1.5 * ACCURACY_CONSTRAINT

    # ... and no worse queueing-inclusive per-token p99.
    assert disagg["token_p99_ms"] <= 1.05 * mono["token_p99_ms"]

    # The pools sized independently: the prompt surge grew the prefill pool
    # well beyond its initial 2 replicas while the decode pool stayed close
    # to its initial 4 — and below the monolith's peak, which must grow whole
    # prefill+decode replicas to absorb the same surge.
    assert disagg["prefill_peak_replicas"] > 2.0
    assert disagg["peak_replicas"] <= 5.0
    assert disagg["peak_replicas"] < mono["peak_replicas"]


def test_disaggregation_conserves_tokens_vs_single_engine(workload):
    """The prefill -> handoff -> decode pipeline emits exactly the token
    multiset the single-replica engine emits (same ids, same counts)."""
    disagg = disaggregated_experiment(workload).run(["apparate"]) \
        .result("apparate")
    single = Experiment(model="t5-large", workload=workload, ee=EE, seed=0) \
        .run(["apparate"]).result("apparate")

    assert disagg.summary["num_tokens"] == single.summary["num_tokens"]
    fleet_ids = Counter((t.sequence_id, t.token_index)
                        for replica in disagg.raw.metrics.replicas
                        for t in replica.tokens)
    single_ids = Counter((t.sequence_id, t.token_index)
                         for t in single.raw.metrics.aggregate().tokens)
    assert fleet_ids == single_ids
    assert disagg.summary["shed"] == 0.0     # no SLO configured, nothing shed
