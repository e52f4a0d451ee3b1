"""The three fleet workloads of the end-to-end ``Experiment.run`` benchmark.

A workload is a fixed simulator configuration fed ``traces`` independent
traces of ``size`` requests or sequences each.  The benchmark's ``--seed``
picks the traces (:meth:`Workload.trace_seeds`): it drives arrivals,
difficulties, prompt/output lengths and prefix groups.  The systems under
test (model stacks, controllers, balancers, the fault schedule) keep fixed
settings, so a seed changes only the requests the simulator is fed.  Several
short traces instead of one long one keep the per-seed figures steady: the
Apparate controllers' host cost per simulated unit depends on each trace's
drift, and averaging over independent traces narrows that spread.

Simulated traffic is open loop: every arrival time is fixed by the trace, so
a slow system builds queues (and drops or sheds) instead of receiving less
load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.api import ClusterSpec, Experiment, WorkloadSpec
from repro.generative.decoding import kv_bytes_per_token
from repro.models.zoo import get_model

__all__ = ["Workload", "WORKLOADS"]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: how to build its experiments from a seed.

    ``unit`` is one unit of simulated work, the numerator of
    ``*.sim_per_s``: a request (sent, served or dropped) for
    classification, an output token for generative workloads.
    """

    name: str
    why: str
    generative: bool
    unit: str
    traces: int
    size: int
    build: Callable[[int], Experiment]

    def trace_seeds(self, seed: int) -> List[int]:
        """The seeds of the traces one benchmark seed stands for (disjoint
        across benchmark seeds)."""
        return [seed * self.traces + i for i in range(self.traces)]

    def experiments(self, seed: int) -> List[Experiment]:
        return [self.build(s) for s in self.trace_seeds(seed)]


# cv-fleet: the only workload on which the classification EE controller
# (core.controller + exits) runs; it dominates apparate wall time here
# (threshold tuning, ramp adjustment and the model executor), while vanilla
# on the same trace is mostly kernel/runner self time.  So a controller change
# should move apparate.sim_per_s only and a kernel change vanilla.sim_per_s.
# The rate sits near fleet capacity with drop_expired on, and one replica
# crashes at a fixed time, so queues, SLO drops, salvage re-routes, the crash
# requeue and batching are all exercised (the crash falls inside every 2.4 s
# trace).  Frames arrive at a fixed rate, so vanilla's simulated figures do
# not depend on the seed (only difficulties do, which vanilla ignores).
CV_FRAMES = 600
CV_RATE_FPS = 250.0
CV_FAULT = "1000:800"        # crash_ms:down_ms


def _cv_fleet(seed: int) -> Experiment:
    return Experiment(
        model="resnet50",
        workload=WorkloadSpec("video", "urban-day", requests=CV_FRAMES,
                              rate=CV_RATE_FPS, seed=seed),
        cluster=ClusterSpec(replicas=4, balancer="join_shortest_queue",
                            faults=CV_FAULT),
        drop_expired=True)


# llm-fleet: long outputs (~60 tokens per sequence) on a monolithic 4-replica
# generative fleet with Poisson arrivals.  Apparate time is almost all the
# per-token policy (ApparateTokenPolicy.feedback, then decide); vanilla time
# is mostly ContinuousBatchingEngine.decode_stream.  The classification
# controller does no work here, so a token-policy change shows here and not
# on cv-fleet.  The rate keeps the fleet below the point where decode queues
# form: at 20 seq/s bursts queue, and the TTFT p99 of 1.5k sequences ranged
# 18-351 ms over ten seeds, too wide to gate; at 16 seq/s one seed in five
# still queued; at 12 seq/s the TTFT p99 is the first decode step.
LLM_SEQUENCES = 120
LLM_RATE_QPS = 12.0


def _llm_fleet(seed: int) -> Experiment:
    return Experiment(
        model="t5-large",
        workload=WorkloadSpec("generative", "cnn-dailymail",
                              requests=LLM_SEQUENCES, rate=LLM_RATE_QPS,
                              seed=seed),
        cluster=ClusterSpec(replicas=4, balancer="least_work_left"))


# llm-disagg-kv: short outputs (~12 tokens), so per-token control does little
# and the fleet layers dominate instead: 2 prefill + 4 decode replicas,
# prefix-affinity decode routing over 8 shared-prefix groups, a KV budget of
# ~3000 tokens per replica (eviction never stops), two tenants under
# weighted-fair dispatch (one batch priority) and a seeded decode-pool crash
# process.  Routing, KV admission/eviction, handoff, tenant repositioning and
# crash churn all run, so a change that speeds the monolithic path but slows
# pools, KV or routing shows up here.  The crash process has its own fixed
# seed: drawn from the benchmark seed, the crash count (1-9 per trace) made
# the TTFT p99 swing by 15% between seeds.
DISAGG_SEQUENCES = 500
DISAGG_RATE_QPS = 30.0
DISAGG_KV_TOKENS = 3000
DISAGG_TENANTS = "chat:weight=4;bulk:priority=batch"
DISAGG_FAULTS = "mtbf=5000,mttr=2000,horizon=60000,seed=7,pool=decode"


def _llm_disagg_kv(seed: int) -> Experiment:
    kv_capacity = DISAGG_KV_TOKENS * kv_bytes_per_token(get_model("t5-large"))
    return Experiment(
        model="t5-large",
        workload=WorkloadSpec("generative", "squad",
                              requests=DISAGG_SEQUENCES, rate=DISAGG_RATE_QPS,
                              seed=seed, arrival_process="diurnal",
                              prefix_groups=8),
        cluster=ClusterSpec(disaggregate=True, prefill_replicas=2,
                            decode_replicas=4, balancer="least_work_left",
                            decode_balancer="prefix_affinity",
                            kv_capacity=kv_capacity,
                            tenants=DISAGG_TENANTS,
                            tenant_policy="weighted_fair",
                            faults=DISAGG_FAULTS))


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("cv-fleet",
             "resnet50 video on a 4-replica JSQ fleet near capacity with SLO "
             "drops and one crash; the only workload where the classification "
             "EE controller runs",
             generative=False, unit="request", traces=8, size=CV_FRAMES,
             build=_cv_fleet),
    Workload("llm-fleet",
             "t5-large cnn-dailymail (~60 tokens/seq) on a 4-replica "
             "monolithic fleet; the per-token policy and decode_stream "
             "dominate",
             generative=True, unit="token", traces=10, size=LLM_SEQUENCES,
             build=_llm_fleet),
    Workload("llm-disagg-kv",
             "t5-large squad (~12 tokens/seq), 2 prefill + 4 decode, prefix "
             "affinity, tight KV budget, two tenants and decode crashes; "
             "routing/KV/pool layers dominate",
             generative=True, unit="token", traces=8, size=DISAGG_SEQUENCES,
             build=_llm_disagg_kv),
)}
