"""Property-based tests (hypothesis): spans conserve requests and reconcile
with metrics bit-exactly on every platform kind, including under fault churn.

The recorder only ever *reads* floats the simulator already computed, so the
reconciliation assertions use ``==`` on floats deliberately: a span endpoint
that drifts from its metric counterpart by even one ulp means the hooks
recomputed a quantity instead of observing it.
"""

from hypothesis import given, settings, strategies as st

from repro.api import ClusterSpec, Experiment, WorkloadSpec
from repro.faults import FaultSpec
from repro.obs import OUTCOME_DROPPED, OUTCOME_SERVED, OUTCOME_SHED

# Every example is a full simulated run; keep the counts modest.
SIM = settings(max_examples=8, deadline=None)

CLASSIFY_WORKLOAD = WorkloadSpec("video", requests=160)
GENERATIVE_WORKLOAD = WorkloadSpec("generative", requests=30)


def _spans_by_id(trace):
    """One closed-or-open span per admitted request, keyed by id."""
    spans = trace.spans()
    by_id = {s.request_id: s for s in spans}
    assert len(by_id) == len(spans)
    return by_id


def _phase(span, name):
    matches = [p for p in span.phases if p[0] == name]
    assert len(matches) == 1, f"expected one {name!r} phase, got {matches}"
    return matches[0]


def _assert_conserved(trace, expected_total):
    spans = trace.spans()
    assert len(spans) == expected_total
    assert len(trace.closed_spans()) + len(trace.open_spans()) == len(spans)
    assert not trace.open_spans()
    return _spans_by_id(trace)


# ------------------------------------------------------------ classification

@SIM
@given(crash_ms=st.floats(0.0, 2000.0), down_ms=st.floats(100.0, 1500.0))
def test_classification_cluster_spans_reconcile(crash_ms, down_ms):
    experiment = Experiment(
        model="resnet50", workload=CLASSIFY_WORKLOAD,
        cluster=ClusterSpec(replicas=3,
                            faults=FaultSpec(crash_ms, down_ms)),
        trace=True)
    result = experiment.run(["vanilla"]).result("vanilla")
    spans = _assert_conserved(result.trace, CLASSIFY_WORKLOAD.requests)
    responses = result.raw.aggregate().responses
    assert sorted(spans) == sorted(r.request_id for r in responses)
    for response in responses:
        span = spans[response.request_id]
        if response.dropped:
            assert span.outcome == OUTCOME_DROPPED
            continue
        assert span.outcome == OUTCOME_SERVED
        assert span.end_ms == response.completion_ms
        _, q_start, q_end, _, _ = _phase(span, "queue")
        assert q_end - q_start == response.queueing_ms
        # serving_ms is the batch's modelled service time, not an endpoint
        # difference, so the serve phase reconciles on endpoints instead.
        _, s_start, s_end, _, _ = _phase(span, "serve")
        assert s_start == response.scheduled_ms
        assert s_end == response.completion_ms
        assert span.end_ms - span.arrival_ms == response.latency_ms


def test_classification_single_spans_reconcile():
    experiment = Experiment(model="resnet50", workload=CLASSIFY_WORKLOAD,
                            trace=True)
    result = experiment.run(["vanilla"]).result("vanilla")
    spans = _assert_conserved(result.trace, CLASSIFY_WORKLOAD.requests)
    for response in result.raw.aggregate().responses:
        span = spans[response.request_id]
        assert span.outcome == OUTCOME_SERVED
        assert span.end_ms == response.completion_ms
        _, q_start, q_end, _, _ = _phase(span, "queue")
        assert q_end - q_start == response.queueing_ms


# ---------------------------------------------------------------- generative

def _assert_generative_reconciles(metrics, trace, total):
    spans = _assert_conserved(trace, total)
    shed = set(metrics.shed_sequence_ids)
    for sid, span in spans.items():
        if sid in shed:
            assert span.outcome == OUTCOME_SHED
            continue
        assert span.outcome == OUTCOME_SERVED
        _, d_start, _, _, _ = _phase(span, "decode")
        # Queueing spans arrival -> first decode step on every generative
        # platform; the span reads the same float the metrics stored.
        assert d_start - span.arrival_ms == metrics.queueing_delays_ms[sid]
    served = {s.outcome for s in spans.values()}
    assert served <= {OUTCOME_SERVED, OUTCOME_SHED}
    assert sum(1 for s in spans.values() if s.outcome == OUTCOME_SHED) \
        == len(shed)


def test_generative_single_spans_reconcile():
    experiment = Experiment(model="t5-large", workload=GENERATIVE_WORKLOAD,
                            trace=True)
    result = experiment.run(["vanilla"]).result("vanilla")
    _assert_generative_reconciles(result.raw.aggregate(), result.trace,
                                  GENERATIVE_WORKLOAD.requests)


@SIM
@given(crash_ms=st.floats(0.0, 3000.0), down_ms=st.floats(100.0, 2000.0))
def test_generative_cluster_spans_reconcile(crash_ms, down_ms):
    experiment = Experiment(
        model="t5-large", workload=GENERATIVE_WORKLOAD,
        cluster=ClusterSpec(replicas=3, faults=FaultSpec(crash_ms, down_ms)),
        trace=True)
    result = experiment.run(["vanilla"]).result("vanilla")
    metrics = result.raw.aggregate()
    _assert_generative_reconciles(metrics, result.trace,
                                  GENERATIVE_WORKLOAD.requests)


@SIM
@given(crash_ms=st.floats(0.0, 3000.0), down_ms=st.floats(100.0, 2000.0),
       pool=st.sampled_from(["decode", "prefill"]))
def test_disagg_spans_reconcile(crash_ms, down_ms, pool):
    experiment = Experiment(
        model="t5-large", workload=GENERATIVE_WORKLOAD,
        cluster=ClusterSpec(replicas=2, disaggregate=True,
                            faults=FaultSpec(crash_ms, down_ms, pool=pool)),
        trace=True)
    result = experiment.run(["vanilla"]).result("vanilla")
    metrics = result.raw
    agg = metrics.aggregate()
    spans = _assert_conserved(result.trace, GENERATIVE_WORKLOAD.requests)
    shed = set(agg.shed_sequence_ids)
    for sid, span in spans.items():
        if sid in shed:
            assert span.outcome == OUTCOME_SHED
            continue
        assert span.outcome == OUTCOME_SERVED
        # Pipeline stages chain bit-exactly: prefill ends where the metrics'
        # prefill delay says, the KV transfer ends where the handoff heap key
        # says, and decode queueing starts at the transfer arrival.
        _, _, p_end, p_pool, _ = _phase(span, "prefill")
        assert p_pool == "prefill"
        assert p_end - span.arrival_ms == metrics.prefill_delays_ms[sid]
        _, t_start, t_end, _, _ = _phase(span, "kv_transfer")
        assert t_start == p_end
        assert t_end == p_end + metrics.transfer_delays_ms[sid]
        _, q_start, _, q_pool, _ = _phase(span, "queue")
        assert q_pool == "decode"
        assert q_start == t_end
        _, d_start, _, _, _ = _phase(span, "decode")
        assert d_start - span.arrival_ms == agg.queueing_delays_ms[sid]


# ----------------------------------------------------- shed + drop outcomes

def test_shed_sequences_close_as_shed():
    experiment = Experiment(model="t5-large",
                            workload=WorkloadSpec("generative", requests=40,
                                                  rate=40.0),
                            slo_ms=30.0, trace=True)
    result = experiment.run(["vanilla"]).result("vanilla")
    metrics = result.raw.aggregate()
    assert metrics.shed_sequence_ids, "workload must overload the TTFT SLO"
    spans = _spans_by_id(result.trace)
    for sid in metrics.shed_sequence_ids:
        assert spans[sid].outcome == OUTCOME_SHED
        assert spans[sid].closed


# ------------------------------------------------------- trace off: no drift

def test_trace_off_is_bit_identical():
    kinds = [
        ("resnet50", CLASSIFY_WORKLOAD, None),
        ("resnet50", CLASSIFY_WORKLOAD,
         ClusterSpec(replicas=2, autoscaler="queue",
                     faults=FaultSpec(500.0, 400.0))),
        ("t5-large", GENERATIVE_WORKLOAD, None),
        ("t5-large", GENERATIVE_WORKLOAD,
         ClusterSpec(replicas=2, autoscaler="queue")),
        ("t5-large", GENERATIVE_WORKLOAD,
         ClusterSpec(replicas=2, disaggregate=True, kv_capacity=2e6)),
    ]
    for model, workload, cluster in kinds:
        plain = Experiment(model=model, workload=workload, cluster=cluster)
        traced = Experiment(model=model, workload=workload, cluster=cluster,
                            trace=True)
        for system in ("vanilla", "apparate"):
            a = plain.run([system]).result(system).summary
            b = traced.run([system]).result(system).summary
            assert a == b, f"{model}/{cluster}/{system} drifted under tracing"
