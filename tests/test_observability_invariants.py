"""Invariant suite for the deterministic observability layer.

Three falsifiable claims, property-checked over randomized chaos
replays (aggressive fault plan, randomized trace seeds and shapes):

1. **Well-formed span trees.**  Every trace the engine emits satisfies,
   under an *independent* re-implementation of the rules (not
   :meth:`SpanTracer.validate`): children nest inside their parents,
   same-``(parent, lane)`` siblings never overlap, events fall inside
   their span's interval, and no span is open at shutdown.
2. **Exact reconciliation.**  Span durations, registry counters and the
   report's derived properties are three views of one replay and must
   agree bit-for-bit: request-span durations re-aggregate to the exact
   ServeReport percentiles, compute-span cycle attributes sum to the
   exact ``kernel.cycles.*`` counters, and
   :meth:`ServeReport.verify_against_metrics` /
   :meth:`FaultReport.verify_against_metrics` pass.
3. **Byte determinism.**  Two engines constructed from the same seeds
   produce byte-identical trace files and metric snapshots under an
   aggressive fault plan, and every delivered fault appears as a span
   event.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.params import SearchParams
from repro.faults import (
    AdmissionGovernor,
    BreakerPolicy,
    RetryPolicy,
    named_fault_plan,
)
from repro.observability import MetricsRegistry, SpanTracer
from repro.serve import BatchPolicy, ResultCache, ServeEngine, synthetic_trace
from repro.serve.report import _percentile
from tests.oracles.spans import iter_descendants

PARAMS = SearchParams(k=10, l_n=32)
MEAN_QPS = 300_000.0

#: Span-event names the engine uses for fault-tolerance incidents.
FAULT_EVENT_NAMES = {"fault", "deadline_drop", "breaker_open", "degrade"}


def chaos_replay(small_graph, small_points, query_pool, n_requests,
                 trace_seed, fault_seed, mean_qps=MEAN_QPS):
    """One fully armed chaos replay with the observability layer on."""
    plan = named_fault_plan(
        "aggressive", horizon_seconds=2.0 * n_requests / mean_qps,
        seed=fault_seed)
    engine = ServeEngine(
        small_graph, small_points, PARAMS,
        policy=BatchPolicy(max_batch=64, max_wait_seconds=5e-4,
                           max_queue=1024),
        cache=ResultCache(capacity=512),
        faults=plan,
        retry=RetryPolicy(max_retries=2, base_seconds=2e-4,
                          cap_seconds=2e-3),
        breaker=BreakerPolicy(failure_threshold=3,
                              cooldown_seconds=2e-3),
        governor=AdmissionGovernor.default_for(PARAMS),
        default_deadline_seconds=20e-3)
    trace = synthetic_trace(query_pool, n_requests, mean_qps=mean_qps,
                            repeat_fraction=0.3, seed=trace_seed)
    tracer = SpanTracer()
    metrics = MetricsRegistry()
    report = engine.replay(trace, tracer=tracer, metrics=metrics)
    tracer.finish()
    return report, tracer, metrics


# ----------------------------------------------------------------------
# Independent well-formedness rules (deliberately NOT tracer.validate)
# ----------------------------------------------------------------------

def assert_well_formed(tracer: SpanTracer) -> None:
    spans = tracer.spans
    assert tracer.n_open == 0, "spans still open at shutdown"
    for span in spans:
        assert span.end_seconds is not None
        assert span.end_seconds >= span.start_seconds
        if span.parent_id is not None:
            parent = spans[span.parent_id]
            assert parent.start_seconds <= span.start_seconds, (
                f"{span.name} starts before its parent {parent.name}")
            assert span.end_seconds <= parent.end_seconds, (
                f"{span.name} outlives its parent {parent.name}")
        for event in span.events:
            assert (span.start_seconds <= event.seconds
                    <= span.end_seconds), (
                f"event {event.name} escapes span {span.name}")
    # Same-(parent, lane) siblings must not overlap: sort by start and
    # require each to end before the next begins (zero-width spans may
    # share an instant).
    groups = {}
    for span in spans:
        groups.setdefault((span.parent_id, span.lane), []).append(span)
    for (_parent, lane), members in groups.items():
        members.sort(key=lambda s: (s.start_seconds, s.end_seconds))
        for left, right in zip(members, members[1:]):
            assert not left.overlaps(right), (
                f"siblings {left.name}/{right.name} overlap on lane "
                f"{lane}: [{left.start_seconds}, {left.end_seconds}] "
                f"vs [{right.start_seconds}, {right.end_seconds}]")


class TestSpanTreeWellFormedness:
    @settings(max_examples=6, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(n_requests=st.integers(min_value=40, max_value=220),
           trace_seed=st.integers(min_value=0, max_value=2**16),
           fault_seed=st.integers(min_value=0, max_value=2**16))
    def test_chaos_traces_are_well_formed(self, small_graph,
                                          small_points, query_pool,
                                          n_requests, trace_seed,
                                          fault_seed):
        report, tracer, _ = chaos_replay(
            small_graph, small_points, query_pool, n_requests,
            trace_seed, fault_seed)
        assert_well_formed(tracer)
        # The structural skeleton is always present.
        roots = tracer.roots()
        assert len(roots) == 1 and roots[0].name == "serve.replay"
        request_spans = tracer.find("request")
        assert len(request_spans) == report.n_requests
        assert len(tracer.find("batch")) >= report.n_batches

    def test_round_trip_preserves_bytes(self, small_graph, small_points,
                                        query_pool):
        _, tracer, _ = chaos_replay(small_graph, small_points,
                                    query_pool, 150, 5, 9)
        payload = tracer.to_json_bytes()
        clone = SpanTracer.from_json_bytes(payload)
        assert clone.to_json_bytes() == payload
        assert_well_formed(clone)


class TestExactReconciliation:
    @settings(max_examples=5, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(n_requests=st.integers(min_value=40, max_value=220),
           trace_seed=st.integers(min_value=0, max_value=2**16),
           fault_seed=st.integers(min_value=0, max_value=2**16))
    def test_report_and_ledger_are_registry_views(
            self, small_graph, small_points, query_pool, n_requests,
            trace_seed, fault_seed):
        report, _, metrics = chaos_replay(
            small_graph, small_points, query_pool, n_requests,
            trace_seed, fault_seed)
        assert report.metrics is metrics
        report.verify_against_metrics()
        metrics.reconcile(report.fault_report.metric_rows())

    def test_request_span_durations_reproduce_percentiles(
            self, small_graph, small_points, query_pool):
        report, tracer, _ = chaos_replay(small_graph, small_points,
                                         query_pool, 200, 3, 7)
        served = [s for s in tracer.find("request")
                  if s.attributes["status"] in ("served", "cache_hit")]
        durations = np.array([s.end_seconds - s.start_seconds
                              for s in served], dtype=np.float64)
        assert len(durations) == report.n_served
        # Bit-exact: span endpoints are the same floats the outcomes
        # carry, so the same percentile rule must return the same bits.
        for q, expected in ((50, report.p50_latency),
                            (95, report.p95_latency),
                            (99, report.p99_latency)):
            assert _percentile(durations, q) == expected

    def test_compute_span_cycles_sum_to_registry_counters(
            self, small_graph, small_points, query_pool):
        _, tracer, metrics = chaos_replay(small_graph, small_points,
                                          query_pool, 200, 11, 13)
        # Successful compute spans carry per-phase cycle attributes
        # (failed attempts burn engine time but publish no kernel
        # report).  Summing them in span-id order replays the exact
        # float additions the registry counters performed.
        sums = {}
        n_instrumented = 0
        for span in tracer.find("compute"):
            attrs = {k: v for k, v in span.attributes.items()
                     if k.startswith("cycles.")}
            if not attrs:
                continue
            n_instrumented += 1
            for key, value in attrs.items():
                phase = key[len("cycles."):]
                sums[phase] = sums.get(phase, 0.0) + value
            sums["_total"] = (sums.get("_total", 0.0)
                              + span.attributes["cycles_total"])
        assert n_instrumented > 0
        for phase, total in sums.items():
            name = ("kernel.cycles_total" if phase == "_total"
                    else f"kernel.cycles.{phase}")
            assert metrics.value(name) == total

    def test_drift_is_detected(self, small_graph, small_points,
                               query_pool):
        from repro.errors import ObservabilityError
        report, _, metrics = chaos_replay(small_graph, small_points,
                                          query_pool, 80, 1, 2)
        metrics.counter("serve.served").inc()  # sabotage
        with pytest.raises(ObservabilityError, match="drift"):
            report.verify_against_metrics()


class TestByteDeterminism:
    @settings(max_examples=4, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(trace_seed=st.integers(min_value=0, max_value=2**16),
           fault_seed=st.integers(min_value=0, max_value=2**16))
    def test_same_seeds_same_bytes(self, small_graph, small_points,
                                   query_pool, trace_seed, fault_seed):
        first = chaos_replay(small_graph, small_points, query_pool,
                             120, trace_seed, fault_seed)
        second = chaos_replay(small_graph, small_points, query_pool,
                              120, trace_seed, fault_seed)
        assert first[1].to_json_bytes() == second[1].to_json_bytes()
        assert first[2].to_json_bytes() == second[2].to_json_bytes()
        assert first[0].to_bytes() == second[0].to_bytes()

    def test_every_delivered_fault_is_a_span_event(
            self, small_graph, small_points, query_pool):
        # A slower arrival rate stretches the horizon so the aggressive
        # plan actually lands a meaningful number of faults.
        report, tracer, _ = chaos_replay(small_graph, small_points,
                                         query_pool, 250, 21, 23,
                                         mean_qps=20_000.0)
        fr = report.fault_report
        assert fr.n_injected > 0, "chaos plan delivered nothing"
        fault_events = [event for span in tracer.spans
                        for event in span.events
                        if event.name == "fault"]
        # One "fault" span event per delivered injection, attached to
        # the attempt/compute span that absorbed it.
        assert len(fault_events) == fr.n_injected
        kinds = sorted(e.attributes["kind"] for e in fault_events)
        assert kinds == sorted(r.kind for r in fr.injections)
        if fr.deadline_dropped_requests:
            drops = [e for span in tracer.spans for e in span.events
                     if e.name == "deadline_drop"]
            assert len(drops) == fr.deadline_dropped_requests


class TestTrackerMirror:
    def test_descendant_iteration_covers_the_tree(self):
        tracer = SpanTracer()
        root = tracer.begin("root", 0.0)
        a = tracer.begin("a", 1.0, parent_id=root)
        tracer.add("a1", 1.0, 2.0, parent_id=a)
        tracer.end(a, 3.0)
        tracer.add("b", 3.0, 4.0, parent_id=root)
        tracer.end(root, 5.0)
        names = sorted(s.name for s in iter_descendants(tracer, root))
        assert names == ["a", "a1", "b"]


@pytest.fixture(scope="module")
def query_pool():
    """Distinct query vectors for the chaos traces."""
    from repro.datasets.synthetic import gaussian_mixture
    return gaussian_mixture(600, 24, n_clusters=8, cluster_std=0.3,
                            intrinsic_dim=8, seed=11)
