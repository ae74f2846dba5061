"""Trace ↔ report reconciliation at scale (2,000-request replay).

The claim under test: the serialized span trace alone is enough to
re-derive the ServeReport's headline numbers *exactly* — per-request
span durations re-aggregate to the same p50/p95/p99 bits, the per-tier
served counts match, and the queue/compute split of every served
request reproduces its outcome record.  If the trace and the report
ever disagree, one of them is lying about the replay.
"""

import numpy as np
import pytest

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
from repro.serve.request import RequestStatus

N_REQUESTS = 2000
MEAN_QPS = 150_000.0
PARAMS = SearchParams(k=10, l_n=32)


@pytest.fixture(scope="module")
def replayed(small_graph, small_points):
    """One large chaos replay plus its round-tripped trace."""
    from repro.datasets.synthetic import gaussian_mixture
    pool = gaussian_mixture(800, 24, n_clusters=8, cluster_std=0.3,
                            intrinsic_dim=8, seed=19)
    plan = named_fault_plan(
        "aggressive", horizon_seconds=2.0 * N_REQUESTS / MEAN_QPS,
        seed=5)
    engine = ServeEngine(
        small_graph, small_points, PARAMS,
        policy=BatchPolicy(max_batch=128, max_wait_seconds=5e-4,
                           max_queue=2048),
        cache=ResultCache(capacity=1024),
        faults=plan,
        retry=RetryPolicy(max_retries=2, base_seconds=2e-4,
                          cap_seconds=2e-3),
        breaker=BreakerPolicy(failure_threshold=3,
                              cooldown_seconds=2e-3),
        governor=AdmissionGovernor.default_for(PARAMS),
        default_deadline_seconds=20e-3)
    trace = synthetic_trace(pool, N_REQUESTS, mean_qps=MEAN_QPS,
                            repeat_fraction=0.3, seed=23)
    tracer = SpanTracer()
    report = engine.replay(trace, tracer=tracer,
                           metrics=MetricsRegistry())
    tracer.finish()
    # Everything below reads the *serialized* trace, as an external
    # analysis tool would.
    parsed = SpanTracer.from_json_bytes(tracer.to_json_bytes())
    return report, parsed


def served_request_spans(tracer):
    return [s for s in tracer.find("request")
            if s.attributes["status"] in ("served", "cache_hit")]


class TestLatencyReconciliation:
    def test_span_durations_reaggregate_to_exact_percentiles(
            self, replayed):
        report, tracer = replayed
        durations = np.array(
            [s.end_seconds - s.start_seconds
             for s in served_request_spans(tracer)],
            dtype=np.float64)
        assert len(durations) == report.n_served > 0
        assert _percentile(durations, 50) == report.p50_latency
        assert _percentile(durations, 95) == report.p95_latency
        assert _percentile(durations, 99) == report.p99_latency
        assert float(durations.mean()) == report.mean_latency

    def test_queue_compute_split_matches_outcomes(self, replayed):
        report, tracer = replayed
        by_id = {o.request_id: o for o in report.outcomes}
        checked = 0
        for span in tracer.find("request"):
            outcome = by_id[span.attributes["request_id"]]
            if outcome.status is not RequestStatus.SERVED:
                continue
            children = {c.name: c
                        for c in tracer.children_of(span.span_id)}
            queue = children["request.queue"]
            compute = children["request.compute"]
            assert (queue.end_seconds - queue.start_seconds
                    == outcome.queue_seconds)
            assert (compute.end_seconds - compute.start_seconds
                    == outcome.compute_seconds)
            assert (span.end_seconds - span.start_seconds
                    == outcome.latency_seconds)
            checked += 1
        assert checked == sum(
            1 for o in report.outcomes
            if o.status is RequestStatus.SERVED)


class TestCountReconciliation:
    def test_per_tier_counts_match(self, replayed):
        report, tracer = replayed
        tiers = {}
        for span in served_request_spans(tracer):
            tier = span.attributes["tier"]
            tiers[tier] = tiers.get(tier, 0) + 1
        assert tiers == report.per_tier_counts()

    def test_status_counts_match(self, replayed):
        report, tracer = replayed
        statuses = {}
        for span in tracer.find("request"):
            status = span.attributes["status"]
            statuses[status] = statuses.get(status, 0) + 1
        assert sum(statuses.values()) == report.n_requests
        assert statuses.get("rejected", 0) == report.n_rejected
        assert statuses.get("failed", 0) == report.n_failed
        assert statuses.get("timed_out", 0) == report.n_timed_out
        assert statuses.get("cache_hit", 0) == report.n_cache_hits

    def test_batch_spans_match_dispatch_ledger(self, replayed):
        report, tracer = replayed
        served_or_failed = [
            s for s in tracer.find("batch")
            if s.attributes["outcome"] in ("served", "failed")]
        # Every dispatched batch (served or permanently failed) was
        # recorded in the report's size/trigger ledgers.
        assert len(served_or_failed) == report.n_batches
        triggers = {}
        for span in served_or_failed:
            trig = span.attributes["trigger"]
            triggers[trig] = triggers.get(trig, 0) + 1
        assert triggers == report.trigger_counts()

    def test_chaos_was_real(self, replayed):
        report, _ = replayed
        assert report.fault_report.n_injected > 0
        assert report.n_served > 0
        report.verify_against_metrics()
