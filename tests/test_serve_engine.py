"""Tests for the serving engine: demux exactness, cache accounting,
overload rejection, latency bookkeeping."""

import numpy as np
import pytest

from repro.core.ganns import ganns_search
from repro.core.params import SearchParams
from repro.errors import ServeError
from repro.faults import AdmissionGovernor, named_fault_plan
from repro.observability import MetricsRegistry, SpanTracer
from repro.serve import (
    BatchPolicy,
    QueryRequest,
    RequestStatus,
    ResultCache,
    ServeEngine,
)
from tests.oracles.narrow_dispatch import host_width, narrow_dispatch

PARAMS = SearchParams(k=5, l_n=32)


def _trace_from(queries, spacing=1e-4, start=0.0, per_request=1):
    """One request per ``per_request`` consecutive query rows."""
    trace = []
    for i in range(0, len(queries), per_request):
        trace.append(QueryRequest(
            request_id=len(trace),
            queries=queries[i:i + per_request],
            arrival_seconds=start + len(trace) * spacing))
    return trace


@pytest.fixture()
def engine(small_graph, small_points):
    return ServeEngine(
        small_graph, small_points, PARAMS,
        policy=BatchPolicy(max_batch=16, max_wait_seconds=1e-3,
                           max_queue=64))


class TestDemuxExactness:
    def test_results_match_direct_search(self, engine, small_graph,
                                         small_points, small_queries):
        report = engine.replay(_trace_from(small_queries))
        direct = ganns_search(small_graph, small_points, small_queries,
                              PARAMS)
        assert report.n_served == len(small_queries)
        for i, outcome in enumerate(report.outcomes):
            assert np.array_equal(outcome.ids[0], direct.ids[i])
            assert np.array_equal(outcome.dists[0], direct.dists[i])

    def test_multi_query_requests_demux_exactly(self, engine, small_graph,
                                                small_points,
                                                small_queries):
        report = engine.replay(_trace_from(small_queries, per_request=3))
        direct = ganns_search(small_graph, small_points, small_queries,
                              PARAMS)
        offset = 0
        for outcome in report.outcomes:
            n = outcome.ids.shape[0]
            assert np.array_equal(outcome.ids,
                                  direct.ids[offset:offset + n])
            assert np.array_equal(outcome.dists,
                                  direct.dists[offset:offset + n])
            offset += n
        assert offset == len(small_queries)

    def test_replay_is_deterministic(self, small_graph, small_points,
                                     small_queries):
        def run():
            engine = ServeEngine(
                small_graph, small_points, PARAMS,
                policy=BatchPolicy(max_batch=16, max_wait_seconds=1e-3,
                                   max_queue=64),
                cache=ResultCache(capacity=32))
            return engine.replay(_trace_from(small_queries))

        a, b = run(), run()
        assert a.makespan_seconds == b.makespan_seconds
        assert a.batch_sizes == b.batch_sizes
        for oa, ob in zip(a.outcomes, b.outcomes):
            assert oa.status is ob.status
            assert oa.completion_seconds == ob.completion_seconds
            assert np.array_equal(oa.ids, ob.ids)


class TestCacheAccounting:
    def test_repeat_query_is_cache_hit_with_identical_results(
            self, small_graph, small_points, small_queries):
        engine = ServeEngine(
            small_graph, small_points, PARAMS,
            policy=BatchPolicy(max_batch=4, max_wait_seconds=1e-4,
                               max_queue=64),
            cache=ResultCache(capacity=64))
        repeated = np.concatenate([small_queries[:8], small_queries[:8]])
        # Space arrivals so the first 8 complete before the repeats.
        report = engine.replay(_trace_from(repeated, spacing=5e-3))
        statuses = [o.status for o in report.outcomes]
        assert statuses[:8] == [RequestStatus.SERVED] * 8
        assert statuses[8:] == [RequestStatus.CACHE_HIT] * 8
        for first, second in zip(report.outcomes[:8], report.outcomes[8:]):
            assert np.array_equal(first.ids, second.ids)
            assert np.array_equal(first.dists, second.dists)
        assert report.n_cache_hits == 8
        assert report.cache_hit_rate == pytest.approx(0.5)
        assert report.cache_stats.hits == 8

    def test_cache_hits_skip_the_queue(self, small_graph, small_points,
                                       small_queries):
        engine = ServeEngine(
            small_graph, small_points, PARAMS,
            policy=BatchPolicy(max_batch=4, max_wait_seconds=1e-4,
                               max_queue=64),
            cache=ResultCache(capacity=64))
        repeated = np.concatenate([small_queries[:4], small_queries[:4]])
        report = engine.replay(_trace_from(repeated, spacing=5e-3))
        for outcome in report.outcomes[4:]:
            assert outcome.latency_seconds == 0.0
            assert outcome.batch_index == -1

    def test_no_cache_means_no_hits(self, engine, small_queries):
        repeated = np.concatenate([small_queries[:4], small_queries[:4]])
        report = engine.replay(_trace_from(repeated, spacing=5e-3))
        assert report.n_cache_hits == 0
        assert report.cache_stats is None


class TestOverloadRejection:
    def test_burst_beyond_queue_cap_is_rejected(self, small_graph,
                                                small_points,
                                                small_queries):
        engine = ServeEngine(
            small_graph, small_points, PARAMS,
            policy=BatchPolicy(max_batch=8, max_wait_seconds=1.0,
                               max_queue=8))
        # 20 requests in one instant: 8 admitted (and size-flushed),
        # then the in-flight batch occupies the whole queue budget.
        trace = _trace_from(small_queries[:20], spacing=0.0)
        report = engine.replay(trace)
        assert report.n_rejected > 0
        assert report.n_served + report.n_rejected == 20
        rejected = [o for o in report.outcomes
                    if o.status is RequestStatus.REJECTED]
        for outcome in rejected:
            assert outcome.ids is None
            assert outcome.latency_seconds == 0.0
        assert report.rejection_rate == pytest.approx(
            report.n_rejected / 20)

    def test_served_results_remain_exact_under_overload(
            self, small_graph, small_points, small_queries):
        engine = ServeEngine(
            small_graph, small_points, PARAMS,
            policy=BatchPolicy(max_batch=8, max_wait_seconds=1.0,
                               max_queue=8))
        report = engine.replay(_trace_from(small_queries[:20],
                                           spacing=0.0))
        direct = ganns_search(small_graph, small_points, small_queries,
                              PARAMS)
        for i, outcome in enumerate(report.outcomes):
            if outcome.served:
                assert np.array_equal(outcome.ids[0], direct.ids[i])

    def test_queue_drains_after_burst(self, small_graph, small_points,
                                      small_queries):
        """Once the backlog completes, later arrivals are admitted."""
        engine = ServeEngine(
            small_graph, small_points, PARAMS,
            policy=BatchPolicy(max_batch=8, max_wait_seconds=1e-3,
                               max_queue=8))
        burst = _trace_from(small_queries[:16], spacing=0.0)
        late = QueryRequest(request_id=999,
                            queries=small_queries[16:17],
                            arrival_seconds=10.0)
        report = engine.replay(burst + [late])
        assert report.outcomes[-1].status is not RequestStatus.REJECTED


class TestLatencyAccounting:
    def test_latency_decomposes_into_queue_plus_compute(
            self, engine, small_queries):
        report = engine.replay(_trace_from(small_queries))
        for outcome in report.outcomes:
            assert outcome.latency_seconds == pytest.approx(
                outcome.queue_seconds + outcome.compute_seconds)
            assert outcome.queue_seconds >= 0.0
            assert outcome.compute_seconds > 0.0

    def test_deadline_flush_bounds_queue_wait_when_underloaded(
            self, small_graph, small_points, small_queries):
        """With sparse arrivals and an idle device, queue wait can't
        exceed the batching window by more than upload scheduling."""
        window = 2e-3
        engine = ServeEngine(
            small_graph, small_points, PARAMS,
            policy=BatchPolicy(max_batch=1024, max_wait_seconds=window,
                               max_queue=4096))
        report = engine.replay(_trace_from(small_queries[:10],
                                           spacing=0.05))
        # Every flush is deadline-triggered (the trace tail drains at
        # its deadline, so the window bound applies there too).
        assert all(t in ("deadline", "drain")
                   for t in report.batch_triggers)
        for outcome in report.outcomes:
            assert outcome.queue_seconds <= window + 1e-9

    def test_batches_complete_in_dispatch_order(self, engine,
                                                small_queries):
        report = engine.replay(_trace_from(small_queries))
        served = [o for o in report.outcomes if o.served]
        completions = {}
        for outcome in served:
            completions.setdefault(outcome.batch_index,
                                   outcome.completion_seconds)
        ordered = [completions[i] for i in sorted(completions)]
        assert ordered == sorted(ordered)

    def test_report_counts_and_summary(self, engine, small_queries):
        report = engine.replay(_trace_from(small_queries))
        assert report.n_requests == len(small_queries)
        assert report.served_queries == len(small_queries)
        assert sum(report.batch_sizes) == len(small_queries)
        assert report.qps > 0
        text = report.summary()
        assert "ServeReport" in text
        assert "p95" in text


class TestEngineValidation:
    def test_rejects_out_of_order_trace(self, engine, small_queries):
        trace = [
            QueryRequest(0, small_queries[0], 1.0),
            QueryRequest(1, small_queries[1], 0.5),
        ]
        with pytest.raises(ServeError, match="arrival-ordered"):
            engine.replay(trace)

    def test_rejects_dimension_mismatch(self, engine):
        bad = QueryRequest(0, np.zeros((1, 3)), 0.0)
        with pytest.raises(ServeError, match="dimensionality"):
            engine.replay([bad])

    def test_rejects_duplicate_request_object(self, engine,
                                              small_queries):
        req = QueryRequest(0, small_queries[0], 0.0)
        with pytest.raises(ServeError, match="twice"):
            engine.replay([req, req])

    def test_rejects_k_above_the_vertex_count(self, small_points):
        """Refused at construction, not by the first replayed batch."""
        from repro.baselines.nsw_cpu import build_nsw_cpu
        points = small_points[:50]
        graph = build_nsw_cpu(points, d_min=4, d_max=8).graph
        with pytest.raises(ServeError, match="k=64 exceeds the 50 "
                                             "vertices"):
            ServeEngine(graph, points, SearchParams(k=64, l_n=64))
        ServeEngine(graph, points, SearchParams(k=50, l_n=64))

    @pytest.mark.parametrize("params", [
        SearchParams(k=10, l_n=4096),
        SearchParams(k=10, l_n=2048, quant="int8", rerank_factor=2),
    ], ids=["exact", "quant"])
    def test_rejects_a_pool_the_device_cannot_hold(self, small_graph,
                                                   small_points, params):
        """Refused at construction, not by the first replayed batch: a
        4,096-record pool (``rerank_factor * l_n`` under ``quant``) over
        ``d_max=16`` needs 49,344 B of the device's 49,152 B."""
        with pytest.raises(ServeError, match=(
                f"l_n={params.l_n} .*d_max=16 .*limit of 49152 B")):
            ServeEngine(small_graph, small_points, params)
        fits = params.with_overrides(l_n=params.l_n // 2)
        ServeEngine(small_graph, small_points, fits)

    def test_empty_trace_gives_empty_report(self, engine):
        report = engine.replay([])
        assert report.n_requests == 0
        assert report.n_batches == 0
        assert report.qps == 0.0
        assert report.summary()  # must not crash on empty populations


class TestHostileQueries:
    """A request the kernel would refuse is refused with the trace —
    by id, before a batch forms — not from inside a host call that
    carries other requests' lanes."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "dtype"])
    def test_rejected_up_front_without_side_effects(
            self, small_graph, small_points, small_queries, bad):
        hostile = small_queries[8:10].copy()
        if bad == "dtype":
            assert small_points.dtype == np.float32
            hostile = hostile.astype(np.float64)
            message = "request 8: queries are float64"
        else:
            hostile[1, 3] = bad
            message = "request 8: queries contain NaN or infinite"
        cache = ResultCache(64)
        engine = ServeEngine(
            small_graph, small_points, PARAMS, cache=cache,
            policy=BatchPolicy(max_batch=4, max_wait_seconds=1e-4,
                               max_queue=64))
        # Eight good requests (two full batches) arrive first.
        trace = _trace_from(small_queries[:8])
        trace.append(QueryRequest(8, hostile, 1.0))
        tracer = SpanTracer()
        with pytest.raises(ServeError, match=message):
            engine.replay(trace, tracer=tracer)
        assert len(cache) == 0
        assert cache.stats.hits == cache.stats.misses == 0
        assert len(tracer.spans) == 0


def _replay_bytes(engine_factory, trace):
    """Report, span and metric bytes of one traced replay."""
    tracer, metrics = SpanTracer(), MetricsRegistry()
    report = engine_factory().replay(trace, tracer=tracer,
                                     metrics=metrics)
    tracer.finish()
    report.verify_against_metrics()
    return report, (report.to_bytes(), tracer.to_json_bytes(),
                    metrics.to_json_bytes())


class TestWideSearches:
    """Replays search their queries wide and charge them per batch:
    same bytes as one host search per batch, fewer lanes traversed."""

    def test_retried_batches_traverse_each_query_once(
            self, small_graph, small_points, small_queries, traversed):
        trace = _trace_from(np.concatenate([small_queries,
                                            small_queries[:10]]))
        plan = named_fault_plan("aggressive",
                                2.0 * trace[-1].arrival_seconds, seed=0)
        engine = ServeEngine(
            small_graph, small_points, PARAMS, faults=plan,
            policy=BatchPolicy(max_batch=8, max_wait_seconds=1e-3,
                               max_queue=64))
        report = engine.replay(trace)
        assert report.fault_report.n_retries > 0
        dispatched = sum(report.batch_sizes)
        lanes = sum(n for _, n in traversed)
        assert lanes <= len(small_queries) < dispatched
        # Nothing outlives the replay: the next one does equal work.
        engine.replay(trace)
        assert sum(n for _, n in traversed) == 2 * lanes

    @pytest.mark.parametrize("width", [None, 4])
    def test_degraded_tier_replays_to_the_narrow_bytes(
            self, small_graph, small_points, small_queries, width):
        def factory():
            return ServeEngine(
                small_graph, small_points, PARAMS,
                cache=ResultCache(16),
                policy=BatchPolicy(max_batch=16, max_wait_seconds=2e-3,
                                   max_queue=16),
                governor=AdmissionGovernor(tiers=((16, 8),),
                                           pressure_thresholds=(0.5,)))
        # A burst that fills the queue (tier 1), then a trickle of
        # repeats and fresh queries at tier 0.
        trace = _trace_from(small_queries[:16], spacing=1e-7)
        trace += [QueryRequest(100 + i, small_queries[10 + i:12 + i],
                               1.0 + i * 1e-2) for i in range(12)]
        with host_width(width):
            report, wide = _replay_bytes(factory, trace)
        assert {o.degraded_tier for o in report.outcomes
                if o.served} == {0, 1}
        with narrow_dispatch():
            _, narrow = _replay_bytes(factory, trace)
        assert wide == narrow

    @pytest.mark.parametrize("width", [None, 4])
    def test_quantised_engine_replays_to_the_narrow_bytes(
            self, small_graph, small_points, small_queries, width):
        def factory():
            return ServeEngine(
                small_graph, small_points,
                SearchParams(k=5, l_n=32, quant="pca"),
                cache=ResultCache(16),
                policy=BatchPolicy(max_batch=8, max_wait_seconds=1e-3,
                                   max_queue=64))
        trace = _trace_from(np.concatenate([small_queries,
                                            small_queries[5:25]]),
                            per_request=3)
        with host_width(width):
            report, wide = _replay_bytes(factory, trace)
        assert report.quant == "pca" and report.n_served == len(trace)
        with narrow_dispatch():
            _, narrow = _replay_bytes(factory, trace)
        assert wide == narrow

    def test_overload_searches_no_more_than_the_distinct_queries(
            self, small_graph, small_points, small_queries,
            searched_rows):
        engine = ServeEngine(
            small_graph, small_points, PARAMS,
            policy=BatchPolicy(max_batch=4, max_wait_seconds=1.0,
                               max_queue=4))
        queries = np.concatenate([small_queries, small_queries])
        report = engine.replay(_trace_from(queries, spacing=1e-7))
        assert report.n_rejected > report.n_served > 0
        rows = [row for call in searched_rows for row in call]
        assert len(rows) == len(set(rows)) <= len(small_queries)
