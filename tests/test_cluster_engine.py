"""Unit and integration tests for the sharded serving cluster.

Covers consistent-hash placement, the replica router, the
scatter-gather replay itself (including its equivalence to a plain
single :class:`ServeEngine` on a one-shard topology), report/metrics
reconciliation, and the per-shard ground-truth helper's small-shard
denominator fix.
"""

import re

import numpy as np
import pytest

from repro.cluster import (
    ClusterEngine,
    ClusterStatus,
    ConsistentHashRing,
    ReplicaRouter,
    RouterPolicy,
    ShardMap,
    hash64,
    merge_topk,
)
from repro.core import pipeline
from repro.core.backend import get_backend
from repro.core.params import SearchParams
from repro.datasets.ground_truth import exact_knn
from repro.datasets.synthetic import gaussian_mixture
from repro.errors import ClusterError
from repro.faults import RetryPolicy, named_fault_plan
from repro.faults.plan import (
    FAULT_NETWORK_PARTITION,
    FAULT_WORKER_LOSS,
    FaultEvent,
    FaultPlan,
)
from repro.metrics.recall import recall_per_query
from repro.observability import MetricsRegistry, SpanTracer
from repro.serve import QueryRequest, ServeEngine, synthetic_trace
from repro.serve.cache import ResultCache
from tests.oracles.narrow_dispatch import host_width, narrow_dispatch
from tests.oracles.shard_truth import shard_ground_truth

PARAMS = SearchParams(k=8, l_n=32, e=2)


@pytest.fixture(scope="module")
def corpus():
    return gaussian_mixture(400, 16, n_clusters=5, cluster_std=0.4,
                            seed=11)


@pytest.fixture(scope="module")
def pool():
    return gaussian_mixture(64, 16, n_clusters=5, cluster_std=0.4,
                            seed=12)


@pytest.fixture(scope="module")
def cluster(corpus):
    return ClusterEngine(corpus, n_shards=4, n_replicas=2,
                         params=PARAMS)


class TestPlacement:
    def test_hash64_is_stable_across_calls(self):
        assert hash64(b"repro") == hash64(b"repro")
        assert hash64(b"repro") != hash64(b"repr0")

    def test_assignment_is_deterministic_and_covers(self):
        ring = ConsistentHashRing(4)
        a = ring.assign(500)
        b = ConsistentHashRing(4).assign(500)
        np.testing.assert_array_equal(a, b)
        assert a.min() >= 0 and a.max() < 4

    def test_consistent_hashing_is_stable_under_growth(self):
        # Growing 4 -> 5 shards must move only a minority of keys.
        before = ConsistentHashRing(4).assign(2000)
        after = ConsistentHashRing(5).assign(2000)
        moved = np.mean(before != after)
        assert moved < 0.5

    def test_placement_hashes_keep_the_zero_namespace(self):
        """Every vnode and key hash starts with ``0:``: the placement the
        cluster goldens pin."""
        from repro.cluster.placement import N_VNODES, hash64

        ring = sorted((hash64(f"0:vnode:{shard}:{vnode}".encode("ascii")),
                       shard)
                      for shard in range(4) for vnode in range(N_VNODES))
        positions = [position for position, _ in ring]
        want = [ring[int(np.searchsorted(
                    np.array(positions, dtype=np.uint64),
                    np.uint64(hash64(f"0:key:{key}".encode("ascii"))))
                     % len(ring))][1]
                for key in range(300)]
        np.testing.assert_array_equal(ConsistentHashRing(4).assign(300),
                                      want)

    def test_shard_map_members_partition_the_corpus(self):
        ring = ConsistentHashRing(3)
        shard_map = ShardMap.from_ring(600, ring)
        union = np.concatenate(shard_map.members)
        np.testing.assert_array_equal(np.sort(union), np.arange(600))
        assert sum(shard_map.shard_sizes()) == 600

    def test_to_global_translates_and_keeps_padding(self):
        shard_map = ShardMap(np.array([1, 0, 1, 0, 1]), 2)
        out = shard_map.to_global(1, np.array([[0, 2, -1]]))
        np.testing.assert_array_equal(out, [[0, 4, -1]])

    def test_empty_shard_raises(self):
        with pytest.raises(ClusterError):
            ShardMap(np.zeros(10, dtype=int), 2)

    def test_invalid_topology_raises(self):
        with pytest.raises(ClusterError):
            ConsistentHashRing(0)
        with pytest.raises(ClusterError):
            ShardMap(np.array([0, 3]), 2)


class TestRouter:
    def test_round_robin_spreads_load(self):
        router = ReplicaRouter(1, 3)
        picks = [router.route(0, 0.0).replica for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_undetected_death_bounces_with_penalty(self):
        plan = FaultPlan([FaultEvent(FAULT_WORKER_LOSS, 1.0,
                                     target=0)])
        policy = RouterPolicy(heartbeat_seconds=1.0,
                              failover_penalty_seconds=0.5)
        router = ReplicaRouter(1, 2, policy=policy, plan=plan)
        # At t=1.5 replica 0 is dead but not yet masked.
        decision = router.route(0, 1.5)
        assert decision.replica == 1
        assert decision.n_failovers == 1
        assert decision.penalty_seconds == pytest.approx(0.5)

    def test_masked_death_routes_clean(self):
        plan = FaultPlan([FaultEvent(FAULT_WORKER_LOSS, 1.0,
                                     target=0)])
        policy = RouterPolicy(heartbeat_seconds=0.1)
        router = ReplicaRouter(1, 2, policy=policy, plan=plan)
        for _ in range(4):
            decision = router.route(0, 5.0)
            assert decision.replica == 1
            assert decision.n_failovers == 0

    def test_whole_shard_dead_is_flagged(self):
        plan = FaultPlan([
            FaultEvent(FAULT_WORKER_LOSS, 1.0, target=0),
            FaultEvent(FAULT_WORKER_LOSS, 1.0, target=1),
        ])
        router = ReplicaRouter(1, 2, plan=plan)
        assert router.route(0, 10.0).shard_dead

    def test_out_of_range_targets_fold_deterministically(self):
        plan = FaultPlan([FaultEvent(FAULT_WORKER_LOSS, 1.0,
                                     target=99)])
        a = ReplicaRouter(2, 2, plan=plan)
        b = ReplicaRouter(2, 2, plan=plan)
        assert a.death_at == b.death_at
        assert a.n_loss_events == 1

    def test_sibling_excludes_and_respects_death(self):
        plan = FaultPlan([FaultEvent(FAULT_WORKER_LOSS, 1.0,
                                     target=1)])
        router = ReplicaRouter(1, 3, plan=plan)
        assert router.sibling(0, (0,), 5.0) == 2
        assert router.sibling(0, (0, 2), 5.0) is None

    def test_partition_windows_sorted(self):
        plan = FaultPlan([
            FaultEvent(FAULT_NETWORK_PARTITION, 2.0, magnitude=0.5),
            FaultEvent(FAULT_NETWORK_PARTITION, 0.5, magnitude=0.25),
        ])
        router = ReplicaRouter(1, 1)
        assert router.partition_windows(plan) == [
            (0.5, 0.75), (2.0, 2.5)]


class TestClusterReplay:
    def test_replay_serves_everything_without_faults(self, cluster,
                                                     pool):
        trace = synthetic_trace(pool, 30, mean_qps=2000.0, seed=5)
        report = cluster.replay(trace)
        assert report.n_served == 30
        assert report.n_partial == 0 and report.n_failed == 0
        for outcome in report.outcomes:
            assert outcome.status is ClusterStatus.SERVED
            assert outcome.n_shards_answered == 4
            assert (outcome.ids >= 0).all()
            assert outcome.completion_seconds > outcome.arrival_seconds

    def test_merged_ids_are_globally_consistent(self, cluster, corpus,
                                                pool):
        trace = synthetic_trace(pool, 10, mean_qps=2000.0, seed=6)
        report = cluster.replay(trace)
        for pos, outcome in enumerate(report.outcomes):
            # Merged distances must match the actual global (squared
            # euclidean, the repo's metric convention) distances.
            queries = trace[pos].queries
            diffs = (corpus[outcome.ids[0]].astype(np.float64)
                     - queries[0])
            np.testing.assert_allclose((diffs ** 2).sum(axis=1),
                                       outcome.dists[0], rtol=1e-4)

    def test_single_shard_cluster_matches_serve_engine(self, corpus,
                                                       pool):
        trace = synthetic_trace(pool, 20, mean_qps=2000.0, seed=7)
        single = ClusterEngine(corpus, n_shards=1, n_replicas=1,
                               params=PARAMS)
        creport = single.replay(trace)
        # The one serving-graph rule: the shard graph is the family's own
        # build, so a one-shard cluster serves exactly this graph.
        graph = get_backend("nsw").serving_graphs((corpus,), 8, 16)[0]
        sreport = ServeEngine(graph, corpus, PARAMS).replay(trace)
        for cout, sout in zip(creport.outcomes, sreport.outcomes):
            # Normalize the engine's rows to the merge's (dist, id)
            # order before comparing.
            order = np.lexsort((sout.ids.astype(np.int64),
                                sout.dists.astype(np.float64)), axis=1)
            want = np.take_along_axis(sout.ids.astype(np.int64),
                                      order, axis=1)
            np.testing.assert_array_equal(cout.ids, want)

    def test_each_shard_engine_owns_a_fresh_cache(self, corpus):
        cached = ClusterEngine(corpus, n_shards=2, n_replicas=1,
                               params=PARAMS, cache_capacity=16)
        first, second = cached._make_engine(0), cached._make_engine(0)
        assert first.cache is not second.cache
        assert first.cache.owner is first
        assert second.cache.owner is second
        assert len(second.cache) == 0 and second.cache.capacity == 16

    def test_replica_caches_serve_the_uncached_answers(self, corpus, pool,
                                                       monkeypatch):
        """Repeated queries hit a replica's cache, and every hit is the
        answer the same cluster gives without a cache."""
        trace = synthetic_trace(pool, 40, mean_qps=2000.0,
                                repeat_fraction=0.8, seed=9)
        plain = ClusterEngine(corpus, n_shards=2, n_replicas=2,
                              params=PARAMS).replay(trace)
        hits = []
        real_get = ResultCache.get

        def counting_get(cache, query):
            found = real_get(cache, query)
            hits.append(found is not None)
            return found

        monkeypatch.setattr(ResultCache, "get", counting_get)
        cached = ClusterEngine(corpus, n_shards=2, n_replicas=2,
                               params=PARAMS,
                               cache_capacity=64).replay(trace)
        assert any(hits)
        for a, b in zip(plain.outcomes, cached.outcomes):
            assert a.status is b.status is ClusterStatus.SERVED
            np.testing.assert_array_equal(a.ids, b.ids)
            np.testing.assert_array_equal(a.dists, b.dists)

    def test_report_reconciles_with_metrics(self, cluster, pool):
        trace = synthetic_trace(pool, 25, mean_qps=2000.0, seed=8)
        registry = MetricsRegistry()
        report = cluster.replay(trace, metrics=registry)
        report.verify_against_metrics()
        assert registry.value("cluster.requests") == 25
        assert registry.value("cluster.shard_queries") == 25 * 4

    def test_tracer_output_is_valid_and_shaped(self, cluster, pool):
        trace = synthetic_trace(pool, 15, mean_qps=2000.0, seed=9)
        tracer = SpanTracer()
        cluster.replay(trace, tracer=tracer)
        tracer.finish()
        tracer.validate()
        roots = tracer.roots()
        assert [r.name for r in roots] == ["cluster.replay"]
        assert len(tracer.find("cluster.request")) == 15
        assert tracer.find("cluster.replica")
        assert len(tracer.find("cluster.merge")) == 15

    def test_out_of_order_trace_raises(self, cluster, pool):
        reqs = [
            QueryRequest(request_id=0, queries=pool[:1],
                         arrival_seconds=1.0),
            QueryRequest(request_id=1, queries=pool[1:2],
                         arrival_seconds=0.5),
        ]
        with pytest.raises(ClusterError):
            cluster.replay(reqs)

    def test_dimension_mismatch_raises(self, cluster):
        req = QueryRequest(request_id=0,
                           queries=np.zeros((1, 7), dtype=np.float32),
                           arrival_seconds=0.0)
        with pytest.raises(ClusterError):
            cluster.replay([req])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, "dtype"])
    def test_hostile_queries_rejected_with_the_trace(self, cluster, pool,
                                                     bad):
        hostile = pool[2:4].copy()
        if bad == "dtype":
            hostile = hostile.astype(np.float64)
            message = "request 5: queries are float64"
        else:
            hostile[0, 1] = bad
            message = "request 5: queries contain NaN or infinite"
        trace = [QueryRequest(request_id=0, queries=pool[:2],
                              arrival_seconds=0.0),
                 QueryRequest(request_id=5, queries=hostile,
                              arrival_seconds=0.5)]
        tracer = SpanTracer()
        with pytest.raises(ClusterError, match=message):
            cluster.replay(trace, tracer=tracer)
        assert len(tracer.spans) == 0

    @pytest.mark.parametrize("topology, message", [
        ({"n_shards": 2.5}, "n_shards must be an integer, got 2.5"),
        ({"n_replicas": 1.7}, "n_replicas must be an integer, got 1.7"),
        ({"n_shards": True}, "n_shards must be an integer, got True"),
        ({"n_replicas": True}, "n_replicas must be an integer, got True"),
        ({"n_replicas": 0}, "n_replicas must be >= 1, got 0"),
        ({"cache_capacity": -1}, "cache_capacity must be >= 0, got -1"),
        ({"cache_capacity": 8.5},
         "cache_capacity must be an integer, got 8.5"),
    ])
    def test_topology_is_never_truncated(self, corpus, topology, message):
        """A count that is not an integer (or a bool standing in for
        one) is refused, not truncated; a negative cache is refused
        rather than run as no cache."""
        kwargs = {"n_shards": 2, "n_replicas": 1, **topology}
        with pytest.raises(ClusterError, match=re.escape(message)):
            ClusterEngine(corpus, params=PARAMS, **kwargs)

    def test_undersized_shards_rejected_at_construction(self):
        tiny = gaussian_mixture(20, 8, seed=3)
        with pytest.raises(ClusterError):
            ClusterEngine(tiny, n_shards=8, n_replicas=1,
                          params=SearchParams(k=8, l_n=32))

    def test_pool_beyond_shared_memory_rejected_at_construction(self,
                                                                 corpus):
        """Before any shard graph is built, not by the first replay."""
        with pytest.raises(ClusterError, match=(
                "l_n=4096 .*d_max=16 .*limit of 49152 B")):
            ClusterEngine(corpus, n_shards=2, n_replicas=1,
                          params=SearchParams(k=10, l_n=4096))

    def test_network_partition_delays_scatter(self, corpus, pool):
        trace = synthetic_trace(pool, 5, mean_qps=2000.0, seed=10)
        horizon = trace[-1].arrival_seconds + 1.0
        plan = FaultPlan([FaultEvent(FAULT_NETWORK_PARTITION, 0.0,
                                     magnitude=horizon)])
        slow = ClusterEngine(corpus, n_shards=2, n_replicas=1,
                             params=PARAMS, faults=plan)
        fast = ClusterEngine(corpus, n_shards=2, n_replicas=1,
                             params=PARAMS)
        assert (slow.replay(trace).p99_latency
                > fast.replay(trace).p99_latency)


class TestWideSearches:
    """One lane store per replay over every shard, shared by the replica
    slots, their fatal-fault re-dispatches and the sibling retry lane:
    under chaos every (shard, query) is traversed at most once per
    replay, all shards in one call."""

    @staticmethod
    def _chaos(corpus, pool, plan_name, seed):
        trace = synthetic_trace(pool, 40, mean_qps=2500.0,
                                queries_per_request=2, seed=seed)
        plan = named_fault_plan(
            plan_name, trace[-1].arrival_seconds + 0.05, seed=seed,
            n_workers=8)
        engine = ClusterEngine(corpus, n_shards=4, n_replicas=2,
                               params=PARAMS, faults=plan,
                               retry=RetryPolicy(max_retries=1))
        return engine, trace

    @pytest.mark.parametrize("plan_name, seed", [("replica-loss", 5),
                                                 ("aggressive", 0)])
    def test_each_shard_traverses_each_query_once(
            self, corpus, pool, monkeypatch, plan_name, seed):
        calls = []
        real = pipeline.ganns_search

        def recording(graph, points, queries, *args, entry=0, **kwargs):
            entries = np.broadcast_to(entry, len(queries)).tolist()
            calls.append([(int(first), row.tobytes())
                          for first, row in zip(entries, queries)])
            return real(graph, points, queries, *args, entry=entry,
                        **kwargs)

        monkeypatch.setattr(pipeline, "ganns_search", recording)
        engine, trace = self._chaos(corpus, pool, plan_name, seed)
        tracer = SpanTracer()
        report = engine.replay(trace, tracer=tracer)
        tracer.finish()
        stages = [event.attributes.get("stage") for span in tracer.spans
                  for event in span.events
                  if event.name == "cluster.failover"]
        # replica-loss bounces requests at routing; the aggressive
        # plan's kernel faults exhaust a slot's retries, which sends
        # the request down the sibling retry lane.
        assert report.n_failovers > 0
        assert ("retry" in stages) == (plan_name == "aggressive")
        # One wide call over the stacked shard graphs; a lane's entry
        # is its shard's first row in the stack, so (entry, row) names
        # a (shard, query) and none is searched twice.
        (call,) = calls
        assert len(call) == len(set(call))
        starts = np.cumsum([0, *engine.shard_map.shard_sizes()[:-1]])
        assert {first for first, _ in call} == set(starts.tolist())

    def test_the_stores_die_with_their_replay(self, corpus, pool,
                                              traversed):
        engine, trace = self._chaos(corpus, pool, "replica-loss", 5)
        first = engine.replay(trace)
        lanes = sum(n for _, n in traversed)
        second = engine.replay(trace)
        assert sum(n for _, n in traversed) == 2 * lanes
        assert first.to_bytes() == second.to_bytes()

    @pytest.mark.parametrize("width", [None, 4])
    def test_chaos_replays_to_the_narrow_bytes(self, corpus, pool, width):
        engine, trace = self._chaos(corpus, pool, "aggressive", 0)

        def replay():
            tracer, metrics = SpanTracer(), MetricsRegistry()
            report = engine.replay(trace, tracer=tracer, metrics=metrics)
            tracer.finish()
            report.verify_against_metrics()
            return (report.to_bytes(), tracer.to_json_bytes(),
                    metrics.to_json_bytes())
        with host_width(width):
            wide = replay()
        with narrow_dispatch():
            assert replay() == wide


class TestShardGroundTruth:
    """Regression: shards smaller than k must clamp and pad, so recall
    denominators count only real neighbors."""

    def test_merged_shard_truth_equals_global_truth(self, corpus,
                                                    pool):
        assignment = ConsistentHashRing(4).assign(len(corpus))
        per_shard = shard_ground_truth(corpus, pool[:16], assignment,
                                       k=10)
        merged_ids, merged_dists = merge_topk(
            10, [s["ids"] for s in per_shard],
            [s["dists"] for s in per_shard])
        want_ids, want_dists = exact_knn(corpus, pool[:16], 10,
                                         return_distances=True)
        np.testing.assert_array_equal(merged_ids, want_ids)
        np.testing.assert_allclose(merged_dists, want_dists,
                                   rtol=1e-6)

    def test_shard_smaller_than_k_pads_instead_of_raising(self):
        points = gaussian_mixture(30, 8, seed=4)
        # Shard 1 holds only 3 points — fewer than k=5.
        assignment = np.zeros(30, dtype=np.int64)
        assignment[:3] = 1
        queries = gaussian_mixture(6, 8, seed=5)
        per_shard = shard_ground_truth(points, queries, assignment,
                                       k=5)
        small = per_shard[1]
        assert small["ids"].shape == (6, 5)
        assert (small["ids"][:, :3] >= 0).all()
        assert (small["ids"][:, 3:] == -1).all()
        assert np.isinf(small["dists"][:, 3:]).all()
        # Real entries reference the shard's own members, globally.
        assert set(np.unique(small["ids"][:, :3])) <= {0, 1, 2}

    def test_padded_truth_keeps_recall_denominator_honest(self):
        points = gaussian_mixture(30, 8, seed=4)
        assignment = np.zeros(30, dtype=np.int64)
        assignment[:2] = 1
        queries = gaussian_mixture(4, 8, seed=5)
        per_shard = shard_ground_truth(points, queries, assignment,
                                       k=6)
        truth = per_shard[1]["ids"]
        # A perfect answer over the 2 real neighbors scores 1.0, not
        # 2/6 — the padding must not inflate the denominator.
        recall = recall_per_query(truth, truth)
        np.testing.assert_allclose(recall, 1.0)

    def test_invalid_inputs_raise(self, corpus):
        from repro.errors import ConstructionError
        with pytest.raises(ConstructionError):
            shard_ground_truth(corpus, corpus[:2],
                               np.zeros(3, dtype=int), 4)
        with pytest.raises(ConstructionError):
            shard_ground_truth(corpus, corpus[:2],
                               np.zeros(len(corpus), dtype=int), 0)
