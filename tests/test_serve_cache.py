"""Tests for the LRU result cache: keys, eviction, exactness guarantees."""

from collections import OrderedDict

import numpy as np
import pytest

from repro.core.params import SearchParams
from repro.errors import ConfigurationError
from repro.serve.cache import ResultCache, quantize_query

SIG = SearchParams(k=5, l_n=32).signature()


def _entry(seed, d=8, k=5):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=d), rng.integers(0, 100, size=k),
            rng.random(size=k))


class TestQuantizeQuery:
    def test_same_vector_same_key(self):
        q = np.array([0.1234567, -2.5])
        assert quantize_query(q) == quantize_query(q.copy())

    def test_collapses_sub_step_noise(self):
        a = np.array([0.12345678])
        b = np.array([0.12345681])
        assert quantize_query(a) == quantize_query(b)

    def test_distinguishes_above_step(self):
        a = np.array([0.123456])
        b = np.array([0.123458])
        assert quantize_query(a) != quantize_query(b)

    def test_negative_zero_normalised(self):
        assert quantize_query(np.array([-0.0])) == \
            quantize_query(np.array([0.0]))

    def test_float32_and_float64_of_same_value_share_key(self):
        a = np.array([0.5, 0.25], dtype=np.float32)
        b = np.array([0.5, 0.25], dtype=np.float64)
        assert quantize_query(a) == quantize_query(b)


class TestResultCacheBasics:
    def test_miss_then_hit(self):
        cache = ResultCache(capacity=4)
        q, ids, dists = _entry(0)
        assert cache.get(q, SIG) is None
        cache.put(q, SIG, ids, dists)
        found = cache.get(q, SIG)
        assert found is not None
        assert np.array_equal(found[0], ids)
        assert np.array_equal(found[1], dists)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_different_params_signature_misses(self):
        cache = ResultCache(capacity=4)
        q, ids, dists = _entry(1)
        cache.put(q, SIG, ids, dists)
        other = SearchParams(k=5, l_n=64).signature()
        assert cache.get(q, other) is None

    def test_capacity_zero_disables(self):
        cache = ResultCache(capacity=0)
        q, ids, dists = _entry(2)
        cache.put(q, SIG, ids, dists)
        assert len(cache) == 0
        assert cache.get(q, SIG) is None

    def test_rejects_negative_capacity(self):
        with pytest.raises(ConfigurationError, match="capacity"):
            ResultCache(capacity=-1)

    def test_put_copies_results(self):
        """Mutating the caller's arrays must not corrupt cached entries."""
        cache = ResultCache(capacity=4)
        q, ids, dists = _entry(3)
        cache.put(q, SIG, ids, dists)
        ids[:] = -7
        found = cache.get(q, SIG)
        assert not np.array_equal(found[0], ids)


class TestLruEviction:
    def test_evicts_least_recently_used(self):
        cache = ResultCache(capacity=2)
        (qa, ia, da), (qb, ib, db), (qc, ic, dc) = (
            _entry(10), _entry(11), _entry(12))
        cache.put(qa, SIG, ia, da)
        cache.put(qb, SIG, ib, db)
        cache.get(qa, SIG)            # refresh A; B is now LRU
        cache.put(qc, SIG, ic, dc)    # evicts B
        assert cache.get(qa, SIG) is not None
        assert cache.get(qb, SIG) is None
        assert cache.get(qc, SIG) is not None
        assert cache.stats.evictions == 1

    def test_reinserting_same_key_does_not_grow(self):
        cache = ResultCache(capacity=2)
        q, ids, dists = _entry(13)
        cache.put(q, SIG, ids, dists)
        cache.put(q, SIG, ids, dists)
        assert len(cache) == 1
        assert cache.stats.evictions == 0

    @pytest.mark.parametrize("capacity", [1, 2, 3])
    def test_matches_a_reference_lru(self, capacity):
        """A long random get/put run over a few keys hits, misses and
        evicts exactly as a plain LRU of ``capacity`` keys would."""
        rng = np.random.default_rng(capacity)
        ops = zip(rng.random(500) < 0.5, rng.integers(0, 5, 500))
        cache = ResultCache(capacity=capacity)
        model = OrderedDict()
        entries = [_entry(100 + key) for key in range(5)]
        gets = evictions = 0
        for is_put, key in ops:
            q, ids, dists = entries[key]
            if is_put:
                cache.put(q, SIG, ids, dists)
                model[key] = ids
                model.move_to_end(key)
                if len(model) > capacity:
                    model.popitem(last=False)
                    evictions += 1
            else:
                gets += 1
                found = cache.get(q, SIG)
                assert (found is None) == (key not in model)
                if key in model:
                    model.move_to_end(key)
                    assert np.array_equal(found[0], model[key])
        assert len(cache) == len(model)
        assert cache.stats.hits + cache.stats.misses == gets
        assert cache.stats.evictions == evictions
        assert cache.stats.collisions == 0


class TestCacheStatsSurfacedInServeReport:
    def _engine_and_trace(self, graph, points, cache):
        """Two spaced single-query requests landing in one cache bucket."""
        from repro.serve import BatchPolicy, QueryRequest, ServeEngine

        engine = ServeEngine(
            graph, points, SearchParams(k=5, l_n=32),
            policy=BatchPolicy(max_batch=64, max_wait_seconds=1e-4,
                               max_queue=256),
            cache=cache)
        # b differs from a by one ulp in one coordinate: same bucket,
        # different vector.
        a = points[0].copy()
        a[0] = 0.5
        b = a.copy()
        b[0] = np.nextafter(a[0], a.dtype.type(1))
        trace = [QueryRequest(request_id=0, queries=a[None, :],
                              arrival_seconds=0.0),
                 QueryRequest(request_id=1, queries=b[None, :],
                              arrival_seconds=10e-3)]
        return engine, trace

    def test_collision_rejects_counted_through_the_report(
            self, small_graph, small_points):
        cache = ResultCache(capacity=64)
        engine, trace = self._engine_and_trace(small_graph, small_points,
                                               cache)
        assert quantize_query(trace[0].queries[0]) == \
            quantize_query(trace[1].queries[0])
        report = engine.replay(trace)

        # The colliding lookup must recompute, never serve the cached
        # neighbor list of a different vector — and the reject must be
        # visible in the report's cache statistics.
        assert report.n_cache_hits == 0
        assert report.cache_stats is cache.stats
        assert report.cache_stats.collisions >= 1
        assert report.cache_stats.insertions >= 2
        assert "collision-rejects" in report.summary()

    def test_exact_repeat_still_hits_and_counts(self, small_graph,
                                                small_points):
        from repro.serve import QueryRequest

        cache = ResultCache(capacity=64)
        engine, trace = self._engine_and_trace(small_graph, small_points,
                                               cache)
        # The bucket's current occupant is the *latest* insertion
        # (request 1's vector displaced request 0's), so only an exact
        # repeat of that vector hits.
        repeat = QueryRequest(request_id=2,
                              queries=trace[1].queries.copy(),
                              arrival_seconds=20e-3)
        report = engine.replay(trace + [repeat])
        assert report.n_cache_hits == 1
        assert report.cache_stats.hits >= 1
        assert "hits" in report.summary()


class TestCollisionSafety:
    def test_bucket_collision_is_never_served(self):
        """Two distinct vectors in one quantization bucket: the second
        lookup must miss (and count a collision), never return the first
        vector's neighbors."""
        cache = ResultCache(capacity=4)
        a = np.array([0.5000001])
        b = np.array([0.5000002])  # same bucket at 6 decimals
        assert quantize_query(a) == quantize_query(b)
        _, ids, dists = _entry(20, d=1)
        cache.put(a, SIG, ids, dists)
        assert cache.get(b, SIG) is None
        assert cache.stats.collisions == 1
        # The exact original still hits.
        assert cache.get(a, SIG) is not None
