"""Tests for the LRU result cache: keys, eviction, one owning engine."""

from collections import OrderedDict

import numpy as np
import pytest

from repro import build_nsw_cpu
from repro.core.params import SearchParams
from repro.datasets.synthetic import gaussian_mixture
from repro.errors import ConfigurationError, ServeError
from repro.serve import BatchPolicy, QueryRequest, ServeEngine
from repro.serve.cache import ResultCache


def _entry(seed, d=8, k=5):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=d), rng.integers(0, 100, size=k),
            rng.random(size=k))


class TestKeys:
    def test_negative_zero_shares_the_positive_zero_entry(self):
        cache = ResultCache(capacity=4)
        _, ids, dists = _entry(0, d=2)
        cache.put(np.array([-0.0, 1.5]), ids, dists)
        found = cache.get(np.array([0.0, 1.5]))
        assert found is not None and np.array_equal(found[0], ids)

    def test_float32_and_float64_of_same_value_share_key(self):
        cache = ResultCache(capacity=4)
        _, ids, dists = _entry(1, d=2)
        cache.put(np.array([0.5, 0.25], dtype=np.float32), ids, dists)
        assert cache.get(np.array([0.5, 0.25], dtype=np.float64)) \
            is not None

    def test_same_vector_same_key(self):
        """The key is the values alone: a strided view, a contiguous
        copy and a plain list of the same vector find one entry."""
        cache = ResultCache(capacity=4)
        matrix = np.arange(12, dtype=np.float64).reshape(4, 3) / 7.0
        _, ids, dists = _entry(2, d=4)
        cache.put(matrix[:, 1], ids, dists)
        for same in (matrix[:, 1].copy(), list(matrix[:, 1]),
                     matrix.T[1]):
            found = cache.get(same)
            assert found is not None and np.array_equal(found[0], ids)
        assert len(cache) == 1
        assert cache.stats.hits == 3

    def test_nearby_vectors_are_distinct_entries(self):
        """Vectors a rounding step apart are different queries: each
        misses the other's entry, and neither displaces the other."""
        cache = ResultCache(capacity=4)
        a = np.array([0.5000001])
        b = np.array([0.5000002])
        (_, ids_a, dists_a), (_, ids_b, dists_b) = (_entry(20, d=1),
                                                    _entry(21, d=1))
        cache.put(a, ids_a, dists_a)
        assert cache.get(b) is None
        cache.put(b, ids_b, dists_b)
        assert len(cache) == 2
        assert np.array_equal(cache.get(a)[0], ids_a)
        assert np.array_equal(cache.get(b)[0], ids_b)


class TestResultCacheBasics:
    def test_miss_then_hit(self):
        cache = ResultCache(capacity=4)
        q, ids, dists = _entry(0)
        assert cache.get(q) is None
        cache.put(q, ids, dists)
        found = cache.get(q)
        assert found is not None
        assert np.array_equal(found[0], ids)
        assert np.array_equal(found[1], dists)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_capacity_zero_disables(self):
        cache = ResultCache(capacity=0)
        q, ids, dists = _entry(2)
        cache.put(q, ids, dists)
        assert len(cache) == 0
        assert cache.get(q) is None

    def test_rejects_negative_capacity(self):
        with pytest.raises(ConfigurationError, match="capacity"):
            ResultCache(capacity=-1)

    def test_put_copies_results(self):
        """Mutating the caller's arrays must not corrupt cached entries."""
        cache = ResultCache(capacity=4)
        q, ids, dists = _entry(3)
        cache.put(q, ids, dists)
        ids[:] = -7
        found = cache.get(q)
        assert not np.array_equal(found[0], ids)


class TestLruEviction:
    def test_evicts_least_recently_used(self):
        cache = ResultCache(capacity=2)
        (qa, ia, da), (qb, ib, db), (qc, ic, dc) = (
            _entry(10), _entry(11), _entry(12))
        cache.put(qa, ia, da)
        cache.put(qb, ib, db)
        cache.get(qa)            # refresh A; B is now LRU
        cache.put(qc, ic, dc)    # evicts B
        assert cache.get(qa) is not None
        assert cache.get(qb) is None
        assert cache.get(qc) is not None
        assert cache.stats.evictions == 1

    def test_reinserting_same_key_does_not_grow(self):
        cache = ResultCache(capacity=2)
        q, ids, dists = _entry(13)
        cache.put(q, ids, dists)
        cache.put(q, ids, dists)
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
                cache.put(q, ids, dists)
                model[key] = ids
                model.move_to_end(key)
                if len(model) > capacity:
                    model.popitem(last=False)
                    evictions += 1
            else:
                gets += 1
                found = cache.get(q)
                assert (found is None) == (key not in model)
                if key in model:
                    model.move_to_end(key)
                    assert np.array_equal(found[0], model[key])
        assert len(cache) == len(model)
        assert cache.stats.hits + cache.stats.misses == gets
        assert cache.stats.evictions == evictions


class TestCacheStatsSurfacedInServeReport:
    def _engine_and_trace(self, graph, points, cache):
        """Two spaced single-query requests one ulp apart."""
        engine = ServeEngine(
            graph, points, SearchParams(k=5, l_n=32),
            policy=BatchPolicy(max_batch=64, max_wait_seconds=1e-4,
                               max_queue=256),
            cache=cache)
        a = points[0].copy()
        a[0] = 0.5
        b = a.copy()
        b[0] = np.nextafter(a[0], a.dtype.type(1))
        trace = [QueryRequest(request_id=0, queries=a[None, :],
                              arrival_seconds=0.0),
                 QueryRequest(request_id=1, queries=b[None, :],
                              arrival_seconds=10e-3)]
        return engine, trace

    def test_one_ulp_apart_is_searched_afresh(self, small_graph,
                                              small_points):
        cache = ResultCache(capacity=64)
        engine, trace = self._engine_and_trace(small_graph, small_points,
                                               cache)
        report = engine.replay(trace)
        # The second vector is another query: it is searched, never
        # answered with the first one's neighbors, and both stay cached.
        assert report.n_cache_hits == 0
        assert report.cache_stats is cache.stats
        assert report.cache_stats.insertions == 2
        assert len(cache) == 2
        assert "0 evictions" in report.summary()

    def test_exact_repeats_hit_and_count(self, small_graph, small_points):
        cache = ResultCache(capacity=64)
        engine, trace = self._engine_and_trace(small_graph, small_points,
                                               cache)
        repeats = [QueryRequest(request_id=2 + i,
                                queries=req.queries.copy(),
                                arrival_seconds=20e-3 + i * 1e-3)
                   for i, req in enumerate(trace)]
        report = engine.replay(trace + repeats)
        assert report.n_cache_hits == 2
        for first, repeat in zip(report.outcomes[:2], report.outcomes[2:]):
            assert np.array_equal(first.ids, repeat.ids)
            assert np.array_equal(first.dists, repeat.dists)
        assert report.cache_stats.hits == 2
        assert "hits" in report.summary()


class TestOneEnginePerCache:
    """A cache holds one engine's answers, so a second engine (another
    corpus, graph or params) is refused the cache at construction —
    never answered with the first engine's neighbors."""

    @staticmethod
    def _engine(seed, cache):
        points = gaussian_mixture(300, 16, n_clusters=4, seed=seed) \
            + 20.0 * seed
        graph = build_nsw_cpu(points, d_min=8, d_max=16).graph
        return ServeEngine(graph, points, SearchParams(k=5, l_n=32),
                           cache=cache)

    def test_second_engine_over_another_corpus_is_refused(self):
        cache = ResultCache(capacity=64)
        first = self._engine(0, cache)
        queries = first.points[:4] + 0.01
        first.replay([QueryRequest(request_id=i, queries=queries[i:i + 1],
                                   arrival_seconds=i * 1e-2)
                      for i in range(4)])
        assert len(cache) == 4
        with pytest.raises(ServeError, match="another ServeEngine"):
            self._engine(1, cache)
        assert cache.owner is first

    def test_second_engine_with_other_params_is_refused(self):
        """Same graph and corpus, other params: its answers differ
        (``k=3`` against ``k=5``), so it is refused the cache too."""
        cache = ResultCache(capacity=64)
        first = self._engine(0, cache)
        with pytest.raises(ServeError, match="another ServeEngine"):
            ServeEngine(first.graph, first.points,
                        SearchParams(k=3, l_n=32), cache=cache)
        assert cache.owner is first

    def test_owner_keeps_its_cache_across_replays(self):
        cache = ResultCache(capacity=64)
        engine = self._engine(0, cache)
        trace = [QueryRequest(request_id=i, queries=engine.points[i:i + 1],
                              arrival_seconds=i * 1e-2) for i in range(4)]
        cold = engine.replay(trace)
        warm = engine.replay(trace)
        assert cold.n_cache_hits == 0
        assert warm.n_cache_hits == 4
        for a, b in zip(cold.outcomes, warm.outcomes):
            assert np.array_equal(a.ids, b.ids)
            assert np.array_equal(a.dists, b.dists)

    def test_refused_construction_leaves_the_cache_unbound(self):
        cache = ResultCache(capacity=64)
        engine = self._engine(0, None)
        with pytest.raises(ServeError, match="k=400"):
            ServeEngine(engine.graph, engine.points,
                        SearchParams(k=400, l_n=512), cache=cache)
        assert cache.owner is None
        assert self._engine(0, cache).cache is cache
