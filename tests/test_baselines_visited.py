"""Tests for the visited-marking strategies (Section III-A design space)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.song import SongParams, song_search
from repro.baselines.visited import (
    Bitmap,
    BloomFilter,
    _push_bounded,
    make_visited_set,
    song_visited_ablation,
)
from repro.datasets.ground_truth import exact_knn
from repro.errors import ConfigurationError
from repro.metrics.recall import recall_at_k


class TestBloomFilter:
    def test_no_false_negatives(self):
        bloom = BloomFilter(n_bits=512)
        for v in range(40):
            bloom.add(v)
        for v in range(40):
            assert v in bloom

    def test_false_positives_exist_when_saturated(self):
        bloom = BloomFilter(n_bits=64, n_hashes=3)
        for v in range(60):
            bloom.add(v)
        hits = sum(1 for v in range(10_000, 10_200) if v in bloom)
        assert hits > 0  # saturated filter must misfire

    def test_memory_is_bits(self):
        assert BloomFilter(n_bits=1024).memory_bytes() == 128

    def test_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            BloomFilter(n_bits=0)
        with pytest.raises(ConfigurationError):
            BloomFilter(n_bits=64, n_hashes=0)


class TestBitmap:
    def test_exact_semantics(self):
        bitmap = Bitmap(n_vertices=100)
        bitmap.add(5)
        assert 5 in bitmap
        assert 6 not in bitmap

    def test_random_access_cost(self):
        bitmap = Bitmap(n_vertices=100)
        bitmap.add(0)
        assert bitmap.cycles == pytest.approx(
            Bitmap.RANDOM_ACCESS_CYCLES)

    def test_memory_scales_with_vertices(self):
        """The Section III-A objection: one bit per dataset point."""
        million = Bitmap(n_vertices=1_000_000)
        assert million.memory_bytes() == 125_000
        # That alone exceeds a 48 KB shared-memory block budget.
        from repro.gpusim.device import QUADRO_P5000
        assert (million.memory_bytes()
                > QUADRO_P5000.shared_mem_per_block_bytes)


class TestFactory:
    @pytest.mark.parametrize("strategy,expected", [
        ("bloom", BloomFilter),
        ("bitmap", Bitmap),
    ])
    def test_dispatch(self, strategy, expected):
        made = make_visited_set(strategy, n_vertices=1000, budget=64)
        assert isinstance(made, expected)

    def test_unknown_strategy(self):
        with pytest.raises(ConfigurationError, match="valid"):
            make_visited_set("trie", 1000, 64)

    def test_cost_comparison_matches_paper_ranking(self):
        """Per-operation cost: SONG's hash (one probe per access, as the
        stage formulas price it) < bitmap (full random access latency)
        for the membership-heavy access pattern — the reason SONG ships
        the hash."""
        from repro.gpusim.costs import DEFAULT_COSTS
        bitmap = make_visited_set("bitmap", 10_000, 64)
        for v in range(0, 6400, 100):
            bitmap.add(v)
            _ = v in bitmap
        per_op_bitmap = bitmap.cycles / 128
        assert DEFAULT_COSTS.hash_probe_cycles < per_op_bitmap


class TestSongIntegration:
    """SONG under the ablation's markings against its hash
    (``song_search``)."""

    def test_bloom_false_positives_can_only_lose_candidates(
            self, small_graph, small_points, small_queries):
        """Bloom-filtered SONG never returns wrong distances, but may
        miss neighbors the exact-hash variant finds."""
        exact = song_search(small_graph, small_points, small_queries,
                            SongParams(k=10, pq_bound=64))
        bloom = song_visited_ablation(small_graph, small_points,
                                      small_queries,
                                      SongParams(k=10, pq_bound=64),
                                      "bloom")
        gt = exact_knn(small_points, small_queries, 10)
        assert (recall_at_k(bloom.ids, gt)
                <= recall_at_k(exact.ids, gt) + 1e-9)

    def test_bitmap_costs_more_structure_time(self, small_graph,
                                              small_points, small_queries):
        params = SongParams(k=10, pq_bound=32)
        hash_run = song_search(small_graph, small_points,
                               small_queries[:10], params)
        bitmap_run = song_visited_ablation(small_graph, small_points,
                                           small_queries[:10], params,
                                           "bitmap")
        assert (bitmap_run.tracker.total_cycles()
                > hash_run.tracker.total_cycles())

    def test_bitmap_searches_as_the_hash_does(self, small_graph,
                                              small_points, small_queries):
        """The bitmap is exact: its traversal is Algorithm 1's."""
        params = SongParams(k=10, pq_bound=32)
        hash_run = song_search(small_graph, small_points, small_queries,
                               params)
        bitmap_run = song_visited_ablation(small_graph, small_points,
                                           small_queries, params, "bitmap")
        assert np.array_equal(bitmap_run.ids, hash_run.ids)
        assert bitmap_run.dists.tobytes() == hash_run.dists.tobytes()
        assert np.array_equal(bitmap_run.iterations, hash_run.iterations)

    def test_invalid_strategy_rejected(self, small_graph, small_points,
                                       small_queries):
        with pytest.raises(ConfigurationError, match="visited strategy"):
            song_visited_ablation(small_graph, small_points,
                                  small_queries, SongParams(), "cuckoo")


class TestVisitedDeletion:
    """SONG's fixed-2k-hash visited-deletion optimization."""

    def test_recall_preserved(self, small_graph, small_points,
                              small_queries):
        gt = exact_knn(small_points, small_queries, 10)
        params = SongParams(k=10, pq_bound=32)
        plain = song_search(small_graph, small_points, small_queries,
                            params)
        deleting = song_visited_ablation(small_graph, small_points,
                                         small_queries, params, "deletion")
        assert recall_at_k(deleting.ids, gt) == pytest.approx(
            recall_at_k(plain.ids, gt), abs=0.05)

    def test_revisits_cost_extra_distances(self, small_graph,
                                           small_points, small_queries):
        """Deleting evicted entries means some vertices are visited (and
        distance-computed) more than once — the memory/work trade."""
        params = SongParams(k=10, pq_bound=16)
        plain = song_search(small_graph, small_points, small_queries,
                            params)
        deleting = song_visited_ablation(small_graph, small_points,
                                         small_queries, params, "deletion")
        assert (deleting.n_distance_computations
                >= plain.n_distance_computations)

    def test_memory_stays_bounded(self, small_graph, small_points,
                                  small_queries):
        """With deletion, H never holds more than |N| + |C| <= 2 x bound
        entries — checked indirectly: the option is exactly what makes
        the paper's 'fixed size 2k' claim true, and the search still
        terminates and returns full results."""
        report = song_visited_ablation(small_graph, small_points,
                                       small_queries[:8],
                                       SongParams(k=5, pq_bound=8),
                                       "deletion")
        assert (report.ids[:, 0] >= 0).all()


#: A push of a ``(dist, id)`` key (few distinct distances, so ties are
#: broken by id) or, as ``None``, a pop of the minimum.
_queue_ops = st.lists(
    st.one_of(st.none(),
              st.tuples(st.integers(0, 6).map(float),
                        st.integers(0, 40))),
    max_size=120)


class TestBoundedQueue:
    """SONG's ``C`` in the ablation: an ascending list of at most
    ``pq_bound`` keys."""

    @given(_queue_ops, st.integers(min_value=1, max_value=12))
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_model(self, operations, bound):
        """Any interleaving of pushes and pops keeps exactly the
        ``bound`` smallest keys: a full queue rejects a key no better
        than its worst and otherwise evicts (and returns) the worst."""
        queue, model = [], []
        for key in operations:
            if key is None:
                if model:
                    smallest = min(model)
                    model.remove(smallest)
                    assert queue.pop(0) == smallest
                continue
            if len(model) == bound and key >= max(model):
                expected = (False, None)
            elif len(model) == bound:
                worst = max(model)
                model.remove(worst)
                model.append(key)
                expected = (True, worst)
            else:
                model.append(key)
                expected = (True, None)
            assert _push_bounded(queue, key, bound) == expected
            assert queue == sorted(model)
            assert len(queue) <= bound
