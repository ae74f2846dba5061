"""Tests for the visited-marking strategies (Section III-A design space)."""

import pytest

from repro.baselines.visited import (
    Bitmap,
    BloomFilter,
    make_visited_set,
)
from repro.errors import ConfigurationError


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
    def test_bloom_false_positives_can_only_lose_candidates(
            self, small_graph, small_points, small_queries):
        """Bloom-filtered SONG never returns wrong distances, but may
        miss neighbors the exact-hash variant finds."""
        from repro.baselines.song import SongParams, song_search
        exact = song_search(small_graph, small_points, small_queries,
                            SongParams(k=10, pq_bound=64))
        bloom = song_search(small_graph, small_points, small_queries,
                            SongParams(k=10, pq_bound=64,
                                       visited_strategy="bloom"))
        from repro.datasets.ground_truth import exact_knn
        from repro.metrics.recall import recall_at_k
        gt = exact_knn(small_points, small_queries, 10)
        assert (recall_at_k(bloom.ids, gt)
                <= recall_at_k(exact.ids, gt) + 1e-9)

    def test_bitmap_costs_more_structure_time(self, small_graph,
                                              small_points, small_queries):
        from repro.baselines.song import SongParams, song_search
        hash_run = song_search(small_graph, small_points,
                               small_queries[:10],
                               SongParams(k=10, pq_bound=32))
        bitmap_run = song_search(small_graph, small_points,
                                 small_queries[:10],
                                 SongParams(k=10, pq_bound=32,
                                            visited_strategy="bitmap"))
        assert (bitmap_run.tracker.total_cycles()
                > hash_run.tracker.total_cycles())

    def test_invalid_strategy_rejected(self):
        from repro.baselines.song import SongParams
        with pytest.raises(ConfigurationError, match="visited_strategy"):
            SongParams(visited_strategy="cuckoo")
