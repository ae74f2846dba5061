"""Tests for the cycle cost formulas (Section III-C complexity shapes)."""

import pytest

from repro.errors import ConfigurationError
from repro.gpusim.costs import CostTable, DEFAULT_COSTS


class TestCostTableValidation:
    def test_default_table_valid(self):
        assert DEFAULT_COSTS.alu_cycles > 0

    def test_rejects_non_positive(self):
        with pytest.raises(ConfigurationError, match="shuffle_cycles"):
            CostTable(shuffle_cycles=0)


class TestDistanceCosts:
    def test_vector_load_scales_inversely_with_threads(self):
        c = DEFAULT_COSTS
        t4 = c.vector_load_cycles(128, 4)
        t32 = c.vector_load_cycles(128, 32)
        assert t4 > t32
        # Dominated by the per-word streaming term: near 8x between 4 and
        # 32 threads, softened by the fixed overhead.
        assert 3.0 < t4 / t32 < 8.0

    def test_distance_compute_includes_warp_reduction(self):
        c = DEFAULT_COSTS
        base = c.distance_compute_cycles(32, 32)
        # 1 dim per thread -> 2 cycles compute + 5 shuffle steps.
        assert base == pytest.approx(2 + 5 * c.shuffle_cycles)

    def test_bulk_distance_linear_in_candidates(self):
        c = DEFAULT_COSTS
        one = c.bulk_distance_cycles(1, 128, 32)
        many = c.bulk_distance_cycles(10, 128, 32)
        assert many == pytest.approx(10 * one)

    def test_bulk_distance_zero_candidates(self):
        assert DEFAULT_COSTS.bulk_distance_cycles(0, 128, 32) == 0.0

    def test_distance_grows_with_dimensionality(self):
        c = DEFAULT_COSTS
        assert (c.single_distance_cycles(960, 32)
                > c.single_distance_cycles(128, 32)
                > c.single_distance_cycles(32, 32))


class TestGannsPhaseCosts:
    """The phase costs must follow the paper's complexity table."""

    def test_candidate_locate_is_ln_over_nt(self):
        c = DEFAULT_COSTS
        assert (c.ganns_candidate_locate_cycles(64, 32)
                == 2 * c.ganns_candidate_locate_cycles(32, 32))

    def test_locate_parallelizes_with_threads(self):
        c = DEFAULT_COSTS
        assert (c.ganns_candidate_locate_cycles(128, 32)
                < c.ganns_candidate_locate_cycles(128, 4))

    def test_sort_cost_matches_log_squared(self):
        c = DEFAULT_COSTS
        # log2(32)=5 -> 15 stages; 16 pairs/stage over 32 threads -> 1 round.
        assert (c.ganns_sort_cycles(32, 32)
                == 15 * 1 * c.compare_exchange_cycles)

    def test_sort_trivial_sizes(self):
        assert DEFAULT_COSTS.ganns_sort_cycles(1, 32) == 0.0

    def test_merge_cost_log_linear(self):
        c = DEFAULT_COSTS
        small = c.ganns_merge_cycles(32, 32, 32)
        big = c.ganns_merge_cycles(128, 32, 32)
        assert big > small

    def test_structure_cycles_is_sum_of_phases(self):
        c = DEFAULT_COSTS
        total = c.ganns_structure_cycles(64, 32, 32)
        parts = (c.ganns_candidate_locate_cycles(64, 32)
                 + c.ganns_explore_cycles(32, 32)
                 + c.ganns_lazy_check_cycles(64, 32, 32)
                 + c.ganns_sort_cycles(32, 32)
                 + c.ganns_merge_cycles(64, 32, 32))
        assert total == pytest.approx(parts)

    def test_structure_parallelizes_with_threads(self):
        """GANNS's key property: structure ops speed up with n_t."""
        c = DEFAULT_COSTS
        slow = c.ganns_structure_cycles(64, 32, 4)
        fast = c.ganns_structure_cycles(64, 32, 32)
        assert slow / fast > 3.0


class TestSongStageCosts:
    def test_locate_serial_in_degree(self):
        c = DEFAULT_COSTS
        assert (c.song_locate_cycles(32, 64)
                > c.song_locate_cycles(16, 64))

    def test_locate_does_not_parallelize(self):
        """SONG's host-thread cost has no n_t argument at all: the paper's
        bottleneck is structural, not tunable."""
        c = DEFAULT_COSTS
        import inspect
        params = inspect.signature(c.song_locate_cycles).parameters
        assert "n_threads" not in params

    def test_update_log_in_queue_length(self):
        c = DEFAULT_COSTS
        assert (c.song_update_cycles(16, 128)
                > c.song_update_cycles(16, 8))

    def test_song_structure_dominates_ganns_structure(self):
        """The core claim: per iteration, SONG's serialized structure work
        far exceeds GANNS's parallel structure work at n_t = 32."""
        c = DEFAULT_COSTS
        song = c.song_locate_cycles(32, 64) + c.song_update_cycles(16, 64)
        ganns = c.ganns_structure_cycles(64, 32, 32)
        assert song / ganns > 3.0


class TestConstructionCosts:
    def test_backward_insert_scales_with_dmax(self):
        c = DEFAULT_COSTS
        assert (c.backward_insert_cycles(128, 32)
                > c.backward_insert_cycles(32, 32))

    def test_bitonic_sort_cycles_grow_superlinearly(self):
        c = DEFAULT_COSTS
        small = c.bitonic_sort_cycles(256, 32)
        big = c.bitonic_sort_cycles(1024, 32)
        assert big > 4 * small  # n log^2 n growth

    def test_prefix_sum_cheaper_than_sort(self):
        c = DEFAULT_COSTS
        assert (c.prefix_sum_cycles(1024, 32)
                < c.bitonic_sort_cycles(1024, 32))

    def test_adjacency_merge_grows_with_batch(self):
        c = DEFAULT_COSTS
        assert (c.adjacency_merge_cycles(32, 64, 32)
                > c.adjacency_merge_cycles(32, 4, 32))
