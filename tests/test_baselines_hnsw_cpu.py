"""Tests for CPU HNSW construction and the ID-shuffle machinery."""

import numpy as np
import pytest

from repro.baselines.hnsw_cpu import build_hnsw_cpu
from repro.core.hnsw import (
    draw_levels,
    layer_sizes_from_levels,
    shuffled_order_from_levels,
)
from repro.errors import ConstructionError
from repro.graphs.validation import validate_graph
from tests.oracles.hnsw_descent import hnsw_entry_descent


class TestDrawLevels:
    def test_shape_and_range(self):
        levels = draw_levels(1000, d_min=16, seed=0)
        assert levels.shape == (1000,)
        assert levels.min() >= 0
        assert levels.max() < 16

    def test_geometric_decay(self):
        """Layer populations shrink roughly geometrically — the HNSW
        hierarchy shape."""
        levels = draw_levels(20_000, d_min=16, seed=1)
        sizes = layer_sizes_from_levels(levels)
        assert sizes[0] == 20_000
        for above, below in zip(sizes[1:], sizes[:-1]):
            assert above < below

    def test_deterministic(self):
        assert np.array_equal(draw_levels(100, 16, seed=5),
                              draw_levels(100, 16, seed=5))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConstructionError):
            draw_levels(0, 16)
        with pytest.raises(ConstructionError, match="d_min"):
            draw_levels(10, 1)


class TestShuffledOrder:
    def test_levels_non_increasing_after_shuffle(self):
        levels = draw_levels(500, 8, seed=2)
        order = shuffled_order_from_levels(levels, seed=2)
        reordered = levels[order]
        assert (np.diff(reordered) <= 0).all()

    def test_order_is_permutation(self):
        levels = draw_levels(200, 8, seed=3)
        order = shuffled_order_from_levels(levels, seed=3)
        assert sorted(order.tolist()) == list(range(200))

    def test_prefix_property(self):
        """After the shuffle, layer i's members are exactly the first
        size_i new ids — the paper's addressing trick."""
        levels = draw_levels(300, 8, seed=4)
        order = shuffled_order_from_levels(levels, seed=4)
        sizes = layer_sizes_from_levels(levels)
        reordered = levels[order]
        for layer, size in enumerate(sizes):
            assert (reordered[:size] >= layer).all()
            assert (reordered[size:] < layer).all()


class TestBuildHnswCpu:
    @pytest.fixture(scope="class")
    def built(self, small_points):
        return build_hnsw_cpu(small_points[:400], d_min=4, d_max=8, seed=0)

    def test_layer_structure(self, built):
        graph = built.graph
        assert graph.n_layers >= 2
        assert graph.layer_sizes[0] == 400
        for layer in graph.layers:
            validate_graph(layer)

    def test_bottom_layer_covers_all_points(self, built):
        bottom = built.graph.bottom
        assert (bottom.degrees[:400] > 0).all()

    def test_upper_layers_only_touch_their_prefix(self, built):
        for layer_idx in range(1, built.graph.n_layers):
            layer = built.graph.layers[layer_idx]
            size = built.graph.layer_sizes[layer_idx]
            assert (layer.degrees[size:] == 0).all()
            live = layer.neighbor_ids[layer.neighbor_ids >= 0]
            if live.size:
                assert live.max() < size

    def test_order_is_permutation(self, built):
        assert sorted(built.order.tolist()) == list(range(400))

    def test_counters_accumulate_across_layers(self, built, small_points):
        """Every layer's work lands on the one clock: the seconds are the
        per-layer sequential tallies priced and summed."""
        from repro.baselines.cpu_cost import DEFAULT_CPU
        from tests.oracles.nsw_sequential import build_hnsw_sequential
        _, _, counters = build_hnsw_sequential(small_points[:400], 4, 8)
        assert len(counters) == built.graph.n_layers
        assert sum(c.n_distances for c in counters) > 400
        flops = 3 * small_points.shape[1]
        assert built.seconds == sum(DEFAULT_CPU.seconds(c, flops)
                                    for c in counters)

    def test_rejects_empty(self):
        with pytest.raises(ConstructionError, match="non-empty"):
            build_hnsw_cpu(np.zeros((0, 3)), 4, 8)


class TestHnswSearch:
    def test_descent_returns_valid_vertex(self, small_points):
        built = build_hnsw_cpu(small_points[:400], d_min=4, d_max=8, seed=0)
        shuffled = small_points[:400][built.order]
        entry, n_dist = hnsw_entry_descent(built.graph, shuffled,
                                           small_points[401])
        assert 0 <= entry < 400
        assert n_dist >= 1

    def test_search_high_recall(self, small_points, small_queries):
        from repro.baselines.beam import beam_search_lanes
        from repro.datasets.ground_truth import exact_knn
        points = small_points[:400]
        built = build_hnsw_cpu(points, d_min=8, d_max=16, seed=0)
        shuffled = points[built.order]
        gt = exact_knn(shuffled, small_queries[:10], 5)
        hits = 0
        for row in range(10):
            entry, _ = hnsw_entry_descent(built.graph, shuffled,
                                          small_queries[row])
            result = beam_search_lanes(built.graph.bottom, shuffled,
                                       small_queries[row:row + 1], 5, 32,
                                       entries=entry)
            hits += len(np.intersect1d(result.ids[0], gt[row]))
        assert hits / 50 > 0.8
