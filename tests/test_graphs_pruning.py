"""Tests for diversity-based edge pruning."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graphs.adjacency import ProximityGraph
from repro.graphs.pruning import prune_diversify, pruning_stats
from repro.graphs.validation import validate_graph


class TestRuleSemantics:
    def test_redundant_same_direction_edge_dropped(self):
        # v at origin; u1 close; u2 behind u1 in the same direction:
        # δ(u1, u2) < δ(v, u2), so v -> u2 is redundant.
        points = np.array([[0.0], [1.0], [2.0]])
        g = ProximityGraph(3, 4)
        g.insert_edge(0, 1, 1.0)
        g.insert_edge(0, 2, 4.0)  # squared distances
        pruned = prune_diversify(g, points)
        assert np.array_equal(pruned.neighbors(0), [1])

    def test_diverse_directions_kept(self):
        # Two neighbors on opposite sides: both survive.
        points = np.array([[0.0], [1.0], [-1.0]])
        g = ProximityGraph(3, 4)
        g.insert_edge(0, 1, 1.0)
        g.insert_edge(0, 2, 1.0)
        pruned = prune_diversify(g, points)
        assert set(pruned.neighbors(0).tolist()) == {1, 2}

    def test_alpha_controls_aggressiveness(self, small_graph,
                                           small_points):
        mild = prune_diversify(small_graph, small_points, alpha=0.5)
        harsh = prune_diversify(small_graph, small_points, alpha=1.2)
        assert harsh.n_edges() <= mild.n_edges()

    def test_min_degree_guard(self):
        points = np.array([[0.0], [1.0], [2.0], [3.0]])
        g = ProximityGraph(4, 4)
        g.insert_edge(0, 1, 1.0)
        g.insert_edge(0, 2, 4.0)
        g.insert_edge(0, 3, 9.0)
        pruned = prune_diversify(g, points, min_degree=3)
        assert pruned.degrees[0] == 3

    def test_pruned_graph_validates(self, small_graph, small_points):
        pruned = prune_diversify(small_graph, small_points)
        validate_graph(pruned, points=small_points, check_distances=True)

    def test_original_untouched(self, small_graph, small_points):
        edges_before = small_graph.n_edges()
        prune_diversify(small_graph, small_points)
        assert small_graph.n_edges() == edges_before


class TestValidation:
    def test_bad_alpha(self, small_graph, small_points):
        with pytest.raises(GraphError, match="alpha"):
            prune_diversify(small_graph, small_points, alpha=0)

    def test_bad_min_degree(self, small_graph, small_points):
        with pytest.raises(GraphError, match="min_degree"):
            prune_diversify(small_graph, small_points, min_degree=-1)

    def test_point_count_mismatch(self, small_graph):
        with pytest.raises(GraphError, match="does not match"):
            prune_diversify(small_graph, np.zeros((3, 2)))


class TestStats:
    def test_stats_fields(self, small_graph, small_points):
        pruned = prune_diversify(small_graph, small_points)
        stats = pruning_stats(small_graph, pruned)
        assert stats["edges_after"] <= stats["edges_before"]
        assert 0.0 < stats["kept_fraction"] <= 1.0
        assert stats["mean_degree_after"] <= stats["mean_degree_before"]

    def test_stats_vertex_mismatch(self, small_graph):
        with pytest.raises(GraphError, match="vertex count"):
            pruning_stats(small_graph, ProximityGraph(3, 2))


class TestSearchQuality:
    def test_pruning_preserves_recall_with_fewer_edges(self,
                                                       small_points,
                                                       small_queries,
                                                       small_graph):
        """The trade pruning offers: recall stays close at the same
        explored budget while each exploration touches far fewer
        edges (so iterations get cheaper)."""
        from repro.core.ganns import ganns_search
        from repro.core.params import SearchParams
        from repro.datasets.ground_truth import exact_knn
        from repro.metrics.recall import recall_at_k

        gt = exact_knn(small_points, small_queries, 10)
        pruned = prune_diversify(small_graph, small_points, alpha=1.0,
                                 min_degree=4)
        search = SearchParams(k=10, l_n=64, e=16)
        raw_recall = recall_at_k(
            ganns_search(small_graph, small_points, small_queries,
                         search).ids, gt)
        pruned_recall = recall_at_k(
            ganns_search(pruned, small_points, small_queries,
                         search).ids, gt)
        assert pruned_recall > raw_recall - 0.15
        # And the pruned graph does it with genuinely fewer edges (so
        # each exploration computes fewer distances).
        assert pruned.n_edges() < small_graph.n_edges()
