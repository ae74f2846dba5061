"""Tests for graph statistics and quality measures."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graphs.adjacency import ProximityGraph
from tests.oracles.graph_measures import edge_recall_against, \
    reachable_fraction


def _chain_graph(n=5):
    g = ProximityGraph(n, 2)
    for v in range(n - 1):
        g.insert_edge(v, v + 1, 1.0)
    return g


class TestReachability:
    def test_chain_fully_reachable_from_head(self):
        assert reachable_fraction(_chain_graph(), entry=0) == 1.0

    def test_chain_partially_reachable_from_middle(self):
        assert reachable_fraction(_chain_graph(5), entry=2) == pytest.approx(
            3 / 5)

    def test_disconnected_components(self):
        g = ProximityGraph(4, 2)
        g.insert_edge(0, 1, 1.0)
        g.insert_edge(2, 3, 1.0)
        assert reachable_fraction(g, entry=0) == 0.5

    def test_entry_bounds(self):
        with pytest.raises(GraphError, match="out of range"):
            reachable_fraction(_chain_graph(), entry=9)


class TestEdgeRecall:
    def test_identical_graphs(self):
        g = _chain_graph()
        assert edge_recall_against(g, g.copy()) == 1.0

    def test_missing_edges_lower_recall(self):
        full = _chain_graph(5)
        partial = ProximityGraph(5, 2)
        partial.insert_edge(0, 1, 1.0)
        partial.insert_edge(1, 2, 1.0)
        assert edge_recall_against(partial, full) == pytest.approx(2 / 4)

    def test_extra_edges_do_not_help(self):
        reference = _chain_graph(4)
        candidate = reference.copy()
        candidate.insert_edge(0, 2, 0.5)
        assert edge_recall_against(candidate, reference) == 1.0

    def test_empty_reference(self):
        empty = ProximityGraph(3, 2)
        assert edge_recall_against(_chain_graph(3), empty) == 1.0

    def test_vertex_count_mismatch(self):
        with pytest.raises(GraphError, match="vertex counts"):
            edge_recall_against(_chain_graph(3), _chain_graph(4))
