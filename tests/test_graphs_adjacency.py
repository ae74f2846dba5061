"""Tests for the fixed-degree adjacency structure, incl. property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs.adjacency import (
    HierarchicalGraph,
    PAD_ID,
    ProximityGraph,
)
from tests.oracles.graph_measures import edge_set
from tests.oracles.merge_row import merge_row


class TestConstruction:
    def test_empty_graph_state(self):
        g = ProximityGraph(5, 3)
        assert g.n_vertices == 5
        assert g.d_max == 3
        assert g.n_edges() == 0
        assert (g.neighbor_ids == PAD_ID).all()
        assert np.isinf(g.neighbor_dists).all()

    def test_rejects_bad_sizes(self):
        with pytest.raises(GraphError):
            ProximityGraph(0, 3)
        with pytest.raises(GraphError):
            ProximityGraph(5, 0)

    def test_memory_bytes_matches_paper_formula(self):
        """Global memory is O(n_p x d_max) (Section IV-C)."""
        small = ProximityGraph(100, 32).memory_bytes()
        big = ProximityGraph(200, 32).memory_bytes()
        assert big == pytest.approx(2 * small, rel=0.01)


class TestInsertEdge:
    def test_insert_keeps_sorted_order(self):
        g = ProximityGraph(10, 4)
        for dst, dist in [(1, 0.5), (2, 0.2), (3, 0.9), (4, 0.1)]:
            assert g.insert_edge(0, dst, dist)
        assert np.array_equal(g.neighbors(0), [4, 2, 1, 3])
        assert np.array_equal(g.neighbor_dists[0, :4], [0.1, 0.2, 0.5, 0.9])

    def test_full_row_evicts_worst(self):
        g = ProximityGraph(10, 2)
        g.insert_edge(0, 1, 0.5)
        g.insert_edge(0, 2, 0.3)
        assert g.insert_edge(0, 3, 0.1)
        assert np.array_equal(g.neighbors(0), [3, 2])

    def test_full_row_rejects_worse_candidate(self):
        g = ProximityGraph(10, 2)
        g.insert_edge(0, 1, 0.1)
        g.insert_edge(0, 2, 0.2)
        assert not g.insert_edge(0, 3, 0.9)
        assert np.array_equal(g.neighbors(0), [1, 2])

    def test_duplicate_insert_is_noop(self):
        g = ProximityGraph(10, 4)
        assert g.insert_edge(0, 1, 0.5)
        assert not g.insert_edge(0, 1, 0.5)
        assert g.degrees[0] == 1

    def test_self_loop_rejected(self):
        g = ProximityGraph(10, 4)
        with pytest.raises(GraphError, match="self-loop"):
            g.insert_edge(3, 3, 0.0)

    def test_out_of_range_vertices_rejected(self):
        g = ProximityGraph(10, 4)
        with pytest.raises(GraphError, match="out of range"):
            g.insert_edge(10, 0, 0.1)
        with pytest.raises(GraphError, match="out of range"):
            g.insert_edge(0, -1, 0.1)

    def test_equal_distance_ties_break_by_id(self):
        g = ProximityGraph(10, 4)
        g.insert_edge(0, 5, 0.5)
        g.insert_edge(0, 2, 0.5)
        g.insert_edge(0, 8, 0.5)
        assert np.array_equal(g.neighbors(0), [2, 5, 8])

    @given(st.lists(st.tuples(st.integers(min_value=1, max_value=30),
                              st.floats(min_value=0, max_value=10)),
                    min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_row_invariants_hold_under_any_insertion_sequence(self, edges):
        """Property: after arbitrary insertions, the row is sorted,
        duplicate-free, within capacity, and contains the globally best
        entries ever offered."""
        g = ProximityGraph(31, 4)
        best = {}
        for dst, dist in edges:
            g.insert_edge(0, dst, dist)
            if dst not in best or dist < best[dst]:
                best.setdefault(dst, dist)
        degree = g.degrees[0]
        assert degree <= 4
        dists = g.neighbor_dists[0, :degree]
        assert (np.diff(dists) >= 0).all()
        ids = g.neighbors(0)
        assert len(set(ids.tolist())) == degree
        # The kept entries are the best (dist, id) pairs among first-time
        # insertions (duplicates are no-ops, so first distance wins).
        first_seen = {}
        for dst, dist in edges:
            first_seen.setdefault(dst, dist)
        expected = sorted((d, v) for v, d in first_seen.items())[:4]
        # Compare only when no eviction/reinsertion interplay is possible:
        # kept set must be a subset of all offered pairs with count == min.
        assert degree == min(len(first_seen), 4)
        got = sorted(zip(dists.tolist(), ids.tolist()))
        for (gd, gi), (ed, ei) in zip(got, expected):
            assert gd <= ed + 1e-12


class TestRowOperations:
    def test_set_row(self):
        g = ProximityGraph(10, 4)
        g.set_row(2, [5, 7], [0.1, 0.4])
        assert np.array_equal(g.neighbors(2), [5, 7])
        assert g.degrees[2] == 2

    def test_set_row_rejects_unsorted(self):
        g = ProximityGraph(10, 4)
        with pytest.raises(GraphError, match="sorted"):
            g.set_row(2, [5, 7], [0.4, 0.1])

    def test_set_row_rejects_overlong(self):
        g = ProximityGraph(10, 2)
        with pytest.raises(GraphError, match="exceeds d_max"):
            g.set_row(0, [1, 2, 3], [0.1, 0.2, 0.3])

    def test_set_row_replaces_existing(self):
        g = ProximityGraph(10, 4)
        g.set_row(0, [1, 2, 3], [0.1, 0.2, 0.3])
        g.set_row(0, [9], [0.5])
        assert np.array_equal(g.neighbors(0), [9])
        assert (g.neighbor_ids[0, 1:] == PAD_ID).all()

    def test_merge_row_keeps_best_dmax(self):
        g = ProximityGraph(10, 3)
        g.set_row(0, [1, 2], [0.1, 0.4])
        merge_row(g, 0, [3, 4], [0.2, 0.9])
        assert np.array_equal(g.neighbors(0), [1, 3, 2])

    def test_merge_row_deduplicates(self):
        g = ProximityGraph(10, 4)
        g.set_row(0, [1, 2], [0.1, 0.4])
        merge_row(g, 0, [2, 3], [0.4, 0.2])
        assert np.array_equal(g.neighbors(0), [1, 3, 2])

    def test_merge_row_empty_batch(self):
        g = ProximityGraph(10, 4)
        g.set_row(0, [1], [0.1])
        merge_row(g, 0, [], [])
        assert np.array_equal(g.neighbors(0), [1])


class TestAccessors:
    def test_edge_set(self):
        g = ProximityGraph(5, 4)
        g.insert_edge(0, 1, 0.1)
        g.insert_edge(1, 0, 0.1)
        assert edge_set(g) == {(0, 1), (1, 0)}

    def test_copy_is_deep(self):
        g = ProximityGraph(5, 4)
        g.insert_edge(0, 1, 0.1)
        clone = g.copy()
        clone.insert_edge(0, 2, 0.05)
        assert g.degrees[0] == 1
        assert clone.degrees[0] == 2

    def test_from_rows_round_trip(self):
        g = ProximityGraph(5, 3)
        g.set_row(0, [1, 2], [0.1, 0.2])
        g.set_row(3, [4], [0.7])
        rebuilt = ProximityGraph.from_rows(g.neighbor_ids,
                                           g.neighbor_dists)
        assert edge_set(rebuilt) == edge_set(g)

    def test_block_diagonal_shifts_each_part_by_its_offset(self):
        a, b = ProximityGraph(3, 2), ProximityGraph(4, 2)
        a.set_row(0, [1, 2], [0.1, 0.2])
        b.set_row(3, [0], [0.5])
        stacked = ProximityGraph.block_diagonal([a, b])
        assert stacked.n_vertices == 7 and stacked.d_max == 2
        assert edge_set(stacked) == {(0, 1), (0, 2), (6, 3)}
        assert stacked.neighbor_ids[6].tolist() == [3, PAD_ID]
        assert stacked.degrees.tolist() == [2, 0, 0, 0, 0, 0, 1]
        assert stacked.neighbor_dists[6, 0] == 0.5

    @pytest.mark.parametrize("other", [
        ProximityGraph(3, 4), ProximityGraph(3, 2, "cosine"),
        ProximityGraph(3, 2, dtype=np.float32)])
    def test_block_diagonal_refuses_parts_that_differ(self, other):
        with pytest.raises(GraphError, match="must share d_max"):
            ProximityGraph.block_diagonal([ProximityGraph(3, 2), other])


class TestHierarchicalGraph:
    def _layers(self, n=10, d_max=4, sizes=(10, 4, 1)):
        return [ProximityGraph(n, d_max) for _ in sizes], list(sizes)

    def test_valid_construction(self):
        layers, sizes = self._layers()
        h = HierarchicalGraph(layers, sizes)
        assert h.n_layers == 3
        assert h.bottom is layers[0]
        assert h.entry_vertex() == 0

    def test_rejects_increasing_sizes(self):
        layers, _ = self._layers()
        with pytest.raises(GraphError, match="non-increasing"):
            HierarchicalGraph(layers, [10, 4, 6])

    def test_rejects_empty(self):
        with pytest.raises(GraphError, match="at least one"):
            HierarchicalGraph([], [])

    def test_rejects_size_layer_mismatch(self):
        layers, _ = self._layers()
        with pytest.raises(GraphError):
            HierarchicalGraph(layers, [10, 4])

    def test_rejects_undersized_layer_graph(self):
        layers = [ProximityGraph(3, 2)]
        with pytest.raises(GraphError, match="claims"):
            HierarchicalGraph(layers, [5])

    def test_memory_bytes_sums_layers(self):
        layers, sizes = self._layers()
        h = HierarchicalGraph(layers, sizes)
        assert h.memory_bytes() == sum(l.memory_bytes() for l in layers)
