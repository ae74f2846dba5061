"""Tests for structural graph validation."""

import functools

import numpy as np
import pytest

from repro.baselines.nsw_cpu import build_nsw_cpu
from repro.core.construction import build_nsw_gpu
from repro.core.hnsw import build_hnsw_gpu
from repro.core.params import BuildParams
from repro.datasets.synthetic import gaussian_mixture
from repro.errors import GraphError, ValidationError
from repro.graphs.adjacency import ProximityGraph
from repro.graphs.validation import validate_graph
from tests.oracles.validation import check_rows


def _valid_graph():
    g = ProximityGraph(6, 3)
    g.set_row(0, [1, 2], [0.1, 0.2])
    g.set_row(1, [0], [0.1])
    g.set_row(2, [0, 3], [0.2, 0.5])
    g.set_row(3, [2], [0.5])
    g.set_row(4, [5], [0.3])
    g.set_row(5, [4], [0.3])
    return g


class TestValidGraphPasses:
    def test_valid_graph(self):
        validate_graph(_valid_graph())

    def test_empty_graph(self):
        validate_graph(ProximityGraph(3, 2))

    def test_distance_check_passes_on_true_distances(self):
        points = np.array([[0.0], [1.0], [2.0], [4.0]])
        g = ProximityGraph(4, 2)
        g.set_row(0, [1, 2], [1.0, 4.0])
        g.set_row(3, [2], [4.0])
        validate_graph(g, points=points, check_distances=True)


class TestViolationsDetected:
    def test_not_a_graph(self):
        with pytest.raises(GraphError, match="expects a ProximityGraph"):
            validate_graph(None, np.zeros((4, 2)))

    def test_degree_above_dmax(self):
        g = _valid_graph()
        g.degrees[0] = 5
        with pytest.raises(GraphError, match="degree"):
            validate_graph(g)

    def test_out_of_range_id(self):
        g = _valid_graph()
        g.neighbor_ids[0, 0] = 99
        with pytest.raises(GraphError, match="out-of-range"):
            validate_graph(g)

    def test_stale_entries_past_degree(self):
        g = _valid_graph()
        g.neighbor_ids[1, 2] = 4  # degree is 1
        with pytest.raises(GraphError, match="past its degree"):
            validate_graph(g)

    def test_self_loop(self):
        g = _valid_graph()
        g.neighbor_ids[2, 0] = 2
        with pytest.raises(GraphError, match="self-loop"):
            validate_graph(g)

    def test_duplicate_neighbors(self):
        g = _valid_graph()
        g.neighbor_ids[2, 1] = 0  # 0 already at slot 0
        with pytest.raises(GraphError, match="duplicate"):
            validate_graph(g)

    def test_unsorted_row(self):
        g = _valid_graph()
        g.neighbor_dists[2] = [0.5, 0.2, np.inf]
        with pytest.raises(GraphError, match="sorted"):
            validate_graph(g)

    def test_degree_floor(self):
        g = _valid_graph()
        with pytest.raises(GraphError, match="d_min floor"):
            validate_graph(g, d_min=2)

    def test_degree_floor_accounts_for_small_graphs(self):
        # 2 vertices cannot satisfy d_min=5; floor is n - 1 = 1.
        g = ProximityGraph(2, 8)
        g.set_row(0, [1], [0.1])
        g.set_row(1, [0], [0.1])
        validate_graph(g, d_min=5)

    def test_invalid_d_min(self):
        with pytest.raises(GraphError, match="d_min must be positive"):
            validate_graph(_valid_graph(), d_min=0)

    def test_wrong_stored_distances(self):
        points = np.array([[0.0], [1.0], [2.0], [4.0]])
        g = ProximityGraph(4, 2)
        g.set_row(0, [1, 2], [1.0, 3.0])  # true d(0,2) is 4.0
        with pytest.raises(GraphError, match="deviating"):
            validate_graph(g, points=points, check_distances=True)

    @pytest.mark.parametrize("rows,check", [(8, False), (2, True),
                                            (2, False)])
    def test_points_must_hold_one_row_per_vertex(self, rows, check):
        """A matrix that is not the graph's is refused, not reported
        valid or crashed into with an ``IndexError``."""
        g = ProximityGraph(4, 2)
        g.set_row(0, [1, 2], [1.0, 4.0])
        with pytest.raises(GraphError, match="rows but the graph has 4"):
            validate_graph(g, points=np.zeros((rows, 1)),
                           check_distances=check)

    def test_distance_check_skipped_without_flag(self):
        points = np.array([[0.0], [1.0], [2.0], [4.0]])
        g = ProximityGraph(4, 2)
        g.set_row(0, [1, 2], [1.0, 3.0])
        validate_graph(g, points=points, check_distances=False)


def _compacted_graph():
    """A graph whose vertex 3 was tombstoned and detached."""
    g = ProximityGraph(5, 3)
    g.set_row(0, [1, 2], [0.1, 0.2])
    g.set_row(1, [0], [0.1])
    g.set_row(2, [0], [0.2])
    g.set_row(4, [1], [0.4])
    mask = np.zeros(5, dtype=bool)
    mask[3] = True
    return g, mask


class TestTombstoneValidation:
    """The corruption matrix for tombstone-aware validation."""

    def test_detached_tombstone_passes(self):
        g, mask = _compacted_graph()
        validate_graph(g, tombstones=mask)

    def test_no_mask_behaves_as_before(self):
        g, _ = _compacted_graph()
        validate_graph(g)

    def test_all_false_mask_is_a_no_op(self):
        g, _ = _compacted_graph()
        validate_graph(g, tombstones=np.zeros(5, dtype=bool))

    def test_reachable_tombstone_rejected(self):
        g, mask = _compacted_graph()
        # A live vertex still points at the dead one.
        g.set_row(4, [1, 3], [0.4, 0.5])
        with pytest.raises(ValidationError, match="reachable tombstone"):
            validate_graph(g, tombstones=mask)

    def test_tombstone_with_outgoing_edges_rejected(self):
        g, mask = _compacted_graph()
        # The dead vertex still carries an outgoing edge.
        g.set_row(3, [0], [0.3])
        with pytest.raises(ValidationError, match="still carries"):
            validate_graph(g, tombstones=mask)

    def test_wrong_mask_shape_rejected(self):
        g, _ = _compacted_graph()
        with pytest.raises(GraphError, match="shape"):
            validate_graph(g, tombstones=np.zeros(3, dtype=bool))

    def test_d_min_floor_skips_tombstoned_vertices(self):
        # The detached vertex has degree 0; it must not trip the floor.
        g, mask = _compacted_graph()
        g.set_row(4, [0, 1], [0.3, 0.4])
        g.set_row(0, [1, 2], [0.1, 0.2])
        validate_graph(g, d_min=1, tombstones=mask)

    def test_d_min_floor_still_applies_to_live_vertices(self):
        g, mask = _compacted_graph()
        g.set_row(2, [], [])  # live vertex with degree 0
        with pytest.raises(GraphError, match="d_min floor"):
            validate_graph(g, d_min=1, tombstones=mask)

    def test_validation_error_is_a_graph_error(self):
        assert issubclass(ValidationError, GraphError)


@functools.lru_cache(maxsize=None)
def _built(which):
    """Flat graph ``which`` of three builders over one small mixture."""
    points = gaussian_mixture(160, 6, seed=21)
    params = BuildParams(d_min=4, d_max=8)
    return (lambda: build_nsw_cpu(points, d_min=4, d_max=8).graph,
            lambda: build_nsw_gpu(points, params).graph,
            lambda: build_hnsw_gpu(points, params).graph.bottom)[which]()


def _built_graph(which):
    """A copy of built graph ``which``, free to corrupt."""
    return _built(which).copy()


def _message(check, graph):
    """The ``GraphError`` message ``check`` raises, or ``None``."""
    try:
        check(graph)
    except GraphError as exc:
        return str(exc)
    return None


def _plant_duplicate(graph, v):
    graph.neighbor_ids[v, 1] = graph.neighbor_ids[v, 0]


def _plant_unsorted(graph, v):
    last = graph.degrees[v] - 1
    graph.neighbor_dists[v, last] = graph.neighbor_dists[v, 0] - 1.0


class TestRowChecksMatchTheLoop:
    """The vectorised duplicate and order checks name the vertex, and
    give the message, of the per-row loop they replaced."""

    @pytest.mark.parametrize("which", range(3))
    def test_built_graphs_pass_both(self, which):
        graph = _built_graph(which)
        assert _message(check_rows, graph) is None
        assert _message(validate_graph, graph) is None

    @pytest.mark.parametrize("first,second", [
        (_plant_duplicate, _plant_unsorted),
        (_plant_unsorted, _plant_duplicate)])
    @pytest.mark.parametrize("which", range(3))
    def test_first_corrupted_vertex_is_named(self, which, first, second):
        graph = _built_graph(which)
        a, b = np.flatnonzero(graph.degrees >= 2)[[3, 40]]
        first(graph, a)
        second(graph, b)
        expected = _message(check_rows, graph)
        assert expected.startswith(f"vertex {a}")
        assert _message(validate_graph, graph) == expected
        # With the earlier vertex repaired, the later one is named.
        repaired = _built_graph(which)
        second(repaired, b)
        expected = _message(check_rows, repaired)
        assert expected.startswith(f"vertex {b}")
        assert _message(validate_graph, repaired) == expected

    @pytest.mark.parametrize("which", range(3))
    def test_duplicate_wins_within_a_row(self, which):
        graph = _built_graph(which)
        v = int(np.flatnonzero(graph.degrees >= 3)[5])
        _plant_unsorted(graph, v)
        _plant_duplicate(graph, v)
        assert (_message(validate_graph, graph)
                == _message(check_rows, graph)
                == f"vertex {v} has duplicate neighbors")
