"""The paper's worked example (Figure 1, Examples 1 and 2).

The graph ``G_1`` has 12 vertices; the examples fix the distance ranking
to the query ``q`` and the traversal order:

- entry ``v_1``; its neighbors are ``v_2, v_3, v_5, v_7, v_8``;
- iteration order ``v_1, v_8, v_10, v_12, v_9`` (Example 1's path
  ``v_10 -> v_12 -> v_9``);
- Example 2's sorted neighbor buffer after iteration 1 is
  ``v_8, v_7, v_2, v_5, v_3`` (increasing distance to q);
- both algorithms return ``{v_12, v_9, v_8, v_10}`` for ``k = 4``, with
  ``v_10`` the furthest result and ``v_4`` the best remaining candidate.

We realise those constraints with 1-D coordinates (only distances to
``q`` matter for search) and the adjacency lists implied by the figure,
then assert the exact traversal and result for Algorithm 1, GANNS
(batched) and the faithful GANNS kernel.  Vertex ``v_i`` is index
``i - 1``.
"""

import numpy as np
import pytest

from repro.baselines.beam import beam_search_lanes
from repro.baselines.song import SongParams, song_search
from repro.core.ganns import ganns_search
from repro.core.params import SearchParams
from repro.graphs.adjacency import ProximityGraph
from tests.oracles.ganns_kernel import ganns_search_kernel

# Distance of each vertex to q (vertex v_i at index i-1):
#   v12 < v9 < v8 < v10 < v4 < v7 < v2 < v5 < v3 < v1 < v6 < v11
_DIST_TO_Q = {
    12: 1.0, 9: 2.0, 8: 3.0, 10: 4.0, 4: 5.0, 7: 6.0,
    2: 7.0, 5: 8.0, 3: 9.0, 1: 10.0, 6: 11.0, 11: 12.0,
}

# Adjacency from Figure 1 (1-based vertex names).
_ADJACENCY = {
    1: [2, 3, 5, 7, 8],
    2: [1, 3],
    3: [1, 2],
    5: [1, 7],
    7: [1, 5, 8],
    8: [1, 7, 10],
    10: [8, 12],
    12: [9, 10],
    9: [4, 12],
    4: [6, 9],
    6: [4, 11],
    11: [6],
}


@pytest.fixture(scope="module")
def g1():
    """The example graph over 1-D points placed at their q-distances."""
    points = np.zeros((12, 1), dtype=np.float64)
    for vertex, dist in _DIST_TO_Q.items():
        points[vertex - 1, 0] = dist
    graph = ProximityGraph(12, 8)
    for vertex, neighbors in _ADJACENCY.items():
        v = vertex - 1
        for u_name in neighbors:
            u = u_name - 1
            graph.insert_edge(v, u, abs(points[v, 0] - points[u, 0]) ** 2)
    query = np.array([0.0])
    return graph, points, query


def _names(ids):
    return [int(i) + 1 for i in ids]


def _algorithm_1(graph, points, query):
    """Example 1's search: one lane, ``k = ef = 4`` from ``v_1``."""
    return beam_search_lanes(graph, points, query[None, :], k=4, ef=4,
                             entries=0)


class TestExample1Algorithm1:
    def test_returns_v12_v9_v8_v10(self, g1):
        graph, points, query = g1
        result = _algorithm_1(graph, points, query)
        assert _names(result.ids[0]) == [12, 9, 8, 10]

    def test_terminates_after_five_iterations(self, g1):
        """Example 1: 'After iteration 5 ... traversal terminates.'"""
        graph, points, query = g1
        result = _algorithm_1(graph, points, query)
        assert result.n_iterations[0] == 6  # 5 expansions + terminating pop

    def test_v4_never_expanded(self, g1):
        """v_4 is the best remaining candidate when the search stops, so
        its neighbors (v_6) must never be visited."""
        graph, points, query = g1
        result = _algorithm_1(graph, points, query)
        assert 6 - 1 not in result.ids[0]  # v_6 absent
        # v_6 and v_11 were never even distance-computed: 12 - 2 = 10
        assert result.n_distance_computations[0] <= 10


class TestExample2Ganns:
    def test_returns_v12_v9_v8_v10_in_order(self, g1):
        graph, points, query = g1
        report = ganns_search(graph, points, query[None, :],
                              SearchParams(k=4, l_n=32))
        assert _names(report.ids[0]) == [12, 9, 8, 10]

    def test_kernel_agrees(self, g1):
        graph, points, query = g1
        report = ganns_search_kernel(graph, points, query,
                                     SearchParams(k=4, l_n=32))
        assert _names(report.ids[0]) == [12, 9, 8, 10]

    def test_song_agrees(self, g1):
        graph, points, query = g1
        report = song_search(graph, points, query[None, :],
                             SongParams(k=4, pq_bound=4))
        assert _names(report.ids[0]) == [12, 9, 8, 10]

    def test_iteration_1_buffer_order(self, g1):
        """Example 2: after sorting, T holds v8, v7, v2, v5, v3."""
        graph, points, query = g1
        neighbor_ids = graph.neighbors(0)  # v_1's row
        dists = graph.metric.one_to_many(query, points[neighbor_ids])
        order = np.lexsort((neighbor_ids, dists))
        assert _names(neighbor_ids[order]) == [8, 7, 2, 5, 3]

    def test_five_explorations(self, g1):
        """Example 2 explores v1, v8, v10, v12, v9 — five iterations.

        The example's pool is exactly the result size (l_n = k = 4):
        "In iteration 5, the only unexplored point in N, v9, is chosen".
        """
        graph, points, query = g1
        report = ganns_search(graph, points, query[None, :],
                              SearchParams(k=4, l_n=4))
        assert report.iterations[0] == 5
        assert _names(report.ids[0]) == [12, 9, 8, 10]

    def test_same_search_path_as_algorithm_1(self, g1):
        """Section III-B: 'our search algorithm has the same search path
        as Algorithm 1' — identical results on the worked example."""
        graph, points, query = g1
        ganns = ganns_search(graph, points, query[None, :],
                             SearchParams(k=4, l_n=32))
        beam = _algorithm_1(graph, points, query)
        assert np.array_equal(ganns.ids[0], beam.ids[0])
