"""Failure injection: corrupted inputs must fail loudly or heal.

A production library's failure modes matter as much as its happy path:
structural corruption must be *detected* (never silently wrong results),
and recoverable corruption (cache files) must heal automatically.
"""

import numpy as np
import pytest

from repro.core.params import BuildParams
from repro.errors import GraphError
from repro.graphs.adjacency import ProximityGraph
from repro.graphs.validation import validate_graph


class TestCorruptedGraphDetection:
    def _corrupt_and_check(self, graph, mutate, match):
        clone = graph.copy()
        mutate(clone)
        with pytest.raises(GraphError, match=match):
            validate_graph(clone)

    def test_all_corruptions_detected(self, small_graph):
        def out_of_range(g):
            g.neighbor_ids[3, 0] = g.n_vertices + 5

        def self_loop(g):
            g.neighbor_ids[3, 0] = 3

        def unsorted(g):
            degree = g.degrees[3]
            assert degree >= 2
            g.neighbor_dists[3, 0] = g.neighbor_dists[3, degree - 1] + 1

        def duplicate(g):
            degree = g.degrees[3]
            assert degree >= 2
            g.neighbor_ids[3, 1] = g.neighbor_ids[3, 0]

        def degree_overflow(g):
            g.degrees[3] = g.d_max + 1

        def nan_distance(g):
            g.neighbor_dists[3, 0] = np.nan

        def posinf_distance(g):
            g.neighbor_dists[3, 0] = np.inf

        def neginf_distance(g):
            g.neighbor_dists[3, 0] = -np.inf

        def shape_mismatch(g):
            g.neighbor_ids = g.neighbor_ids[:, :-1].copy()

        self._corrupt_and_check(small_graph, out_of_range, "out-of-range")
        self._corrupt_and_check(small_graph, self_loop, "self-loop")
        self._corrupt_and_check(small_graph, unsorted, "sorted")
        self._corrupt_and_check(small_graph, duplicate, "duplicate")
        self._corrupt_and_check(small_graph, degree_overflow, "degree")
        self._corrupt_and_check(small_graph, nan_distance, "non-finite")
        self._corrupt_and_check(small_graph, posinf_distance,
                                "non-finite")
        self._corrupt_and_check(small_graph, neginf_distance,
                                "non-finite")
        self._corrupt_and_check(small_graph, shape_mismatch,
                                "adjacency arrays")

    def test_nan_in_padding_is_not_flagged(self, small_graph):
        """Only *live* slots matter: garbage past the degree is padding
        territory and must not fail validation."""
        clone = small_graph.copy()
        vertex = int(np.argmin(clone.degrees))
        degree = clone.degrees[vertex]
        assert degree < clone.d_max
        clone.neighbor_dists[vertex, degree:] = np.nan
        validate_graph(clone)

    def test_nan_distance_names_vertex_and_slot(self, small_graph):
        clone = small_graph.copy()
        clone.neighbor_dists[7, 1] = np.nan
        with pytest.raises(GraphError, match=r"vertex 7.*slot 1"):
            validate_graph(clone)

    def test_wrong_distance_values_detected(self, small_graph,
                                            small_points):
        clone = small_graph.copy()
        clone.neighbor_dists[5, 0] *= 3.0
        clone.neighbor_dists[5].sort()
        with pytest.raises(GraphError, match="deviating"):
            validate_graph(clone, points=small_points,
                           check_distances=True)

    def test_index_build_validates_by_default(self, small_points):
        """GannsIndex.build runs validation, so a construction bug would
        surface at build time rather than as silent bad recall."""
        from repro.core.index import GannsIndex
        index = GannsIndex.build(
            small_points[:150],
            params=BuildParams(d_min=4, d_max=8, n_blocks=4))
        validate_graph(index.graph)


class TestDegenerateInputs:
    def test_single_point_dataset(self):
        from repro.baselines.nsw_cpu import build_nsw_cpu
        points = np.zeros((1, 4), dtype=np.float32)
        report = build_nsw_cpu(points, d_min=2, d_max=4)
        assert report.graph.n_edges() == 0

    def test_two_point_search(self):
        from repro.baselines.nsw_cpu import build_nsw_cpu
        from repro.core.ganns import ganns_search
        from repro.core.params import SearchParams
        points = np.array([[0.0, 0.0], [1.0, 1.0]], dtype=np.float32)
        graph = build_nsw_cpu(points, d_min=1, d_max=2).graph
        report = ganns_search(graph, points, points, SearchParams(
            k=2, l_n=32))
        assert np.array_equal(report.ids[:, 0], [0, 1])

    def test_duplicate_points(self):
        """Coincident points (distance 0 ties) must not break ordering
        invariants anywhere."""
        from repro.baselines.nsw_cpu import build_nsw_cpu
        from repro.core.ganns import ganns_search
        from repro.core.params import SearchParams
        rng = np.random.default_rng(0)
        base = rng.normal(size=(50, 4)).astype(np.float32)
        points = np.concatenate([base, base[:10]])  # 10 exact duplicates
        graph = build_nsw_cpu(points, d_min=4, d_max=8).graph
        validate_graph(graph)
        report = ganns_search(graph, points, base[:5],
                              SearchParams(k=5, l_n=32))
        # A distance-0 copy of the query (original or duplicate) must
        # rank first; which copy depends on graph connectivity.
        assert np.allclose(report.dists[:, 0], 0.0)
        for row in range(5):
            assert report.ids[row, 0] in (row, row + 50)

    def test_query_equals_all_zeros_cosine(self, cosine_graph,
                                           cosine_points):
        """A zero query under cosine is orderable (distance 1 to all)."""
        from repro.core.ganns import ganns_search
        from repro.core.params import SearchParams
        zero = np.zeros((1, cosine_points.shape[1]), dtype=np.float32)
        report = ganns_search(cosine_graph, cosine_points, zero,
                              SearchParams(k=3, l_n=32))
        assert (report.ids[0] >= 0).all()
