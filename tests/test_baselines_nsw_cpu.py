"""Tests for sequential CPU NSW construction (GraphCon_NSW)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.cpu_cost import DEFAULT_CPU
from repro.baselines.hnsw_cpu import build_hnsw_cpu
from repro.baselines.nsw_cpu import build_nsw_cpu
from repro.core.construction import nearest_in_prefix
from repro.errors import ConstructionError
from repro.graphs.validation import validate_graph
from repro.datasets.synthetic import gaussian_mixture
from repro.metrics.distance import get_metric
from tests.oracles.nsw_sequential import (
    build_hnsw_sequential,
    build_nsw_sequential,
)
from tests.oracles.graph_measures import reachable_fraction


class TestExactPrefixKnn:
    def test_first_vertex_has_no_prefix(self):
        points = np.random.default_rng(0).normal(size=(5, 3))
        assert nearest_in_prefix(points, 0, 0, 3,
                                 get_metric("euclidean"))[0].size == 0

    def test_only_earlier_points_considered(self):
        points = np.array([[0.0], [10.0], [0.1]])
        ids = nearest_in_prefix(points, 2, 2, 2, get_metric("euclidean"))[0]
        assert np.array_equal(ids, [0, 1])

    def test_k_capped_at_prefix_size(self):
        points = np.array([[0.0], [1.0]])
        ids = nearest_in_prefix(points, 1, 1, 5, get_metric("euclidean"))[0]
        assert np.array_equal(ids, [0])

    def test_sorted_by_distance(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(20, 4))
        metric = get_metric("euclidean")
        ids = nearest_in_prefix(points, 19, 19, 6, metric)[0]
        dists = metric.one_to_many(points[19], points[ids])
        assert (np.diff(dists) >= 0).all()


class TestBuildStructure:
    def test_graph_validates(self, small_points):
        report = build_nsw_cpu(small_points[:200], d_min=4, d_max=8)
        validate_graph(report.graph, points=small_points[:200],
                       d_min=4, check_distances=True)

    def test_bidirectional_linking(self):
        """Every forward edge of the last-inserted vertex has a backward
        counterpart (nothing could have evicted them yet for small n)."""
        rng = np.random.default_rng(2)
        points = rng.normal(size=(30, 4)).astype(np.float32)
        report = build_nsw_cpu(points, d_min=3, d_max=10)
        last = 29
        for u in report.graph.neighbors(last):
            assert last in report.graph.neighbors(int(u))

    def test_connected_from_entry(self, small_points):
        report = build_nsw_cpu(small_points[:300], d_min=6, d_max=12)
        assert reachable_fraction(report.graph, entry=0) > 0.99

    def test_early_points_link_to_all_predecessors(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(6, 3)).astype(np.float32)
        report = build_nsw_cpu(points, d_min=4, d_max=8)
        # Vertex 1 was inserted when only vertex 0 existed.
        assert 0 in report.graph.neighbors(1)
        assert 1 in report.graph.neighbors(0)

    def test_exact_mode_forward_edges_are_true_knn(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(40, 4)).astype(np.float32)
        report = build_nsw_cpu(points, d_min=3, d_max=40, exact=True)
        metric = get_metric("euclidean")
        # With d_max large enough that nothing is evicted, each vertex's
        # row contains its exact d_min prefix-NN (forward edges).
        for v in range(5, 40):
            expected = set(nearest_in_prefix(points, v, v, 3,
                                             metric)[0].tolist())
            got = set(report.graph.neighbors(v).tolist())
            assert expected <= got

    def test_counters_populated(self, small_points):
        """The seconds price the sequential build's whole tally."""
        points = small_points[:150]
        report = build_nsw_cpu(points, d_min=4, d_max=8)
        _, counters = build_nsw_sequential(points, 4, 8)
        assert counters.n_distances > 150
        assert counters.n_adjacency_inserts >= 2 * 4
        assert counters.n_heap_ops > 0
        assert report.seconds == DEFAULT_CPU.seconds(
            counters, 3 * points.shape[1])
        assert report.n_points == 150

    def test_cosine_metric_build(self, cosine_points):
        report = build_nsw_cpu(cosine_points[:200], d_min=4, d_max=8,
                               metric="cosine")
        validate_graph(report.graph)
        assert report.graph.metric_name == "cosine"


class TestValidation:
    def test_rejects_empty_points(self):
        with pytest.raises(ConstructionError, match="non-empty"):
            build_nsw_cpu(np.zeros((0, 3)), 2, 4)

    def test_rejects_dmin_above_dmax(self):
        with pytest.raises(ConstructionError, match="cannot exceed"):
            build_nsw_cpu(np.zeros((10, 3)), 8, 4)

    def test_rejects_bad_ef(self):
        with pytest.raises(ConstructionError, match="ef_construction"):
            build_nsw_cpu(np.zeros((10, 3)), 4, 8, ef_construction=2)

    def test_rejects_non_positive_degrees(self):
        with pytest.raises(ConstructionError):
            build_nsw_cpu(np.zeros((10, 3)), 0, 4)


class TestQuality:
    def test_higher_ef_construction_improves_graph(self, small_points,
                                                   small_queries):
        """A graph built with a wider construction beam supports equal or
        better search recall (the ef_construction knob works)."""
        from repro.baselines.beam import beam_search_lanes
        from repro.datasets.ground_truth import exact_knn
        from repro.metrics.recall import recall_at_k

        points = small_points[:400]
        gt = exact_knn(points, small_queries, 10)
        lo = build_nsw_cpu(points, 4, 8, ef_construction=4).graph
        hi = build_nsw_cpu(points, 4, 8, ef_construction=32).graph
        r_lo = recall_at_k(beam_search_lanes(lo, points, small_queries,
                                             10, ef=32).ids, gt)
        r_hi = recall_at_k(beam_search_lanes(hi, points, small_queries,
                                             10, ef=32).ids, gt)
        assert r_hi >= r_lo - 0.02


class TestMatchesSequentialOracle:
    """GraphCon_NSW / GraphCon_HNSW run GGraphCon with one group on one
    core; the per-edge sequential insertion is their oracle."""

    @staticmethod
    def _assert_same_graph(got, want):
        assert np.array_equal(got.neighbor_ids, want.neighbor_ids)
        assert got.neighbor_dists.tobytes() == want.neighbor_dists.tobytes()
        assert np.array_equal(got.degrees, want.degrees)

    @given(seed=st.integers(0, 10_000), n=st.integers(2, 90),
           d_min=st.integers(2, 6), slack=st.integers(0, 6),
           metric=st.sampled_from(["euclidean", "cosine"]),
           exact=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_nsw_matches_oracle(self, seed, n, d_min, slack, metric, exact):
        points = gaussian_mixture(n, 6, n_clusters=3, intrinsic_dim=4,
                                  seed=seed)
        report = build_nsw_cpu(points, d_min, d_min + slack, metric=metric,
                               exact=exact)
        graph, counters = build_nsw_sequential(
            points, d_min, d_min + slack, metric=metric, exact=exact)
        self._assert_same_graph(report.graph, graph)
        flops = get_metric(metric).flops_per_distance(points.shape[1])
        assert report.seconds == DEFAULT_CPU.seconds(counters, flops)

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 150),
           metric=st.sampled_from(["euclidean", "cosine"]))
    @settings(max_examples=15, deadline=None)
    def test_hnsw_matches_oracle(self, seed, n, metric):
        points = gaussian_mixture(n, 6, n_clusters=3, intrinsic_dim=4,
                                  seed=seed)
        report = build_hnsw_cpu(points, 3, 6, metric=metric, seed=seed)
        graph, order, counters = build_hnsw_sequential(
            points, 3, 6, metric=metric, seed=seed)
        assert np.array_equal(report.order, order)
        assert report.graph.n_layers == graph.n_layers
        for got, want in zip(report.graph.layers, graph.layers):
            self._assert_same_graph(got, want)
        flops = get_metric(metric).flops_per_distance(points.shape[1])
        assert report.seconds == sum(DEFAULT_CPU.seconds(c, flops)
                                     for c in counters)
