"""Tests for structural graph analysis (navigability measures)."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graphs.adjacency import ProximityGraph
from repro.graphs.analysis import (
    degree_distribution,
    hop_histogram,
    long_link_fraction,
    mean_hops,
    navigability_report,
    neighborhood_overlap,
)


def _chain(n=6):
    g = ProximityGraph(n, 2)
    for v in range(n - 1):
        g.insert_edge(v, v + 1, 1.0)
    return g


class TestDegreeDistribution:
    def test_chain_degrees(self):
        dist = degree_distribution(_chain(5))
        assert dist.out_max == 1
        assert dist.out_min == 0
        assert dist.in_max == 1
        assert dist.in_mean == pytest.approx(0.8)

    def test_hub_detection(self):
        g = ProximityGraph(10, 4)
        for v in range(1, 10):
            g.insert_edge(v, 0, 1.0)  # everyone points at vertex 0
        dist = degree_distribution(g)
        assert dist.in_max == 9
        assert dist.in_degree_skew > 5.0

    def test_nsw_degrees_bounded(self, small_graph):
        dist = degree_distribution(small_graph)
        assert dist.out_max <= small_graph.d_max


class TestLongLinks:
    def test_uniform_lengths_no_long_links(self):
        assert long_link_fraction(_chain()) == 0.0

    def test_one_long_edge_detected(self):
        g = ProximityGraph(6, 3)
        for v in range(4):
            g.insert_edge(v, v + 1, 1.0)
        g.insert_edge(0, 5, 100.0)
        assert long_link_fraction(g, factor=4.0) == pytest.approx(1 / 5)

    def test_empty_graph(self):
        assert long_link_fraction(ProximityGraph(3, 2)) == 0.0

    def test_bad_factor(self):
        with pytest.raises(GraphError, match="factor"):
            long_link_fraction(_chain(), factor=0)

    def test_nsw_has_long_links_knn_does_not(self, small_points):
        """The structural reason NSW is navigable and KNN graphs are not
        (Section II-B's short-range/long-range link distinction)."""
        from repro.baselines.nsw_cpu import build_nsw_cpu
        from repro.core.knng import build_knn_graph_gpu
        points = small_points[:300]
        nsw = build_nsw_cpu(points, d_min=6, d_max=12).graph
        knn = build_knn_graph_gpu(points, k=6).graph
        assert long_link_fraction(nsw) > long_link_fraction(knn)


class TestHops:
    def test_chain_hop_histogram(self):
        histogram = hop_histogram(_chain(4), entry=0)
        assert histogram == {0: 1, 1: 1, 2: 1, 3: 1}

    def test_unreachable_bucket(self):
        g = ProximityGraph(3, 2)
        g.insert_edge(0, 1, 1.0)
        histogram = hop_histogram(g, entry=0)
        assert histogram[-1] == 1

    def test_mean_hops_chain(self):
        assert mean_hops(_chain(5), entry=0) == pytest.approx(2.0)

    def test_max_hops_truncates(self):
        histogram = hop_histogram(_chain(6), entry=0, max_hops=2)
        assert histogram.get(-1, 0) == 3

    def test_entry_bounds(self):
        with pytest.raises(GraphError, match="out of range"):
            hop_histogram(_chain(), entry=99)

    def test_nsw_hops_logarithmic(self, small_graph):
        """Small-world property: mean hops ≪ n."""
        hops = mean_hops(small_graph, entry=0)
        assert hops < 10.0


class TestOverlap:
    def test_disconnected_graph_zero(self):
        assert neighborhood_overlap(ProximityGraph(5, 2)) == 0.0

    def test_clique_full_overlap(self):
        g = ProximityGraph(4, 3)
        for v in range(4):
            for u in range(4):
                if u != v:
                    g.insert_edge(v, u, 1.0 + u + v)
        overlap = neighborhood_overlap(g, sample=4)
        assert overlap > 0.1  # adjacent rows share most members

    def test_bad_sample(self):
        with pytest.raises(GraphError, match="sample"):
            neighborhood_overlap(_chain(), sample=0)


class TestNavigabilityReport:
    def test_report_on_real_graph(self, small_graph):
        report = navigability_report(small_graph)
        assert report.unreachable_fraction < 0.05
        assert report.mean_hops_from_entry > 0
        assert 0.0 <= report.neighborhood_overlap <= 1.0
        assert report.degrees.out_max <= small_graph.d_max

    def test_overlap_explains_ganns_redundancy(self, small_graph,
                                               small_points,
                                               small_queries):
        """The measured neighborhood overlap predicts the direction of
        GANNS's redundant distance computations: higher overlap, more
        invalidated T entries."""
        from repro.core.ganns import ganns_search
        from repro.core.params import SearchParams
        report = ganns_search(small_graph, small_points, small_queries,
                              SearchParams(k=10, l_n=64))
        overlap = neighborhood_overlap(small_graph)
        # Scanned = iterations x degree on average; fresh beam-search
        # distances would be far fewer.  With positive overlap, GANNS
        # must have recomputed something.
        assert overlap > 0.0
        assert report.n_distance_computations > small_graph.n_vertices
