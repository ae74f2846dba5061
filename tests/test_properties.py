"""Hypothesis property tests on cross-cutting search/graph invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.beam import beam_search_lanes
from repro.baselines.nsw_cpu import build_nsw_cpu
from repro.core.ganns import ganns_search
from repro.core.params import SearchParams
from repro.datasets.ground_truth import exact_knn
from repro.datasets.synthetic import gaussian_mixture
from tests.oracles.nsw_sequential import build_nsw_sequential
from tests.oracles.graph_measures import edge_set


@st.composite
def small_workload(draw):
    """A random small point cloud plus a query drawn near it."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    n = draw(st.integers(min_value=30, max_value=120))
    dims = draw(st.sampled_from([4, 8, 16]))
    points = gaussian_mixture(n, dims, n_clusters=4, cluster_std=0.3,
                              intrinsic_dim=min(4, dims), seed=seed)
    query = points[draw(st.integers(min_value=0, max_value=n - 1))] + 0.01
    return points, query


class TestSearchInvariants:
    @given(small_workload())
    @settings(max_examples=25, deadline=None)
    def test_beam_results_sorted_unique_valid(self, workload):
        points, query = workload
        graph = build_nsw_cpu(points, d_min=4, d_max=8).graph
        lanes = beam_search_lanes(graph, points, query[None, :], k=5, ef=16)
        found = lanes.ids[0] >= 0
        ids, dists = lanes.ids[0, found], lanes.dists[0, found]
        assert found.sum() == min(5, len(points))
        assert (np.diff(dists) >= 0).all()
        assert len(set(ids.tolist())) == len(ids)
        assert (ids < len(points)).all()

    @given(small_workload())
    @settings(max_examples=20, deadline=None)
    def test_ganns_results_are_subset_of_reachable_truth(self, workload):
        """Every returned distance must be >= the true k-th NN distance
        (no algorithm can do better than exact)."""
        points, query = workload
        graph = build_nsw_cpu(points, d_min=4, d_max=8).graph
        report = ganns_search(graph, points, query[None, :],
                              SearchParams(k=5, l_n=32))
        _, true_dists = exact_knn(points, query[None, :], 5,
                                  return_distances=True)
        live = report.ids[0] >= 0
        assert (report.dists[0][live] >= true_dists[0][:live.sum()]
                - 1e-9).all()

    @given(small_workload())
    @settings(max_examples=20, deadline=None)
    def test_ganns_distances_match_metric(self, workload):
        points, query = workload
        graph = build_nsw_cpu(points, d_min=4, d_max=8).graph
        report = ganns_search(graph, points, query[None, :],
                              SearchParams(k=5, l_n=32))
        live = report.ids[0] >= 0
        ids = report.ids[0][live]
        expected = graph.metric.one_to_many(query, points[ids])
        assert np.allclose(report.dists[0][live], expected, rtol=1e-6)

    @given(small_workload(), st.integers(min_value=1, max_value=5))
    @settings(max_examples=15, deadline=None)
    def test_k_prefix_consistency(self, workload, k):
        """Searching for k results must return the prefix of searching
        for more, at identical parameters (deterministic pipeline)."""
        points, query = workload
        graph = build_nsw_cpu(points, d_min=4, d_max=8).graph
        small = ganns_search(graph, points, query[None, :],
                             SearchParams(k=k, l_n=32))
        large = ganns_search(graph, points, query[None, :],
                             SearchParams(k=k + 3, l_n=32))
        assert np.array_equal(small.ids[0], large.ids[0][:k])


class TestConstructionInvariants:
    @given(st.integers(min_value=0, max_value=5000),
           st.integers(min_value=20, max_value=80),
           st.integers(min_value=2, max_value=6))
    @settings(max_examples=15, deadline=None)
    def test_ggraphcon_exact_theorem_random_instances(self, seed, n,
                                                      n_blocks):
        """The Section IV-C theorem on random instances and group counts."""
        from repro.core.construction import build_nsw_gpu
        from repro.core.params import BuildParams
        points = gaussian_mixture(n, 6, n_clusters=3, intrinsic_dim=4,
                                  seed=seed)
        params = BuildParams(d_min=3, d_max=6, n_blocks=n_blocks)
        gpu = build_nsw_gpu(points, params, exact=True)
        sequential, _ = build_nsw_sequential(points, 3, 6, exact=True)
        assert edge_set(gpu.graph) == edge_set(sequential)

    @given(st.integers(min_value=0, max_value=5000))
    @settings(max_examples=10, deadline=None)
    def test_built_graphs_always_validate(self, seed):
        from repro.graphs.validation import validate_graph
        points = gaussian_mixture(60, 8, n_clusters=3, intrinsic_dim=4,
                                  seed=seed)
        graph = build_nsw_cpu(points, d_min=4, d_max=8).graph
        validate_graph(graph, points=points, check_distances=True)
