"""Equivalence: the faithful warp-primitive kernel vs the batched path.

The batched implementation is what benchmarks run; the kernel oracle
built from ``ballot/ffs/shfl_down`` and the real bitonic networks
(``tests/oracles/ganns_kernel.py``) is what the paper describes.  They
must agree.
"""

import numpy as np
import pytest

from repro.core.ganns import ganns_search
from repro.core.params import SearchParams
from repro.errors import SearchError
from tests.oracles.ganns_kernel import ganns_search_kernel


@pytest.fixture(scope="module")
def params():
    return SearchParams(k=5, l_n=32, n_threads=32)


class TestEquivalence:
    def test_same_ids_and_distances(self, small_graph, small_points,
                                    small_queries, params):
        batched = ganns_search(small_graph, small_points,
                               small_queries[:12], params)
        for row in range(12):
            single = ganns_search_kernel(small_graph, small_points,
                                         small_queries[row], params)
            assert np.array_equal(single.ids[0], batched.ids[row]), row
            assert np.allclose(single.dists[0], batched.dists[row],
                               rtol=1e-6, atol=1e-9)

    def test_same_iteration_counts(self, small_graph, small_points,
                                   small_queries, params):
        batched = ganns_search(small_graph, small_points,
                               small_queries[:8], params)
        for row in range(8):
            single = ganns_search_kernel(small_graph, small_points,
                                         small_queries[row], params)
            assert single.iterations[0] == batched.iterations[row]

    def test_same_phase_charges(self, small_graph, small_points,
                                small_queries, params):
        """Cycle accounting must be implementation-independent: the same
        traversal yields the same per-phase charges."""
        batched = ganns_search(small_graph, small_points,
                               small_queries[:4], params)
        for row in range(4):
            single = ganns_search_kernel(small_graph, small_points,
                                         small_queries[row], params)
            for phase in single.tracker.phase_names:
                assert single.tracker.total_cycles(phase) == pytest.approx(
                    batched.tracker.lane_cycles(phase)[row]), phase

    def test_with_explore_budget(self, small_graph, small_points,
                                 small_queries):
        params = SearchParams(k=5, l_n=32, e=10, n_threads=32)
        batched = ganns_search(small_graph, small_points,
                               small_queries[:6], params)
        for row in range(6):
            single = ganns_search_kernel(small_graph, small_points,
                                         small_queries[row], params)
            assert np.array_equal(single.ids[0], batched.ids[row])

    def test_sub_warp_threads(self, small_graph, small_points,
                              small_queries):
        params = SearchParams(k=5, l_n=32, n_threads=8)
        single = ganns_search_kernel(small_graph, small_points,
                                     small_queries[0], params)
        batched = ganns_search(small_graph, small_points,
                               small_queries[:1], params)
        assert np.array_equal(single.ids[0], batched.ids[0])

    def test_cosine_equivalence(self, cosine_graph, cosine_points):
        params = SearchParams(k=3, l_n=32, n_threads=32)
        queries = cosine_points[100:105]
        batched = ganns_search(cosine_graph, cosine_points, queries, params)
        for row in range(5):
            single = ganns_search_kernel(cosine_graph, cosine_points,
                                         queries[row], params)
            assert np.array_equal(single.ids[0], batched.ids[row])


class TestKernelValidation:
    def test_rejects_non_pow2_threads(self, small_graph, small_points,
                                      small_queries):
        with pytest.raises(SearchError, match="power-of-two"):
            ganns_search_kernel(small_graph, small_points, small_queries[0],
                                SearchParams(k=5, l_n=32, n_threads=12))

    def test_rejects_pool_smaller_than_buffer(self, small_points,
                                              small_queries):
        from repro.baselines.nsw_cpu import build_nsw_cpu
        wide = build_nsw_cpu(small_points[:100], d_min=8, d_max=64).graph
        with pytest.raises(SearchError, match="merge network"):
            ganns_search_kernel(wide, small_points[:100], small_queries[0],
                                SearchParams(k=5, l_n=32))

    def test_rejects_bad_entry(self, small_graph, small_points,
                               small_queries):
        with pytest.raises(SearchError, match="entry"):
            ganns_search_kernel(small_graph, small_points, small_queries[0],
                                SearchParams(k=5, l_n=32), entry=-1)

    def test_rejects_dim_mismatch(self, small_graph, small_points):
        with pytest.raises(SearchError, match="dimensionality"):
            ganns_search_kernel(small_graph, small_points, np.zeros(3),
                                SearchParams(k=5, l_n=32))
