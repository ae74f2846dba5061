"""Hypothesis property test: ``ganns_search`` == its oracles, always.

One composite strategy draws a whole randomised workload — dataset
seed and size, metric, compute dtype, pool shape, entry scheme, lazy
check — and the single property is the search contract: ids, iterations
and per-phase cycle charges identical to the batched oracle
(``tests/oracles/ganns_batched.py``), distances within dtype tolerance;
and, on the draws the single-query warp kernel supports (lazy check on,
float64), identical to ``ganns_search_kernel`` query by query as well.
Well-separated Gaussian data (not raw hypothesis arrays) keeps the
workloads representative of what the kernels actually see.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.nsw_cpu import build_nsw_cpu
from repro.core.ganns_kernel import ganns_search_kernel
from repro.core.params import SearchParams
from repro.datasets.synthetic import gaussian_mixture
from tests.test_perf_equivalence import assert_matches_oracle


@st.composite
def search_workload(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    n = draw(st.integers(min_value=40, max_value=160))
    dims = draw(st.sampled_from([4, 8, 16]))
    n_queries = draw(st.integers(min_value=1, max_value=12))
    metric = draw(st.sampled_from(["euclidean", "cosine", "ip"]))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    l_n = draw(st.sampled_from([8, 16, 32]))
    k = draw(st.integers(min_value=1, max_value=min(l_n, 8)))
    e = draw(st.one_of(st.none(),
                       st.integers(min_value=1, max_value=l_n)))
    lazy_check = draw(st.booleans())
    per_query_entries = draw(st.booleans())

    points = gaussian_mixture(n, dims, n_clusters=4, cluster_std=0.3,
                              intrinsic_dim=min(4, dims), seed=seed)
    queries = gaussian_mixture(n_queries, dims, n_clusters=4,
                               cluster_std=0.3,
                               intrinsic_dim=min(4, dims), seed=seed + 1)
    if per_query_entries:
        entry = draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                              min_size=n_queries, max_size=n_queries))
        entry = np.asarray(entry, dtype=np.int64)
    else:
        entry = draw(st.integers(min_value=0, max_value=n - 1))
    params = SearchParams(k=k, l_n=l_n, e=e)
    return points, queries, metric, dtype, params, entry, lazy_check


class TestBackendProperty:
    @given(search_workload())
    @settings(max_examples=30, deadline=None)
    def test_fast_equals_reference(self, workload):
        points, queries, metric, dtype, params, entry, lazy = workload
        graph = build_nsw_cpu(points, d_min=4, d_max=8).graph
        graph.metric_name = metric
        report = assert_matches_oracle(graph, points, queries, params,
                                       dtype=dtype, entry=entry,
                                       lazy_check=lazy)
        if not lazy or dtype != np.float64:
            return
        entries = np.broadcast_to(entry, (len(queries),))
        for row in range(len(queries)):
            single = ganns_search_kernel(graph, points, queries[row],
                                         params, entry=int(entries[row]))
            assert np.array_equal(single.ids[0], report.ids[row])
            assert single.iterations[0] == report.iterations[row]
            for phase in single.tracker.phase_names:
                assert single.tracker.total_cycles(phase) == \
                    report.tracker.lane_cycles(phase)[row], phase
