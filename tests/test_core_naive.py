"""Tests for the GSerial and GNaiveParallel strawmen."""

import numpy as np
import pytest

from repro.baselines.nsw_cpu import build_nsw_cpu
from repro.core.construction import build_nsw_gpu
from repro.core.naive import build_nsw_naive_parallel, build_nsw_serial_gpu
from repro.core.params import BuildParams
from repro.errors import ConstructionError
from repro.graphs import graph_digest
from repro.graphs.validation import validate_graph
from tests.oracles.graph_measures import edge_set

PARAMS = BuildParams(d_min=6, d_max=12, n_blocks=8)


class TestGSerial:
    def test_graph_equals_cpu_sequential(self, small_points):
        """GSerial runs the same insertions as the CPU build — only the
        timing differs."""
        points = small_points[:200]
        serial = build_nsw_serial_gpu(points, PARAMS)
        cpu = build_nsw_cpu(points, PARAMS.d_min, PARAMS.d_max)
        assert edge_set(serial.graph) == edge_set(cpu.graph)

    def test_dramatically_slower_than_ggraphcon(self, small_points):
        """The Figure 11 observation: GSerial wastes all inter-block
        parallelism (3810 s vs 8.5 s on SIFT1M in the paper)."""
        points = small_points[:300]
        serial = build_nsw_serial_gpu(points, PARAMS)
        ggc = build_nsw_gpu(points, PARAMS.with_overrides(n_blocks=32))
        assert serial.seconds / ggc.seconds > 5.0

    def test_report_fields(self, small_points):
        report = build_nsw_serial_gpu(small_points[:100], PARAMS)
        assert report.algorithm.startswith("gserial")
        assert report.seconds > 0
        assert report.n_points == 100


class TestGNaiveParallel:
    def test_graph_validates(self, small_points):
        report = build_nsw_naive_parallel(small_points[:300], PARAMS,
                                          batch_size=64)
        validate_graph(report.graph)

    def test_quality_worse_than_ggraphcon(self, small_points,
                                          small_queries):
        """Figure 12: in-batch links are missing, so search recall on the
        naive graph is visibly lower at the same budget."""
        from repro.core.ganns import ganns_search
        from repro.core.params import SearchParams
        from repro.datasets.ground_truth import exact_knn
        from repro.metrics.recall import recall_at_k

        points = small_points[:500]
        gt = exact_knn(points, small_queries, 10)
        naive = build_nsw_naive_parallel(points, PARAMS, batch_size=250)
        ggc = build_nsw_gpu(points, PARAMS)
        search = SearchParams(k=10, l_n=64, e=32)
        r_naive = recall_at_k(
            ganns_search(naive.graph, points, small_queries, search).ids,
            gt)
        r_ggc = recall_at_k(
            ganns_search(ggc.graph, points, small_queries, search).ids, gt)
        assert r_ggc > r_naive

    def test_no_in_batch_edges_beyond_bootstrap(self, small_points):
        """Structural check of the quality defect: a vertex's forward
        search cannot have selected members of its own batch."""
        points = small_points[:200]
        batch_size = 50
        report = build_nsw_naive_parallel(points, PARAMS,
                                          batch_size=batch_size)
        graph = report.graph
        # Batches start after the d_min + 1 bootstrap points, so the last
        # batch spans [157, 200).
        bootstrap = PARAMS.d_min + 1
        last_start = bootstrap + ((200 - bootstrap - 1) // batch_size) * 50
        for v in range(last_start, 200):
            neighbors = graph.neighbors(v)
            in_batch = [u for u in neighbors if last_start <= u < 200]
            # Forward edges can't select co-batch members (searched on the
            # pre-batch snapshot) and backward edges from them don't exist
            # either, so no in-batch neighbors at all.
            assert not in_batch

    def test_faster_than_ggraphcon_given_same_kernel(self, small_points):
        """Figure 11: GNaiveParallel slightly outperforms GGraphCon_SONG
        — the merge bookkeeping has a cost."""
        points = small_points[:300]
        naive = build_nsw_naive_parallel(points, PARAMS,
                                         search_kernel="song",
                                         batch_size=300)
        ggc = build_nsw_gpu(points, PARAMS.with_overrides(n_blocks=4),
                            search_kernel="song")
        assert naive.seconds < ggc.seconds

    @pytest.mark.parametrize("kwargs, digest, seconds", [
        ({"batch_size": 64}, "db45c7dc4230772ea6dcd4382e6b4c28",
         0.0003692701388772095),
        ({"batch_size": 250, "search_kernel": "ganns"},
         "18804a63611dc329d3c1f0823fab2c23", 3.847310523436709e-05),
        ({}, "6a3ff9adbc4be4f559d914ff21a8c08e", 0.007674204455507157),
        ({"batch_size": 100, "metric": "cosine"},
         "fb4c7897b47bc5cda2b995b03992a547", 0.00016541101535620371),
    ])
    def test_graph_and_seconds_are_pinned(self, small_points, kwargs,
                                          digest, seconds):
        """Recorded when every batch still searched one vertex at a time:
        one lock-step search per batch builds the same graph at the same
        price (default batch = ``n_blocks`` = 8 lanes)."""
        report = build_nsw_naive_parallel(small_points[:300], PARAMS,
                                          **kwargs)
        assert graph_digest(report.graph) == digest
        assert report.seconds == seconds

    def test_rejects_bad_batch_size(self, small_points):
        with pytest.raises(ConstructionError, match="batch_size"):
            build_nsw_naive_parallel(small_points[:50], PARAMS,
                                     batch_size=0)

    def test_rejects_empty(self):
        with pytest.raises(ConstructionError, match="non-empty"):
            build_nsw_naive_parallel(np.zeros((0, 4)), PARAMS)
