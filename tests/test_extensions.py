"""Tests for GGraphCon beyond the paper's evaluated configurations:
multicore GGraphCon and the built-in MIPS metric."""

import numpy as np
import pytest

from repro.baselines.cpu_cost import CpuModel
from repro.baselines.nsw_cpu import build_nsw_cpu, build_nsw_multicore
from repro.core.construction import build_nsw_gpu
from repro.core.params import BuildParams
from repro.errors import ConstructionError
from repro.gpusim.kernel import _makespan
from repro.metrics.distance import METRICS, InnerProductMetric, get_metric
from tests.oracles.nsw_sequential import build_nsw_sequential
from tests.oracles.graph_measures import edge_set

PARAMS = BuildParams(d_min=6, d_max=12, n_blocks=8)


class TestMakespan:
    """The CPU clock spreads job seconds over cores with the same LPT
    makespan the GPU clock spreads block cycles over resident slots."""

    def test_one_core_sums(self):
        assert _makespan(np.array([1.0, 2.0, 3.0]), 1) == 6.0

    def test_many_cores_take_max(self):
        assert _makespan(np.array([1.0, 2.0, 3.0]), 8) == 3.0

    def test_lpt_balancing(self):
        assert _makespan(np.array([4.0, 3.0, 2.0, 1.0]), 2) == 5.0

    def test_empty(self):
        assert _makespan(np.array([]), 4) == 0.0


class TestMulticoreConstruction:
    def test_graph_identical_to_gpu_construction(self, small_points):
        """Same algorithm, different working units: the graphs match."""
        points = small_points[:250]
        multicore = build_nsw_multicore(points, PARAMS, n_cores=4)
        gpu = build_nsw_gpu(points, PARAMS)
        assert edge_set(multicore.graph) == edge_set(gpu.graph)

    def test_exact_mode_satisfies_theorem(self, small_points):
        points = small_points[:180]
        multicore = build_nsw_multicore(points, PARAMS, n_cores=4,
                                        exact=True)
        sequential, _ = build_nsw_sequential(points, PARAMS.d_min,
                                             PARAMS.d_max, exact=True)
        assert edge_set(multicore.graph) == edge_set(sequential)

    def test_more_cores_build_faster(self, small_points):
        points = small_points[:300]
        one = build_nsw_multicore(points, PARAMS, n_cores=1)
        many = build_nsw_multicore(points, PARAMS, n_cores=16)
        assert many.seconds < one.seconds
        # Sub-linear but substantial scaling.
        assert one.seconds / many.seconds > 3.0

    def test_single_core_close_to_sequential_baseline(self, small_points):
        """On one core GGraphCon does roughly the sequential build's work
        (same total searches, cheaper local ones)."""
        points = small_points[:300]
        one = build_nsw_multicore(points, PARAMS, n_cores=1)
        baseline = build_nsw_cpu(points, PARAMS.d_min, PARAMS.d_max)
        assert 0.3 < one.seconds / baseline.seconds < 3.0

    def test_one_core_one_group_is_the_sequential_baseline(self,
                                                           small_points):
        """One core building one group *is* GraphCon_NSW: same
        insertions, and the CPU clock counts them by the same rule."""
        from repro.baselines.cpu_cost import DEFAULT_CPU
        points = small_points[:300]
        one = build_nsw_multicore(points, PARAMS.with_overrides(n_blocks=1),
                                  n_cores=1)
        sequential, counters = build_nsw_sequential(points, PARAMS.d_min,
                                                    PARAMS.d_max)
        assert edge_set(one.graph) == edge_set(sequential)
        assert one.seconds == DEFAULT_CPU.seconds(counters,
                                                  3 * points.shape[1])

    def test_phase_seconds(self, small_points):
        report = build_nsw_multicore(small_points[:150], PARAMS, n_cores=4)
        assert set(report.phase_seconds) == {"local_construction", "merge"}
        assert report.seconds == pytest.approx(
            sum(report.phase_seconds.values()))
        assert report.details["n_cores"] == 4

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConstructionError, match="non-empty"):
            build_nsw_multicore(np.zeros((0, 3)), PARAMS)
        with pytest.raises(ConstructionError, match="n_cores"):
            build_nsw_multicore(np.zeros((10, 3)), PARAMS, n_cores=0)

    def test_custom_cpu_model_scales_time(self, small_points):
        points = small_points[:120]
        fast = build_nsw_multicore(points, PARAMS, n_cores=2,
                                   cpu=CpuModel(effective_flops=8e9))
        slow = build_nsw_multicore(points, PARAMS, n_cores=2,
                                   cpu=CpuModel(effective_flops=0.8e9))
        assert slow.seconds > fast.seconds


class TestInnerProductMetric:
    def test_ip_is_a_built_in_metric(self):
        assert isinstance(get_metric("ip"), InnerProductMetric)
        assert get_metric("ip") is METRICS["ip"]

    def test_orders_by_inner_product(self):
        metric = InnerProductMetric()
        query = np.array([1.0, 0.0])
        points = np.array([[2.0, 0.0], [1.0, 0.0], [0.5, 5.0]])
        dists = metric.one_to_many(query, points)
        assert np.argmin(dists) == 0  # largest dot product wins

    def test_pairwise_consistency(self):
        rng = np.random.default_rng(0)
        metric = InnerProductMetric()
        a = rng.normal(size=(4, 6))
        b = rng.normal(size=(5, 6))
        full = metric.pairwise(a, b)
        for i in range(4):
            assert np.allclose(full[i], metric.one_to_many(a[i], b))

    def test_end_to_end_mips_search(self):
        """Graph build + GANNS search under metric='ip' finds the true
        maximum-inner-product neighbors."""
        from repro.core.ganns import ganns_search
        from repro.core.params import SearchParams
        from repro.datasets.ground_truth import exact_knn
        from repro.metrics.recall import recall_at_k

        rng = np.random.default_rng(3)
        # Latent-factor-style vectors (user/item embeddings).
        points = (rng.normal(size=(600, 8)) @ rng.normal(size=(8, 24))
                  ).astype(np.float32)
        queries = (rng.normal(size=(30, 8)) @ rng.normal(size=(8, 24))
                   ).astype(np.float32)
        graph = build_nsw_cpu(points, d_min=8, d_max=16, metric="ip").graph
        gt = exact_knn(points, queries, 10, metric="ip")
        report = ganns_search(graph, points, queries,
                              SearchParams(k=10, l_n=128))
        assert recall_at_k(report.ids, gt) > 0.7

    def test_kernel_supports_ip(self):
        from repro.core.ganns import ganns_search
        from tests.oracles.ganns_kernel import ganns_search_kernel
        from repro.core.params import SearchParams

        rng = np.random.default_rng(4)
        points = rng.normal(size=(200, 16)).astype(np.float32)
        graph = build_nsw_cpu(points, d_min=4, d_max=8, metric="ip").graph
        params = SearchParams(k=5, l_n=32)
        query = rng.normal(size=16).astype(np.float32)
        single = ganns_search_kernel(graph, points, query, params)
        batched = ganns_search(graph, points, query[None, :], params)
        assert np.array_equal(single.ids[0], batched.ids[0])

    def test_knn_graph_stores_negative_inner_products(self):
        """NN-Descent under ``ip`` stores ``-<u, v>``, not ``1 - <u, v>``."""
        from repro.core.knng import build_knn_graph_gpu
        from repro.graphs import validate_graph

        points = np.random.default_rng(5).normal(size=(150, 12))
        graph = build_knn_graph_gpu(points, 8, metric="ip").graph
        validate_graph(graph, points=points, check_distances=True)

    def test_cagra_builds_and_validates(self):
        """Rank pruning's stacked ``pairwise`` works under ``ip``."""
        from repro import GannsIndex
        from repro.graphs import validate_graph

        points = np.random.default_rng(6).normal(size=(150, 12))
        index = GannsIndex.build(points, "cagra", metric="ip",
                                 params=BuildParams(d_min=6, d_max=12))
        validate_graph(index.graph, points=points, check_distances=True)
