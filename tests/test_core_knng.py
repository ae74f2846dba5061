"""Tests for GPU batched NN-Descent KNN-graph construction."""

import numpy as np
import pytest

from repro.core.knng import build_knn_graph_gpu
from repro.core.params import BuildParams
from repro.datasets.ground_truth import exact_knn
from repro.errors import ConstructionError
from repro.graphs.validation import validate_graph
from repro.gpusim.tracker import PhaseCategory


@pytest.fixture(scope="module")
def cloud():
    from repro.datasets.synthetic import gaussian_mixture
    return gaussian_mixture(300, 12, n_clusters=6, intrinsic_dim=6, seed=7)


def _accuracy(graph, points, k):
    truth = exact_knn(points, points, k + 1)[:, 1:]
    hits = 0
    for v in range(len(points)):
        hits += np.intersect1d(graph.neighbors(v), truth[v]).size
    return hits / (len(points) * k)


class TestQuality:
    def test_high_knn_accuracy(self, cloud):
        report = build_knn_graph_gpu(cloud, k=8)
        assert _accuracy(report.graph, cloud, 8) > 0.9

    def test_matches_exact_knn_quality(self, cloud):
        """Row by row, the k-th neighbour found is within 10 % of the
        exact k-th neighbour's distance on average."""
        report = build_knn_graph_gpu(cloud, k=8)
        exact = exact_knn(cloud, cloud, 9)[:, 1:]
        metric = report.graph.metric
        found = report.graph.neighbor_dists[:, 7]
        truth = np.array([metric.one_to_many(cloud[v], cloud[exact[v, -1:]])[0]
                          for v in range(len(cloud))])
        assert (found >= truth - 1e-9).all()
        assert found.mean() <= 1.1 * truth.mean()

    def test_iterations_beat_random_initialisation(self, cloud):
        converged = build_knn_graph_gpu(cloud, k=8)
        one_pass = build_knn_graph_gpu(cloud, k=8, max_iterations=1)
        assert (_accuracy(converged.graph, cloud, 8)
                > _accuracy(one_pass.graph, cloud, 8))

    def test_graph_structure(self, cloud):
        report = build_knn_graph_gpu(cloud, k=8)
        validate_graph(report.graph, points=cloud, check_distances=True)
        assert (report.graph.degrees == 8).all()

    def test_cosine_metric(self):
        from tests.oracles.synthetic import hypersphere_shell
        points = hypersphere_shell(200, 16, n_clusters=5,
                                   intrinsic_dim=6, seed=2)
        report = build_knn_graph_gpu(points, k=6, metric="cosine")
        assert _accuracy(report.graph, points, 6) > 0.7

    def test_convergence_recorded(self, cloud):
        report = build_knn_graph_gpu(cloud, k=8)
        assert report.details["n_iterations"] >= 1
        assert report.algorithm == "ggraphcon-knng"


class TestTiming:
    def test_phases_and_categories(self, cloud):
        report = build_knn_graph_gpu(cloud, k=8)
        assert "initialization" in report.phase_seconds
        assert "refinement" in report.phase_seconds
        assert report.category_seconds[PhaseCategory.DISTANCE] > 0
        assert report.category_seconds[PhaseCategory.STRUCTURE] > 0

    def test_iteration_cap_limits_time(self, cloud):
        capped = build_knn_graph_gpu(cloud, k=8, max_iterations=1)
        free = build_knn_graph_gpu(cloud, k=8, max_iterations=12)
        assert capped.seconds < free.seconds
        assert capped.details["n_iterations"] == 1


class TestValidation:
    def test_rejects_bad_k(self, cloud):
        with pytest.raises(ConstructionError, match="k must lie"):
            build_knn_graph_gpu(cloud, k=0)
        with pytest.raises(ConstructionError, match="k must lie"):
            build_knn_graph_gpu(cloud, k=len(cloud))

    def test_rejects_empty(self):
        with pytest.raises(ConstructionError, match="non-empty"):
            build_knn_graph_gpu(np.zeros((0, 4)), k=2)

    def test_deterministic(self, cloud):
        a = build_knn_graph_gpu(cloud, k=6, params=BuildParams(seed=9))
        b = build_knn_graph_gpu(cloud, k=6, params=BuildParams(seed=9))
        assert np.array_equal(a.graph.neighbor_ids, b.graph.neighbor_ids)
