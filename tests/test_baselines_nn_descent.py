"""NN-Descent KNN-graph construction, checked as the baseline KNN builder.

The library has one NN-Descent, ``core.knng.build_knn_graph_gpu``; these
checks pin its convergence, structure and argument handling on the inputs
the KNN baseline has always been held to.
"""

import numpy as np
import pytest

from repro.core.knng import build_knn_graph_gpu
from repro.core.params import BuildParams
from repro.datasets.ground_truth import exact_knn
from repro.errors import ConstructionError
from repro.graphs.validation import validate_graph


def _knn_graph_accuracy(graph, points, k):
    """Fraction of true kNN edges present in the graph."""
    truth = exact_knn(points, points, k + 1)[:, 1:]
    hits = 0
    for v in range(len(points)):
        hits += np.intersect1d(graph.neighbors(v), truth[v]).size
    return hits / (len(points) * k)


class TestConvergence:
    @pytest.fixture(scope="class")
    def small_cloud(self):
        from repro.datasets.synthetic import gaussian_mixture
        return gaussian_mixture(300, 12, n_clusters=6, intrinsic_dim=6,
                                seed=7)

    def test_reaches_high_knn_accuracy(self, small_cloud):
        report = build_knn_graph_gpu(small_cloud, k=8,
                                     params=BuildParams(seed=0))
        accuracy = _knn_graph_accuracy(report.graph, small_cloud, 8)
        assert accuracy > 0.85

    def test_graph_structure_valid(self, small_cloud):
        report = build_knn_graph_gpu(small_cloud, k=8,
                                     params=BuildParams(seed=0))
        validate_graph(report.graph, points=small_cloud,
                       check_distances=True)
        # KNN graphs are k-regular.
        assert (report.graph.degrees == 8).all()


class TestValidation:
    def test_rejects_bad_k(self):
        points = np.zeros((10, 3))
        with pytest.raises(ConstructionError, match="k must lie"):
            build_knn_graph_gpu(points, k=0)
        with pytest.raises(ConstructionError, match="k must lie"):
            build_knn_graph_gpu(points, k=10)

    def test_rejects_empty_points(self):
        with pytest.raises(ConstructionError, match="non-empty"):
            build_knn_graph_gpu(np.zeros((0, 3)), k=2)

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(8)
        points = rng.normal(size=(60, 4)).astype(np.float32)
        a = build_knn_graph_gpu(points, k=4, params=BuildParams(seed=3))
        b = build_knn_graph_gpu(points, k=4, params=BuildParams(seed=3))
        assert np.array_equal(a.graph.neighbor_ids, b.graph.neighbor_ids)
