"""Tests for the distance metrics, including metric-property checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import ConfigurationError
from repro.metrics.distance import (
    CosineMetric,
    EuclideanMetric,
    METRICS,
    get_metric,
)

#: Every registered metric, inner product included.
METRIC_NAMES = ("euclidean", "cosine", "ip")

finite_vectors = arrays(np.float64, (8,),
                        elements=st.floats(min_value=-100, max_value=100))


class TestRegistry:
    def test_get_metric_by_name(self):
        assert isinstance(get_metric("euclidean"), EuclideanMetric)
        assert isinstance(get_metric("cosine"), CosineMetric)

    def test_unknown_metric_lists_valid_names(self):
        with pytest.raises(ConfigurationError, match="cosine"):
            get_metric("manhattan")

    def test_registry_instances_are_shared(self):
        assert get_metric("euclidean") is METRICS["euclidean"]


class TestEuclidean:
    metric = EuclideanMetric()

    def test_one_to_many_matches_definition(self):
        query = np.array([0.0, 0.0])
        points = np.array([[3.0, 4.0], [1.0, 0.0]])
        assert np.allclose(self.metric.one_to_many(query, points), [25, 1])

    def test_pairwise_never_negative(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(20, 4)) * 1e-4
        assert (self.metric.pairwise(a, a) >= 0).all()

    @given(finite_vectors, finite_vectors)
    @settings(max_examples=50, deadline=None)
    def test_symmetry(self, x, y):
        d_xy = self.metric.one_to_many(x, y[None, :])[0]
        d_yx = self.metric.one_to_many(y, x[None, :])[0]
        assert d_xy == pytest.approx(d_yx, rel=1e-9, abs=1e-9)

    @given(finite_vectors)
    @settings(max_examples=50, deadline=None)
    def test_identity(self, x):
        assert self.metric.one_to_many(x, x[None, :])[0] == pytest.approx(
            0.0, abs=1e-9)

    def test_rows_to_rows(self):
        a = np.array([[0.0, 0.0], [1.0, 1.0]])
        b = np.array([[3.0, 4.0], [1.0, 1.0]])
        assert np.allclose(self.metric.prepared_rows_to_rows(a, b), [25, 0])

    def test_flops_positive(self):
        assert self.metric.flops_per_distance(128) == 3 * 128


class TestCosine:
    metric = CosineMetric()

    def test_parallel_vectors_distance_zero(self):
        q = np.array([1.0, 2.0, 3.0])
        assert self.metric.one_to_many(q, (5 * q)[None, :])[0] == \
            pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_vectors_distance_one(self):
        q = np.array([1.0, 0.0])
        p = np.array([[0.0, 1.0]])
        assert self.metric.one_to_many(q, p)[0] == pytest.approx(1.0)

    def test_opposite_vectors_distance_two(self):
        q = np.array([1.0, 0.0])
        p = np.array([[-1.0, 0.0]])
        assert self.metric.one_to_many(q, p)[0] == pytest.approx(2.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        q = rng.normal(size=6)
        p = rng.normal(size=(4, 6))
        base = self.metric.one_to_many(q, p)
        scaled = self.metric.one_to_many(3.0 * q, 0.5 * p)
        assert np.allclose(base, scaled)

    def test_zero_vector_is_orderable(self):
        q = np.zeros(4)
        p = np.ones((2, 4))
        out = self.metric.one_to_many(q, p)
        assert np.all(np.isfinite(out))
        assert np.allclose(out, 1.0)

    def test_pairwise_range(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(10, 5))
        d = self.metric.pairwise(a, a)
        assert d.min() >= -1e-9 and d.max() <= 2.0 + 1e-9
        assert np.allclose(np.diag(d), 0.0, atol=1e-9)


class TestOrderingConsistency:
    """Squared Euclidean must induce the same neighbor ranking as true L2
    — the property that justifies skipping the square root."""

    def test_ranking_matches_true_l2(self):
        rng = np.random.default_rng(5)
        q = rng.normal(size=16)
        points = rng.normal(size=(50, 16))
        squared = EuclideanMetric().one_to_many(q, points)
        true = np.linalg.norm(points - q, axis=1)
        assert np.array_equal(np.argsort(squared), np.argsort(true))


@pytest.mark.parametrize("name", METRIC_NAMES)
class TestMetricContract:
    """The contracts every registered metric's four forms keep."""

    @staticmethod
    def _rows(seed, *shape):
        return np.random.default_rng(seed).normal(size=shape)

    def test_pairwise_matches_one_to_many(self, name):
        metric = get_metric(name)
        a, b = self._rows(0, 5, 8), self._rows(1, 7, 8)
        matrix = metric.pairwise(a, b)
        for i in range(5):
            assert np.allclose(matrix[i], metric.one_to_many(a[i], b),
                               atol=1e-9)

    def test_stacked_pairwise_equals_per_matrix_bytes(self, name):
        metric = get_metric(name)
        a, b = self._rows(2, 3, 5, 8), self._rows(3, 3, 6, 8)
        stacked = metric.pairwise(a, b)
        assert stacked.shape == (3, 5, 6)
        for i in range(3):
            single = metric.pairwise(a[i], b[i])
            assert stacked[i].tobytes() == single.tobytes()

    def test_runs_equal_per_run_one_to_many_bytes(self, name):
        metric = get_metric(name)
        counts = np.array([3, 0, 5, 1])
        queries, points = self._rows(4, 4, 8), self._rows(5, 9, 8)
        runs = metric.one_to_many_runs(queries, points, counts)
        ends = np.cumsum(counts)
        for i, count in enumerate(counts):
            run = points[ends[i] - count:ends[i]]
            assert runs[ends[i] - count:ends[i]].tobytes() == \
                metric.one_to_many(queries[i], run).tobytes()

    def test_rows_to_rows_matches_pairwise_diagonal(self, name):
        metric = get_metric(name)
        a, b = self._rows(6, 6, 5), self._rows(7, 6, 5)
        assert np.allclose(
            metric.prepared_rows_to_rows(metric.prepare(a.copy()),
                                         metric.prepare(b)),
            np.diag(metric.pairwise(a, b)), atol=1e-12)

    def test_hooks_rebuild_the_distances(self, name):
        """``from_products`` over prepared rows and their norms is the
        metric's distance (the form the search engines evaluate)."""
        metric = get_metric(name)
        a, b = self._rows(8, 4, 6), self._rows(9, 7, 6)
        pa, pb = metric.prepare(a), metric.prepare(b)
        norms_a, norms_b = metric.sq_norms(pa), metric.sq_norms(pb)
        products = pb @ pa.T  # (points, queries)
        if norms_a is None:
            assert norms_b is None
            rebuilt = metric.from_products(products)
        else:
            rebuilt = metric.from_products(products, norms_b[:, None],
                                           norms_a[None, :])
        assert np.allclose(rebuilt.T, metric.pairwise(a, b), atol=1e-9)
