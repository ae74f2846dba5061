"""Tests for brute-force exact kNN."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.ground_truth import exact_knn
from repro.errors import DatasetError


class TestExactKnn:
    def test_trivial_geometry(self):
        points = np.array([[0.0], [1.0], [2.0], [10.0]])
        queries = np.array([[0.4]])
        ids = exact_knn(points, queries, 2)
        assert np.array_equal(ids, [[0, 1]])

    def test_returns_distances_when_asked(self):
        points = np.array([[0.0], [3.0]])
        queries = np.array([[0.0]])
        ids, dists = exact_knn(points, queries, 2, return_distances=True)
        assert np.array_equal(ids, [[0, 1]])
        assert np.allclose(dists, [[0.0, 9.0]])

    def test_k_equals_n(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(5, 3))
        ids = exact_knn(points, points[:2], 5)
        assert sorted(ids[0]) == [0, 1, 2, 3, 4]

    def test_chunking_invariant(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(60, 4))
        queries = rng.normal(size=(17, 4))
        a = exact_knn(points, queries, 7, chunk_size=3)
        b = exact_knn(points, queries, 7, chunk_size=1000)
        assert np.array_equal(a, b)

    def test_tie_break_by_id(self):
        # Two points at identical distance: lower id wins.
        points = np.array([[1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
        queries = np.array([[0.0, 0.0]])
        ids = exact_knn(points, queries, 2)
        assert np.array_equal(ids, [[0, 1]])

    def test_cosine_metric(self):
        points = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.1]])
        queries = np.array([[1.0, 0.0]])
        ids = exact_knn(points, queries, 2, metric="cosine")
        assert np.array_equal(ids, [[0, 2]])

    @given(st.integers(min_value=1, max_value=20),
           st.integers(min_value=0, max_value=1000))
    @settings(max_examples=30, deadline=None)
    def test_results_sorted_by_distance(self, k, seed):
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(25, 4))
        queries = rng.normal(size=(3, 4))
        k = min(k, 25)
        ids, dists = exact_knn(points, queries, k, return_distances=True)
        assert (np.diff(dists, axis=1) >= -1e-12).all()
        # ids unique per row
        for row in ids:
            assert len(set(row.tolist())) == k

    def test_validation_errors(self):
        points = np.zeros((10, 3))
        queries = np.zeros((2, 3))
        with pytest.raises(DatasetError, match="k must lie"):
            exact_knn(points, queries, 0)
        with pytest.raises(DatasetError, match="k must lie"):
            exact_knn(points, queries, 11)
        with pytest.raises(DatasetError, match="chunk_size"):
            exact_knn(points, queries, 2, chunk_size=0)
        with pytest.raises(DatasetError, match="dimensionality"):
            exact_knn(points, np.zeros((2, 4)), 2)
        with pytest.raises(DatasetError, match="2-D"):
            exact_knn(np.zeros(10), queries, 2)

    @pytest.mark.parametrize("bad,match", [
        ("nan_query", "must be finite"),
        ("nan_corpus", "must be finite"),
        ("inf_corpus", "must be finite"),
        ("float_k", "k must be an integer"),
        ("bool_k", "k must be an integer"),
    ])
    def test_refuses_what_has_no_true_neighbors(self, bad, match):
        """A non-finite coordinate has no distance order and a
        fractional ``k`` no meaning: ``DatasetError``, not an answer."""
        points = np.arange(30.0).reshape(10, 3)
        queries = np.zeros((2, 3))
        k = 3
        if bad == "nan_query":
            queries[1, 0] = np.nan
        elif bad == "nan_corpus":
            points[:] = np.nan
        elif bad == "inf_corpus":
            points[4, 2] = np.inf
        else:
            k = 2.5 if bad == "float_k" else True
        with pytest.raises(DatasetError, match=match):
            exact_knn(points, queries, k)
