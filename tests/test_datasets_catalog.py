"""Tests for the Table I dataset stand-ins."""

import numpy as np
import pytest

from repro.datasets.catalog import (
    DATASET_SPECS,
    Dataset,
    dataset_names,
    load_dataset,
)
from repro.errors import DatasetError


class TestSpecs:
    def test_all_ten_table1_datasets_present(self):
        assert set(dataset_names()) == {
            "sift1m", "gist", "nytimes", "glove200", "uq_v", "msong",
            "notre", "ukbench", "deep", "sift10m",
        }

    def test_dimensions_match_table1(self):
        expected = {"sift1m": 128, "gist": 960, "nytimes": 256,
                    "glove200": 200, "uq_v": 256, "msong": 420,
                    "notre": 128, "ukbench": 128, "deep": 96,
                    "sift10m": 32}
        for name, dims in expected.items():
            assert DATASET_SPECS[name].n_dims == dims

    def test_metrics_match_table1(self):
        for name, spec in DATASET_SPECS.items():
            if name in ("nytimes", "glove200"):
                assert spec.metric == "cosine"
            else:
                assert spec.metric == "euclidean"

    def test_hard_datasets_flagged(self):
        hard = {name for name, spec in DATASET_SPECS.items() if spec.hard}
        assert hard == {"gist", "nytimes", "glove200"}

    def test_scaled_points_preserve_relative_sizes(self):
        sift = DATASET_SPECS["sift1m"].scaled_points(10_000)
        deep = DATASET_SPECS["deep"].scaled_points(10_000)
        sift10m = DATASET_SPECS["sift10m"].scaled_points(10_000)
        assert deep == 8 * sift
        assert sift10m == 10 * sift

    def test_scaled_points_floor(self):
        assert DATASET_SPECS["nytimes"].scaled_points(100) >= 1000


class TestLoadDataset:
    def test_basic_load(self):
        ds = load_dataset("sift1m", n_points=500, n_queries=20)
        assert ds.n_points == 500
        assert ds.n_queries == 20
        assert ds.n_dims == 128
        assert ds.metric_name == "euclidean"

    def test_case_insensitive(self):
        ds = load_dataset("SIFT1M", n_points=100, n_queries=5)
        assert ds.name == "sift1m"

    def test_unknown_name(self):
        with pytest.raises(DatasetError, match="valid names"):
            load_dataset("imagenet")

    def test_rejects_bad_sizes(self):
        with pytest.raises(DatasetError):
            load_dataset("sift1m", n_points=0)
        with pytest.raises(DatasetError):
            load_dataset("sift1m", n_points=10, n_queries=0)

    def test_queries_disjoint_from_points(self):
        ds = load_dataset("sift1m", n_points=200, n_queries=50)
        # Different seeds -> no identical rows.
        assert not (ds.points[:, None, :] == ds.queries[None, :, :]).all(
            axis=2).any()

    def test_deterministic(self):
        a = load_dataset("gist", n_points=100, n_queries=5)
        b = load_dataset("gist", n_points=100, n_queries=5)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.queries, b.queries)


class TestDatasetMethods:
    @pytest.fixture(scope="class")
    def dataset(self):
        return load_dataset("sift1m", n_points=400, n_queries=15)

    def test_ground_truth_shape_and_cache(self, dataset):
        gt = dataset.ground_truth(5)
        assert gt.shape == (15, 5)
        assert dataset.ground_truth(5) is gt  # cached

    def test_ground_truth_is_exact(self, dataset):
        gt = dataset.ground_truth(3)
        metric = dataset.metric
        for row in range(3):
            dists = metric.one_to_many(dataset.queries[row], dataset.points)
            order = np.lexsort((np.arange(len(dists)), dists))
            assert np.array_equal(gt[row], order[:3])

    def test_truncate_dims(self, dataset):
        smaller = dataset.truncate_dims(32)
        assert smaller.n_dims == 32
        assert np.array_equal(smaller.points, dataset.points[:, :32])
        assert smaller.n_points == dataset.n_points

    def test_truncate_dims_bounds(self, dataset):
        with pytest.raises(DatasetError):
            dataset.truncate_dims(0)
        with pytest.raises(DatasetError):
            dataset.truncate_dims(dataset.n_dims + 1)

    def test_metric_object(self, dataset):
        assert dataset.metric.name == "euclidean"
