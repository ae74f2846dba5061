"""Tests for the synthetic data generators."""

import numpy as np
import pytest

from repro.datasets.synthetic import gaussian_mixture, zipf_clustered
from repro.errors import DatasetError
from tests.oracles.synthetic import hypersphere_shell, uniform_hypercube


class TestCommonContracts:
    @pytest.mark.parametrize("generator", [
        gaussian_mixture, zipf_clustered, uniform_hypercube,
        hypersphere_shell,
    ])
    def test_shape_and_dtype(self, generator):
        points = generator(100, 16, seed=0)
        assert points.shape == (100, 16)
        assert points.dtype == np.float32
        assert np.isfinite(points).all()

    @pytest.mark.parametrize("generator", [
        gaussian_mixture, zipf_clustered, uniform_hypercube,
        hypersphere_shell,
    ])
    def test_deterministic_under_seed(self, generator):
        a = generator(50, 8, seed=42)
        b = generator(50, 8, seed=42)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("generator", [
        gaussian_mixture, zipf_clustered, uniform_hypercube,
        hypersphere_shell,
    ])
    def test_seed_changes_output(self, generator):
        a = generator(50, 8, seed=1)
        b = generator(50, 8, seed=2)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("generator", [
        gaussian_mixture, zipf_clustered, uniform_hypercube,
        hypersphere_shell,
    ])
    def test_rejects_bad_sizes(self, generator):
        with pytest.raises(DatasetError):
            generator(0, 8)
        with pytest.raises(DatasetError):
            generator(10, 0)


class TestGaussianMixture:
    def test_rejects_bad_clusters(self):
        with pytest.raises(DatasetError, match="n_clusters"):
            gaussian_mixture(10, 4, n_clusters=0)

    def test_rejects_bad_intrinsic_dim(self):
        with pytest.raises(DatasetError, match="intrinsic_dim"):
            gaussian_mixture(10, 4, intrinsic_dim=8)

    def test_clustered_data_is_not_uniform(self):
        """Nearest-neighbor distances in clustered data are much smaller
        than in uniform data of the same scale."""
        from repro.metrics.distance import EuclideanMetric
        metric = EuclideanMetric()
        clustered = gaussian_mixture(300, 16, n_clusters=8,
                                     cluster_std=0.05, seed=0)
        uniform = uniform_hypercube(300, 16, seed=0)

        def median_nn(points):
            d = metric.pairwise(points, points)
            np.fill_diagonal(d, np.inf)
            return np.median(d.min(axis=1))

        assert median_nn(clustered) < 0.5 * median_nn(uniform)

    def test_intrinsic_dim_controls_effective_rank(self):
        low = gaussian_mixture(500, 64, intrinsic_dim=4,
                               ambient_noise=1e-4, seed=0)
        high = gaussian_mixture(500, 64, intrinsic_dim=32,
                                ambient_noise=1e-4, seed=0)

        def effective_rank(points):
            centered = points - points.mean(axis=0)
            s = np.linalg.svd(centered, compute_uv=False)
            energy = s ** 2 / (s ** 2).sum()
            return np.exp(-(energy * np.log(energy + 1e-12)).sum())

        assert effective_rank(low) < 0.5 * effective_rank(high)


class TestZipfClustered:
    def test_rejects_bad_parameters(self):
        with pytest.raises(DatasetError, match="zipf_exponent"):
            zipf_clustered(10, 4, zipf_exponent=0)
        with pytest.raises(DatasetError, match="anisotropy"):
            zipf_clustered(10, 4, anisotropy=0.5)

    def test_cluster_mass_is_skewed(self):
        """With a strong Zipf exponent, most points concentrate near a few
        dense regions: the pairwise-distance distribution is heavily
        skewed compared to a balanced mixture."""
        skewed = zipf_clustered(1000, 16, n_clusters=32, zipf_exponent=1.5,
                                cluster_std=0.05, seed=0)
        from repro.metrics.distance import EuclideanMetric
        d = EuclideanMetric().pairwise(skewed[:400], skewed[:400])
        np.fill_diagonal(d, np.nan)
        flat = d[~np.isnan(d)]
        # A large fraction of pairs are near-collocated (same dense
        # cluster) while the rest are far: strong bimodality.
        near = (flat < np.nanquantile(flat, 0.5) * 0.1).mean()
        assert near > 0.05


class TestHypersphereShell:
    def test_unit_norm(self):
        points = hypersphere_shell(200, 12, seed=0)
        norms = np.linalg.norm(points.astype(np.float64), axis=1)
        assert np.allclose(norms, 1.0, atol=1e-5)

    def test_concentration_tightens_clusters(self):
        tight = hypersphere_shell(200, 12, n_clusters=4,
                                  concentration=100.0, seed=0)
        loose = hypersphere_shell(200, 12, n_clusters=4,
                                  concentration=2.0, seed=0)
        from repro.metrics.distance import CosineMetric
        metric = CosineMetric()

        def median_nn(points):
            d = metric.pairwise(points, points)
            np.fill_diagonal(d, np.inf)
            return np.median(d.min(axis=1))

        assert median_nn(tight) < median_nn(loose)

    def test_rejects_bad_concentration(self):
        with pytest.raises(DatasetError, match="concentration"):
            hypersphere_shell(10, 4, concentration=0)
