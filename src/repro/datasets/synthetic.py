"""Synthetic point-cloud generators.

Each generator returns a float32 ``(n, d)`` matrix.  The generators span the
statistical regimes the paper's datasets cover:

- :func:`gaussian_mixture` — balanced clusters, the shape of SIFT/GIST-like
  image descriptors;
- :func:`zipf_clustered` — Zipf-skewed cluster masses with anisotropic
  spreads, modelling the "heavily skewed" NYTimes/GloVe200 text embeddings
  the paper singles out as hard.

Real descriptor datasets have *low intrinsic dimensionality*: SIFT vectors
occupy 128 ambient dimensions but concentrate near a manifold of roughly a
dozen effective dimensions, and that is what makes proximity-graph search
work as well as the paper reports.  The clustered generators therefore
sample each cluster in a low-dimensional latent subspace (``intrinsic_dim``)
and embed it into the ambient space through a random linear map, plus a
small ambient noise floor.  Raising ``intrinsic_dim`` makes a dataset
genuinely harder — which is how the GIST/NYTimes/GloVe200 stand-ins earn
their "hard" label.

All generators take an explicit seed; the same call always yields the same
points, which is what makes the benchmark suite reproducible.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import DatasetError


def _validate(n_points: int, n_dims: int) -> None:
    if n_points <= 0:
        raise DatasetError(f"n_points must be positive, got {n_points}")
    if n_dims <= 0:
        raise DatasetError(f"n_dims must be positive, got {n_dims}")


def _embedding(rng: np.random.Generator, intrinsic_dim: int,
               n_dims: int) -> np.ndarray:
    """Random latent-to-ambient linear map with roughly unit gain."""
    basis = rng.normal(size=(intrinsic_dim, n_dims))
    return basis / np.sqrt(intrinsic_dim)


def _resolve_intrinsic(intrinsic_dim: Optional[int], n_dims: int) -> int:
    if intrinsic_dim is None:
        intrinsic_dim = min(16, n_dims)
    if not 1 <= intrinsic_dim <= n_dims:
        raise DatasetError(
            f"intrinsic_dim must lie in [1, {n_dims}], got {intrinsic_dim}"
        )
    return intrinsic_dim


def gaussian_mixture(n_points: int, n_dims: int, n_clusters: int = 32,
                     cluster_std: float = 0.15, spread: float = 1.0,
                     intrinsic_dim: Optional[int] = None,
                     ambient_noise: float = 0.01,
                     seed: int = 0) -> np.ndarray:
    """Balanced Gaussian-mixture cloud on a low-dimensional manifold.

    Cluster centers are drawn uniformly in the latent cube
    ``[-spread, spread]^q`` (``q = intrinsic_dim``); each point is its
    center plus isotropic latent noise of scale ``cluster_std * spread``,
    embedded into ``n_dims`` ambient dimensions by a shared random linear
    map, plus a small ambient noise floor.

    Args:
        n_points: Number of points to generate.
        n_dims: Ambient dimensionality.
        n_clusters: Number of mixture components; points are distributed
            round-robin so cluster sizes differ by at most one.
        cluster_std: Within-cluster latent standard deviation relative to
            spread.
        spread: Half-width of the latent center distribution.
        intrinsic_dim: Latent dimensionality; defaults to
            ``min(16, n_dims)``.  Larger values give a harder dataset.
        ambient_noise: Standard deviation of full-rank ambient noise,
            relative to spread.
        seed: RNG seed.
    """
    _validate(n_points, n_dims)
    if n_clusters <= 0:
        raise DatasetError(f"n_clusters must be positive, got {n_clusters}")
    intrinsic_dim = _resolve_intrinsic(intrinsic_dim, n_dims)
    rng = np.random.default_rng(seed)
    embedding = _embedding(rng, intrinsic_dim, n_dims)
    centers = rng.uniform(-spread, spread, size=(n_clusters, intrinsic_dim))
    assignment = np.arange(n_points) % n_clusters
    rng.shuffle(assignment)
    latent = centers[assignment] + rng.normal(
        0.0, cluster_std * spread, size=(n_points, intrinsic_dim))
    points = latent @ embedding
    points += rng.normal(0.0, ambient_noise * spread,
                         size=(n_points, n_dims))
    return points.astype(np.float32)


def zipf_clustered(n_points: int, n_dims: int, n_clusters: int = 64,
                   zipf_exponent: float = 1.2, cluster_std: float = 0.12,
                   anisotropy: float = 4.0, spread: float = 1.0,
                   intrinsic_dim: Optional[int] = None,
                   ambient_noise: float = 0.01,
                   seed: int = 0) -> np.ndarray:
    """Heavily skewed clustered cloud (the NYTimes/GloVe200 regime).

    Cluster masses follow a Zipf law (``mass_i ∝ (i + 1)^-s``), so a few
    dense clusters hold most points — the local-density skew that makes
    graph search on text embeddings hard.  Each cluster has anisotropic
    latent covariance: per-dimension scales drawn log-uniformly over
    ``[1/anisotropy, 1]``.

    Args:
        n_points: Number of points.
        n_dims: Ambient dimensionality.
        n_clusters: Number of clusters before mass skew.
        zipf_exponent: Zipf exponent ``s``; larger = more skew.
        cluster_std: Base within-cluster latent scale relative to spread.
        anisotropy: Ratio between the widest and narrowest latent
            dimension.
        spread: Half-width of the latent center distribution.
        intrinsic_dim: Latent dimensionality; defaults to
            ``min(16, n_dims)``; the hard text stand-ins raise it.
        ambient_noise: Full-rank noise floor relative to spread.
        seed: RNG seed.
    """
    _validate(n_points, n_dims)
    if n_clusters <= 0:
        raise DatasetError(f"n_clusters must be positive, got {n_clusters}")
    if zipf_exponent <= 0:
        raise DatasetError(
            f"zipf_exponent must be positive, got {zipf_exponent}")
    if anisotropy < 1.0:
        raise DatasetError(f"anisotropy must be >= 1, got {anisotropy}")
    intrinsic_dim = _resolve_intrinsic(intrinsic_dim, n_dims)
    rng = np.random.default_rng(seed)
    embedding = _embedding(rng, intrinsic_dim, n_dims)
    masses = (np.arange(1, n_clusters + 1, dtype=np.float64)
              ** (-zipf_exponent))
    masses /= masses.sum()
    counts = rng.multinomial(n_points, masses)
    centers = rng.uniform(-spread, spread, size=(n_clusters, intrinsic_dim))
    log_lo, log_hi = np.log(1.0 / anisotropy), 0.0
    latent = np.empty((n_points, intrinsic_dim))
    cursor = 0
    for cluster, count in enumerate(counts):
        if count == 0:
            continue
        scales = np.exp(rng.uniform(log_lo, log_hi, size=intrinsic_dim))
        noise = rng.normal(0.0, cluster_std * spread,
                           size=(count, intrinsic_dim))
        latent[cursor:cursor + count] = centers[cluster] + noise * scales
        cursor += count
    rng.shuffle(latent)
    points = latent @ embedding
    points += rng.normal(0.0, ambient_noise * spread,
                         size=(n_points, n_dims))
    return points.astype(np.float32)
