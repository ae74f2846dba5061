"""Point clouds outside the catalog's regimes, for stress and cosine tests:

- :func:`uniform_hypercube` — the structure-free worst case;
- :func:`hypersphere_shell` — unit-norm clustered points.
"""

from typing import Optional

import numpy as np

from repro.datasets.synthetic import _embedding, _resolve_intrinsic, \
    _validate
from repro.errors import DatasetError


def uniform_hypercube(n_points: int, n_dims: int, spread: float = 1.0,
                      seed: int = 0) -> np.ndarray:
    """Uniform points in ``[-spread, spread]^d`` — no cluster structure.

    Full intrinsic dimensionality by design: the worst case for proximity
    graphs, useful for stress tests.
    """
    _validate(n_points, n_dims)
    rng = np.random.default_rng(seed)
    return rng.uniform(-spread, spread,
                       size=(n_points, n_dims)).astype(np.float32)


def hypersphere_shell(n_points: int, n_dims: int, n_clusters: int = 32,
                      concentration: float = 12.0,
                      intrinsic_dim: Optional[int] = None,
                      seed: int = 0) -> np.ndarray:
    """Unit-norm clustered points, for cosine-metric workloads.

    Cluster directions are drawn in a latent subspace and embedded; points
    are directionally perturbed around their cluster direction with a
    Gaussian kick whose tightness grows with ``concentration``, then
    renormalised onto the unit sphere.
    """
    _validate(n_points, n_dims)
    if n_clusters <= 0:
        raise DatasetError(f"n_clusters must be positive, got {n_clusters}")
    if concentration <= 0:
        raise DatasetError(
            f"concentration must be positive, got {concentration}")
    intrinsic_dim = _resolve_intrinsic(intrinsic_dim, n_dims)
    rng = np.random.default_rng(seed)
    embedding = _embedding(rng, intrinsic_dim, n_dims)
    directions = rng.normal(size=(n_clusters, intrinsic_dim))
    assignment = np.arange(n_points) % n_clusters
    rng.shuffle(assignment)
    kick = rng.normal(0.0, 1.0 / np.sqrt(concentration),
                      size=(n_points, intrinsic_dim))
    latent = directions[assignment] + kick
    points = latent @ embedding
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    return points.astype(np.float32)
