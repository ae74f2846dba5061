"""Exact k-nearest-neighbor ground truth via brute force.

Recall needs the true neighbor sets.  Brute force over a chunked distance
matrix is exact, deterministic (distance ties broken by vertex id, matching
the tie rule used throughout the library) and fast enough at the scales the
stand-in datasets use.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from repro.core.params import as_count
from repro.errors import DatasetError
from repro.metrics.distance import Metric, get_metric


def exact_knn(points: np.ndarray, queries: np.ndarray, k: int,
              metric: Union[str, Metric] = "euclidean",
              chunk_size: int = 256,
              return_distances: bool = False
              ) -> Union[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
    """Exact k nearest neighbors of each query by brute force.

    Args:
        points: ``(n, d)`` float data matrix.
        queries: ``(m, d)`` float query matrix.
        k: Neighbors per query; must satisfy ``1 <= k <= n``.
        metric: Metric name or instance.
        chunk_size: Queries processed per distance-matrix chunk, bounding
            peak memory at ``chunk_size * n`` floats.
        return_distances: Also return the ``(m, k)`` distance matrix.

    Returns:
        ``(m, k)`` int64 ids ordered by increasing distance (ties by id),
        optionally with the matching distances.

    Raises:
        DatasetError: On non-2-D or mismatched matrices, a non-finite
            coordinate, or a ``k`` that is not an integer in
            ``[1, n]``.
    """
    points = np.asarray(points)
    queries = np.asarray(queries)
    if points.ndim != 2 or queries.ndim != 2:
        raise DatasetError(
            f"points and queries must be 2-D, got shapes {points.shape} "
            f"and {queries.shape}"
        )
    if points.shape[1] != queries.shape[1]:
        raise DatasetError(
            f"dimensionality mismatch: points are {points.shape[1]}-d, "
            f"queries are {queries.shape[1]}-d"
        )
    if not (np.isfinite(points).all() and np.isfinite(queries).all()):
        raise DatasetError(
            "points and queries must be finite: a non-finite coordinate "
            "has no distance order, so there is no true neighbor set"
        )
    n = len(points)
    k = as_count(k, "k", error=DatasetError)
    if not 1 <= k <= n:
        raise DatasetError(f"k must lie in [1, {n}], got {k}")
    if chunk_size <= 0:
        raise DatasetError(f"chunk_size must be positive, got {chunk_size}")
    if isinstance(metric, str):
        metric = get_metric(metric)

    m = len(queries)
    ids = np.empty((m, k), dtype=np.int64)
    dists = np.empty((m, k), dtype=np.float64)
    for start in range(0, m, chunk_size):
        stop = min(start + chunk_size, m)
        block = metric.pairwise(queries[start:stop], points)
        if k < n:
            part = np.argpartition(block, k - 1, axis=1)[:, :k]
        else:
            part = np.broadcast_to(np.arange(n), (stop - start, n)).copy()
        part_dists = np.take_along_axis(block, part, axis=1)
        # Order each row by (distance, id) for a deterministic ranking.
        order = np.lexsort((part, part_dists), axis=1)
        ids[start:stop] = np.take_along_axis(part, order, axis=1)
        dists[start:stop] = np.take_along_axis(part_dists, order, axis=1)
    if return_distances:
        return ids, dists
    return ids
