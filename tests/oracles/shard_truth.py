"""Per-shard exact ground truth: the serving cluster's reference answers."""

from typing import Dict, List

import numpy as np

from repro.core.construction import validated_points
from repro.datasets.ground_truth import exact_knn
from repro.errors import ConstructionError


def shard_ground_truth(points: np.ndarray, queries: np.ndarray,
                       assignment: np.ndarray, k: int,
                       metric: str = "euclidean"
                       ) -> List[Dict[str, np.ndarray]]:
    """Per-shard exact top-k in *global* ids, safe for small shards.

    The serving cluster's correctness story needs a reference answer
    per shard: what each shard *should* return for every query.  The
    subtlety is a shard holding fewer than ``k`` points — naively
    asking :func:`~repro.datasets.ground_truth.exact_knn` for ``k``
    neighbors there raises, and naively padding with repeats would
    inflate recall denominators downstream.  This helper clamps the
    request to the shard size and pads the tail with ``-1`` ids and
    ``inf`` distances — the padding convention
    :func:`repro.metrics.recall.recall_per_query` excludes from the
    denominator and the scatter-gather merge treats as losing every
    comparison.

    Args:
        points: ``(n, d)`` corpus in global id order.
        queries: ``(m, d)`` query matrix.
        assignment: ``(n,)`` shard index per global point id.
        k: Neighbors requested per query.
        metric: Metric name.

    Returns:
        One dict per shard with ``"ids"`` (``(m, k)`` int64 global
        ids, ``-1``-padded) and ``"dists"`` (``(m, k)`` float64,
        ``inf``-padded), both sorted by ``(distance, id)`` per row.

    Raises:
        ConstructionError: On an empty or non-finite corpus, a
            non-positive ``k``,
            or an assignment that does not cover the corpus.
    """
    points = validated_points(points)
    queries = np.asarray(queries)
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.shape != (len(points),):
        raise ConstructionError(
            f"assignment shape {assignment.shape} does not cover "
            f"{len(points)} points"
        )
    if k <= 0:
        raise ConstructionError(f"k must be positive, got {k}")
    if assignment.min() < 0:
        raise ConstructionError("assignment contains negative shards")
    n_shards = int(assignment.max()) + 1
    m = len(queries)
    results: List[Dict[str, np.ndarray]] = []
    for shard in range(n_shards):
        members = np.flatnonzero(assignment == shard)
        ids = np.full((m, k), -1, dtype=np.int64)
        dists = np.full((m, k), np.inf, dtype=np.float64)
        if len(members):
            # Clamp: a shard with fewer than k points answers with
            # everything it has; the tail stays padding.
            k_eff = min(k, len(members))
            local_ids, local_dists = exact_knn(
                points[members], queries, k_eff, metric=metric,
                return_distances=True)
            ids[:, :k_eff] = members[local_ids]
            dists[:, :k_eff] = local_dists
        results.append({"ids": ids, "dists": dists})
    return results
