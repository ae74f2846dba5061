"""Recall references: ground truth after deletes, and the per-row recall
loop the vectorised `recall_per_query` replaced."""

import numpy as np

from repro.errors import ConfigurationError


def mask_deleted_ground_truth(ground_truth: np.ndarray,
                              tombstones: np.ndarray) -> np.ndarray:
    """Exclude deleted ids from a ground-truth matrix.

    After deletes land on a mutable index, the exact neighbor sets
    computed against the original corpus still name the tombstoned
    points — which no correct search may return.  This masks those
    entries to ``-1``, the padding value
    :func:`~repro.metrics.recall.recall_per_query` excludes from its
    denominator, so recall-after-delete measures retrieval of the
    *surviving* true neighbors instead of punishing the index for
    honoring deletes.

    Args:
        ground_truth: ``(n_queries, k)`` int array of exact neighbor
            ids (``-1`` padding allowed).
        tombstones: ``(n_slots,)`` boolean mask of deleted ids.

    Returns:
        A new ``(n_queries, k)`` array with tombstoned ids replaced by
        ``-1``; the input is not modified.
    """
    ground_truth = np.asarray(ground_truth)
    tombstones = np.asarray(tombstones, dtype=bool)
    if ground_truth.ndim != 2:
        raise ConfigurationError(
            f"ground truth must be 2-D (n_queries, k), got shape "
            f"{ground_truth.shape}")
    if tombstones.ndim != 1:
        raise ConfigurationError(
            f"tombstones must be 1-D (n_slots,), got shape "
            f"{tombstones.shape}")
    valid = ground_truth >= 0
    if np.any(ground_truth[valid] >= len(tombstones)):
        raise ConfigurationError(
            "ground truth names ids beyond the tombstone mask")
    safe = np.where(valid, ground_truth, 0)
    dead = valid & tombstones[safe]
    return np.where(dead, -1, ground_truth)


def recall_per_query_rows(returned: np.ndarray,
                          ground_truth: np.ndarray) -> np.ndarray:
    """:func:`repro.metrics.recall.recall_per_query`, one row at a time.

    The per-row loop the vectorised body replaced (``np.unique`` and
    ``np.intersect1d`` per query), on arrays that already passed its
    checks: padding (any negative id) never counts, a repeated id counts
    once, and a row whose truth is all padding scores ``0.0``.
    """
    recall = np.zeros(returned.shape[0], dtype=np.float64)
    for i in range(returned.shape[0]):
        row = returned[i]
        row = row[row >= 0]
        truth = ground_truth[i]
        truth = np.unique(truth[truth >= 0])
        if truth.size == 0:
            continue
        recall[i] = np.intersect1d(row, truth).size / truth.size
    return recall
