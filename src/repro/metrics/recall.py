"""Recall computation.

The paper's accuracy measure (Section II-A and V): for a query ``q`` with
exact neighbor set ``N(q)`` and returned set ``X``, precision/recall is
``|X ∩ N(q)| / k``.  Both sets have size ``k``, so precision and recall
coincide; the paper calls it recall and so do we.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


def recall_per_query(returned: np.ndarray, ground_truth: np.ndarray) -> np.ndarray:
    """Per-query recall of returned neighbor ids against the truth.

    Args:
        returned: ``(n_queries, k)`` int array of returned ids.  Entries of
            ``-1`` denote padding (fewer than ``k`` results) and never match.
            ``k`` may differ from the ground-truth width: extra returned
            columns can only add hits, never change the denominator.
        ground_truth: ``(n_queries, k)`` int array of exact neighbor ids.
            ``-1`` entries denote padding (fewer than ``k`` true neighbors
            exist) and are excluded from the denominator, so recall stays
            in ``[0, 1]`` even on padded rows.  Duplicate ids in either
            array are counted once.

    Returns:
        ``(n_queries,)`` float array of recall values in ``[0, 1]``.  A
        row whose ground truth is entirely padding has recall ``0.0``.

    Raises:
        ConfigurationError: On a non-integer id dtype (a float matrix
            would score its NaN entries as silent misses), arrays that
            are not 2-D, or differing query counts.
    """
    returned = np.asarray(returned)
    ground_truth = np.asarray(ground_truth)
    for name, ids in (("returned", returned), ("ground truth", ground_truth)):
        if not np.issubdtype(ids.dtype, np.integer):
            raise ConfigurationError(
                f"recall expects integer id arrays, got {name} of dtype "
                f"{ids.dtype}"
            )
    if returned.ndim != 2 or ground_truth.ndim != 2:
        raise ConfigurationError(
            "recall expects 2-D (n_queries, k) id arrays, got shapes "
            f"{returned.shape} and {ground_truth.shape}"
        )
    if returned.shape[0] != ground_truth.shape[0]:
        raise ConfigurationError(
            f"query counts differ: {returned.shape[0]} returned vs "
            f"{ground_truth.shape[0]} ground truth"
        )
    if ground_truth.shape[1] == 0:
        raise ConfigurationError("ground truth must contain at least 1 neighbor")
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


def recall_at_k(returned: np.ndarray, ground_truth: np.ndarray) -> float:
    """Mean recall across queries (the number Figures 6/8/12 plot)."""
    return float(recall_per_query(returned, ground_truth).mean())
