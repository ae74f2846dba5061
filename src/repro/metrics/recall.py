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
    truth, truth_first = _distinct_ids(ground_truth)
    found, found_first = _distinct_ids(returned)
    # Each row's distinct truth ids and distinct returned ids side by
    # side (everything else -1): an id in both sets is an adjacent pair
    # once the row is sorted.
    both = np.sort(np.concatenate(
        [np.where(truth_first, truth, -1),
         np.where(found_first, found, -1)], axis=1), axis=1)
    hits = np.count_nonzero((both[:, 1:] == both[:, :-1])
                            & (both[:, 1:] >= 0), axis=1)
    sizes = np.count_nonzero(truth_first, axis=1)
    recall = np.zeros(returned.shape[0], dtype=np.float64)
    np.divide(hits, sizes, out=recall, where=sizes > 0)
    return recall


def _distinct_ids(ids: np.ndarray):
    """``ids`` sorted row-wise as int64, and a mask of each row's first
    occurrence of every non-negative id (padding and repeats masked)."""
    ordered = np.sort(ids.astype(np.int64, copy=False), axis=1)
    first = ordered >= 0
    first[:, 1:] &= ordered[:, 1:] != ordered[:, :-1]
    return ordered, first


def recall_at_k(returned: np.ndarray, ground_truth: np.ndarray) -> float:
    """Mean recall across queries (the number Figures 6/8/12 plot)."""
    return float(recall_per_query(returned, ground_truth).mean())
