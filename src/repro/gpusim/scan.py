"""Segment flags and CSR offsets over a sorted id array.

GGraphCon's merge phase organises the backward-edge list ``E`` into CSR
form by flagging the first edge of each starting vertex and prefix-summing
the flags (Section IV-B, merge Step 2).  The prefix sum itself is priced
by :mod:`repro.gpusim.costs`; these helpers compute its result.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DeviceError


def segment_starts(sorted_ids: np.ndarray) -> np.ndarray:
    """Flag array ``I``: 1 where a run of equal ids begins, else 0.

    This is exactly the flagging step of GGraphCon merge Step 2: after
    bitonic-sorting ``E`` by starting vertex, ``I[i] = 1`` iff edge ``i`` is
    the first edge of its starting vertex.
    """
    sorted_ids = np.asarray(sorted_ids)
    if sorted_ids.ndim != 1:
        raise DeviceError(
            f"segment_starts expects a 1-D id array, got shape "
            f"{sorted_ids.shape}"
        )
    if len(sorted_ids) == 0:
        return np.zeros(0, dtype=np.int64)
    flags = np.ones(len(sorted_ids), dtype=np.int64)
    flags[1:] = (sorted_ids[1:] != sorted_ids[:-1]).astype(np.int64)
    return flags


def csr_offsets_from_sorted_ids(sorted_ids: np.ndarray) -> np.ndarray:
    """Start offsets of each id run in a sorted id array (CSR row pointer).

    Returns the positions where each distinct starting vertex's edges begin,
    with a terminating sentinel equal to the array length, so segment ``i``
    spans ``[offsets[i], offsets[i + 1])`` — the ``I`` array of merge Step 3.
    """
    flags = segment_starts(sorted_ids)
    starts = np.flatnonzero(flags)
    return np.concatenate([starts, [len(sorted_ids)]]).astype(np.int64)
