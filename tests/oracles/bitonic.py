"""Bitonic sorting and merging networks (Batcher, 1968).

GANNS sorts the neighbor buffer ``T`` with a bitonic network (phase 5) and
merges it into the pool ``N`` with a bitonic merger (phase 6, the
Faiss-style sorted-list merge).  These are the exact compare-exchange
schedules a GPU block would execute, over one or many rows at once, for
the single-query kernel oracle (:mod:`tests.oracles.ganns_kernel`).  The
library sorts with ``lexsort`` / rank merges and prices the networks by
formula (:meth:`repro.gpusim.costs.CostTable.ganns_sort_cycles`,
:meth:`~repro.gpusim.costs.CostTable.ganns_merge_cycles`).

Records are keyed lexicographically by ``(primary, secondary, ..., id)``
— the paper breaks distance ties "by vertex ID", which also makes every
network output deterministic.  All lengths must be powers of two; a GPU
buffer is padded with ``+inf`` keys and ``-1`` ids.
"""

from typing import List, Sequence, Tuple

import numpy as np

from repro.core.params import is_pow2
from repro.errors import DeviceError


def _lexicographic_greater(keys_a: Sequence[np.ndarray],
                           keys_b: Sequence[np.ndarray]) -> np.ndarray:
    """Elementwise ``a > b`` under lexicographic multi-key comparison."""
    greater = np.zeros(keys_a[0].shape, dtype=bool)
    tied = np.ones(keys_a[0].shape, dtype=bool)
    for a, b in zip(keys_a, keys_b):
        greater |= tied & (a > b)
        tied &= (a == b)
    return greater


def _compare_exchange(keys: List[np.ndarray], idx_lo: np.ndarray,
                      idx_hi: np.ndarray) -> None:
    """Swap records at (idx_lo, idx_hi) wherever lo's keys exceed hi's.

    Operates in place on every key array, along the last axis; rows (if any)
    are processed simultaneously, which mirrors the per-thread-block
    execution of the network across a batch of blocks.
    """
    lo_keys = [k[..., idx_lo] for k in keys]
    hi_keys = [k[..., idx_hi] for k in keys]
    swap = _lexicographic_greater(lo_keys, hi_keys)
    for k, lo_vals, hi_vals in zip(keys, lo_keys, hi_keys):
        k[..., idx_lo] = np.where(swap, hi_vals, lo_vals)
        k[..., idx_hi] = np.where(swap, lo_vals, hi_vals)


def bitonic_sort_network(*keys: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Sort records ascending with Batcher's bitonic sorting network.

    Args:
        *keys: One or more arrays of identical shape; the last axis is
            sorted.  Records are compared lexicographically across the key
            arrays in order, so passing ``(distance, vertex_id)`` gives the
            paper's distance-then-id ordering.  Every array is both a sort
            key and a carried payload.

    Returns:
        New arrays with each row sorted.  The input arrays are not modified.

    Raises:
        DeviceError: If the last-axis length is not a power of two (pad
            first, as a GPU buffer would be).
    """
    if not keys:
        raise DeviceError("bitonic_sort_network requires at least one key array")
    n = keys[0].shape[-1]
    for k in keys:
        if k.shape != keys[0].shape:
            raise DeviceError("all key arrays must share one shape")
    if not is_pow2(n):
        raise DeviceError(
            f"bitonic network length must be a power of two, got {n}"
        )
    work = [np.array(k, copy=True) for k in keys]
    if n == 1:
        return tuple(work)
    indices = np.arange(n)
    size = 2
    while size <= n:
        # First stage of each size: "green" compare against the mirrored
        # partner, which turns two sorted runs into a bitonic sequence
        # sorted ascending.
        half = size // 2
        lo = indices[(indices % size) < half]
        hi = (lo // size) * size + (size - 1 - (lo % size))
        _compare_exchange(work, lo, hi)
        stride = half // 2
        while stride >= 1:
            lo = indices[(indices % (stride * 2)) < stride]
            hi = lo + stride
            _compare_exchange(work, lo, hi)
            stride //= 2
        size *= 2
    return tuple(work)


def bitonic_merge_network(*keys: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Merge two equal-halves-sorted rows into one sorted row.

    The first half of the last axis and the second half must each already be
    sorted ascending; the second half is reversed internally to form a
    bitonic sequence and the merge stages of Batcher's network finish the
    job in ``log2(n)`` stages — the phase-(6) candidate update.
    """
    if not keys:
        raise DeviceError("bitonic_merge_network requires at least one key array")
    n = keys[0].shape[-1]
    if not is_pow2(n):
        raise DeviceError(
            f"bitonic network length must be a power of two, got {n}"
        )
    work = [np.array(k, copy=True) for k in keys]
    if n == 1:
        return tuple(work)
    half = n // 2
    for k in work:
        k[..., half:] = k[..., half:][..., ::-1]
    indices = np.arange(n)
    stride = half
    while stride >= 1:
        lo = indices[(indices % (stride * 2)) < stride]
        hi = lo + stride
        _compare_exchange(work, lo, hi)
        stride //= 2
    return tuple(work)
