"""Functional semantics of the warp-level primitives the GANNS kernel names.

Section III-B leans on three CUDA warp intrinsics:

- ``__shfl_down_sync`` — partial-sum aggregation in bulk distance
  computation (phase 3);
- ``__ballot_sync`` + ``__ffs`` — locating the first unexplored vertex in
  ``N`` (phase 1).

These implement their semantics over NumPy arrays, one warp at a time,
for the single-query kernel oracle (:mod:`tests.oracles.ganns_kernel`).
The library prices the same steps by formula
(:mod:`repro.gpusim.costs`) and never executes them.
"""

import numpy as np

from repro.errors import DeviceError


def _check_lane_count(values: np.ndarray, warp_size: int) -> None:
    if values.ndim != 1:
        raise DeviceError(
            f"warp primitive expects a 1-D lane array, got shape {values.shape}"
        )
    if len(values) != warp_size:
        raise DeviceError(
            f"warp primitive expects exactly {warp_size} lanes, "
            f"got {len(values)}"
        )


def shfl_down_sync(values: np.ndarray, delta: int,
                   warp_size: int = 32) -> np.ndarray:
    """Semantics of ``__shfl_down_sync(0xffffffff, value, delta)``.

    Each lane ``i`` receives the value held by lane ``i + delta``; lanes
    whose source falls off the end of the warp keep their own value, matching
    CUDA's behaviour.
    """
    _check_lane_count(values, warp_size)
    if delta < 0:
        raise DeviceError(f"shuffle delta must be non-negative, got {delta}")
    result = values.copy()
    if delta == 0:
        return result
    sources = np.arange(warp_size) + delta
    in_range = sources < warp_size
    result[in_range] = values[sources[in_range]]
    return result


def warp_reduce_sum(values: np.ndarray, warp_size: int = 32) -> float:
    """Sum all lanes with ``log2(warp_size)`` ``shfl_down`` steps.

    Returns the value lane 0 would hold after the reduction, i.e. the warp
    sum.
    """
    _check_lane_count(values, warp_size)
    acc = values.astype(np.float64, copy=True)
    delta = warp_size // 2
    while delta >= 1:
        acc = acc + shfl_down_sync(acc, delta, warp_size)
        delta //= 2
    return float(acc[0])


def ballot_sync(predicates: np.ndarray, warp_size: int = 32) -> int:
    """Semantics of ``__ballot_sync``: pack lane predicates into a bit mask.

    Lane ``i`` contributes bit ``i``; the full mask is returned to every
    lane (we return it once).
    """
    _check_lane_count(predicates, warp_size)
    mask = 0
    for lane, flag in enumerate(predicates):
        if flag:
            mask |= 1 << lane
    return mask


def ffs(mask: int) -> int:
    """Semantics of ``__ffs``: 1-based position of the least-significant set
    bit, 0 when the mask is empty."""
    if mask < 0:
        raise DeviceError(f"ffs mask must be non-negative, got {mask}")
    if mask == 0:
        return 0
    return (mask & -mask).bit_length()


def first_set_lane(predicates: np.ndarray, warp_size: int = 32) -> int:
    """The ballot + ffs idiom of GANNS phase (1).

    Returns the index of the first true lane, or ``-1`` when no lane's
    predicate holds.
    """
    return ffs(ballot_sync(predicates, warp_size)) - 1
