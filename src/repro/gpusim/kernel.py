"""Kernel-launch scheduling: per-block cycles to elapsed wall time.

A simulated kernel launch is described by the device, the block shape
(threads, shared memory) and the per-block cycle counts produced by a
:class:`repro.gpusim.tracker.CycleTracker`.  The device can keep a limited
number of blocks resident at once (the occupancy calculation in
:meth:`repro.gpusim.device.DeviceSpec.concurrent_blocks`); excess blocks
queue, exactly as the hardware scheduler drains a grid.  The makespan of the
resulting schedule, converted through the core clock and the calibration
scale, is the launch's elapsed time.

This is the piece that turns "GANNS does fewer serialized steps per
iteration" into "GANNS answers more queries per second".
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.gpusim.costs import DEFAULT_COSTS
from repro.gpusim.device import DeviceSpec, QUADRO_P5000


@dataclass(frozen=True)
class LaunchResult:
    """Outcome of scheduling one simulated kernel launch.

    Attributes:
        n_blocks: Number of thread blocks in the grid.
        concurrency: Blocks the device kept resident at once.
        total_cycles: Sum of cycles across all blocks (device *work*).
        makespan_cycles: Longest-finishing slot (device *time*, in cycles).
        seconds: Elapsed wall time after clock conversion and calibration.
    """

    n_blocks: int
    concurrency: int
    total_cycles: float
    makespan_cycles: float
    seconds: float


def _makespan(block_cycles: np.ndarray, concurrency: int) -> float:
    """Makespan of a longest-processing-time greedy schedule.

    Blocks are dispatched to the earliest-free slot in descending cost
    order, which models (and slightly idealises) the hardware block
    scheduler back-filling SMs as blocks retire.
    """
    n_blocks = len(block_cycles)
    if n_blocks == 0:
        return 0.0
    if concurrency >= n_blocks:
        return float(block_cycles.max())
    if np.all(block_cycles == block_cycles[0]):
        # Uniform blocks: closed form avoids the heap entirely.
        waves = -(-n_blocks // concurrency)
        return float(waves * block_cycles[0])
    order = np.argsort(block_cycles)[::-1]
    slots = [0.0] * concurrency
    heapq.heapify(slots)
    for idx in order:
        earliest = heapq.heappop(slots)
        heapq.heappush(slots, earliest + float(block_cycles[idx]))
    return max(slots)


class KernelLaunch:
    """One simulated kernel launch against a device.

    Args:
        device: Device to launch on (defaults to the paper's P5000).
        n_threads: Threads per block (``n_t``); must be a positive multiple
            of nothing in particular — sub-warp blocks of 4..32 threads are
            exactly what Figure 10 sweeps.
        shared_mem_bytes: Shared memory per block, for the occupancy bound.
    """

    def __init__(self, device: DeviceSpec = QUADRO_P5000, n_threads: int = 32,
                 shared_mem_bytes: int = 0):
        if n_threads <= 0:
            raise ConfigurationError(
                f"n_threads must be positive, got {n_threads}"
            )
        self.device = device
        self.n_threads = int(n_threads)
        self.shared_mem_bytes = int(shared_mem_bytes)
        # Scheduling granularity is one warp even for sub-warp blocks: a
        # 4-thread block still occupies a full warp slot on the SM.
        slot_threads = max(self.n_threads, device.warp_size)
        self._concurrency = device.concurrent_blocks(
            slot_threads, shared_mem_bytes)

    def run(self, block_cycles: Union[float, Sequence[float], np.ndarray],
            n_blocks: int = 0) -> LaunchResult:
        """Schedule the grid and return its elapsed time.

        Args:
            block_cycles: Per-block cycle counts.  A scalar means every
                block costs the same; pass ``n_blocks`` alongside it.
            n_blocks: Grid size when ``block_cycles`` is a scalar; ignored
                (and validated) otherwise.

        Returns:
            A :class:`LaunchResult` with work, makespan and seconds.
        """
        if np.isscalar(block_cycles):
            if n_blocks <= 0:
                raise ConfigurationError(
                    "scalar block_cycles requires a positive n_blocks"
                )
            cycles = np.full(n_blocks, float(block_cycles))
        else:
            cycles = np.asarray(block_cycles, dtype=np.float64).ravel()
            if n_blocks and n_blocks != len(cycles):
                raise ConfigurationError(
                    f"n_blocks={n_blocks} disagrees with "
                    f"len(block_cycles)={len(cycles)}"
                )
        if np.any(cycles < 0):
            raise ConfigurationError("block cycle counts must be non-negative")
        makespan = _makespan(cycles, self._concurrency)
        seconds = self.cycles_to_seconds(makespan)
        return LaunchResult(
            n_blocks=len(cycles),
            concurrency=self._concurrency,
            total_cycles=float(cycles.sum()),
            makespan_cycles=float(makespan),
            seconds=seconds,
        )

    def cycles_to_seconds(self, cycles: float) -> float:
        """Clock conversion including the calibration ``time_scale``."""
        return float(cycles) * DEFAULT_COSTS.time_scale / self.device.clock_hz

    def queries_per_second(self, result: LaunchResult) -> float:
        """Throughput of a one-block-per-query launch."""
        if result.seconds <= 0:
            return float("inf")
        return result.n_blocks / result.seconds

