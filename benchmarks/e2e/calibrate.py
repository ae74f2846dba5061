"""Fixed-seed calibration kernels: the denominator of reference-seconds.

This box's speed drifts by 10-25 % over minutes, with process CPU time
tracking wall-clock (the machine, not the scheduler) — as large as the
regressions the benchmark has to resolve.  Each timed round is therefore
bracketed by these kernels and host seconds are reported as
*reference-seconds*::

    rs = wall_s / ((1 - m) * cpu_s / CPU_NOMINAL_S + m * mem_s / MEM_NOMINAL_S)

Two kernels, because the box drifts in two independent ways (measured
over four minutes: correlation 0.1 between them).  Interpreter-bound and
cache-resident NumPy code follows the *cpu* kernel — a pure-Python dict
loop plus gather / einsum / lexsort / searchsorted on tables that fit in
cache; its speed steps by 20 % for seconds at a time.  Code that streams
tens of megabytes per call follows the *mem* kernel — the d=960 gather +
einsum of ``search_highdim`` in miniature; its speed wanders by ±15 %
over minutes while the cpu kernel does not move (correlation with the
workload 0.75, against 0.1 for the cpu kernel).  ``m`` is the
workload's DRAM-bound share (``Workload.mem_share``): its measured
``perf.distance.share`` where the point table outgrows the cache, 0
elsewhere.

The kernels run no ``repro`` code, so a change to the repo cannot move
them.
"""

from __future__ import annotations

import statistics
import time
from typing import Tuple

import numpy as np

#: Median seconds of one pass of each kernel on the machine the first
#: baseline was recorded on.  Frozen: changing them rescales every
#: committed reference-second.
CPU_NOMINAL_S = 0.0108
MEM_NOMINAL_S = 0.0150

#: Passes per calibration; the median pass of each kernel is reported,
#: so one scheduling hiccup (as long as a pass) cannot move it.
PASSES = 5


class Calibrator:
    """Holds the fixed inputs; :meth:`run` times both kernels over them."""

    def __init__(self, passes: int = PASSES) -> None:
        self.passes = passes
        rng = np.random.default_rng(20220501)
        self.points = rng.standard_normal((4096, 128)).astype(np.float32)
        self.queries = rng.standard_normal((256, 128)).astype(np.float32)
        self.cand = rng.integers(0, 4096, size=(256, 32))
        self.keys = rng.integers(0, 1 << 20, size=(256, 32))
        self.sorted_ids = np.sort(rng.integers(0, 1 << 20, size=20000))
        self.probe = rng.integers(0, 1 << 20, size=20000)
        self.wide = rng.standard_normal((4096, 960)).astype(np.float32)
        self.wide_queries = rng.standard_normal(
            (250, 960)).astype(np.float32)
        self.wide_cand = rng.integers(0, 4096, size=(250, 32))
        self.sink = 0.0

    def _cpu_kernel(self) -> float:
        start = time.perf_counter()
        acc = 0.0
        for _ in range(2):
            rows = self.points[self.cand]
            dists = np.einsum("qcd,qd->qc", rows, self.queries)
            order = np.lexsort((self.keys, dists), axis=1)
            acc += float(dists[0, order[0, 0]])
            acc += float(np.searchsorted(self.sorted_ids, self.probe)[0])
        table = {}
        for i in range(40000):
            key = (i * 7919) & 4095
            table[key] = table.get(key, 0) + i
        self.sink = acc + len(table)
        return time.perf_counter() - start

    def _mem_kernel(self) -> float:
        start = time.perf_counter()
        for _ in range(2):
            rows = np.take(self.wide, self.wide_cand, axis=0)
            dists = np.einsum("mtd,md->mt", rows, self.wide_queries)
        self.sink = float(dists[0, 0])
        return time.perf_counter() - start

    def run(self) -> Tuple[float, float]:
        """``(cpu_s, mem_s)``: the median pass of each kernel."""
        cpu, mem = [], []
        for _ in range(self.passes):
            cpu.append(self._cpu_kernel())
            mem.append(self._mem_kernel())
        return statistics.median(cpu), statistics.median(mem)


def slowdown(before: Tuple[float, float], after: Tuple[float, float],
             mem_share: float) -> float:
    """How much slower than nominal the machine ran between two
    calibrations, for a workload with the given DRAM-bound share."""
    cpu = 0.5 * (before[0] + after[0]) / CPU_NOMINAL_S
    mem = 0.5 * (before[1] + after[1]) / MEM_NOMINAL_S
    return (1.0 - mem_share) * cpu + mem_share * mem
