"""Simulated SIMT GPU substrate.

The paper's algorithms are CUDA kernels; this package replaces the physical
GPU with an *execution and cost model* so the same algorithms can run, and be
timed, on a laptop:

- :mod:`repro.gpusim.device` — device specifications (streaming
  multiprocessors, warp width, clock, memory) with a preset modelled on the
  NVIDIA Quadro P5000 used in the paper.
- :mod:`repro.gpusim.costs` — cycle cost tables and per-phase cost formulas
  taken from the paper's complexity analysis (Sections III-C and IV-C).
- :mod:`repro.gpusim.tracker` — per-phase cycle accounting, vectorised over
  queries so a batched search can charge each query lane independently.
- :mod:`repro.gpusim.scan` — segment flags and CSR offsets, the result of
  GGraphCon's merge-step prefix sum.
- :mod:`repro.gpusim.memory` — shared-memory budgets and the PCIe transfer
  model used in the paper's "Remarks" on CPU-GPU data transfer.
- :mod:`repro.gpusim.kernel` — kernel-launch scheduling: maps per-block cycle
  counts to elapsed wall time given the device's occupancy limits.

The algorithm logic that runs on top of this substrate is executed for real
(actual graph traversals, actual floating-point distances), so accuracy
numbers are genuine; only the *clock* is simulated.  The warp primitives
(``__shfl_down_sync``, ``__ballot_sync``, ``__ffs``) and bitonic networks
the kernels are made of are priced here by formula, not executed; the
executed forms live in the single-query kernel oracle under
``tests/oracles/``.
"""

from repro.gpusim.device import DeviceSpec, QUADRO_P5000
from repro.gpusim.costs import CostTable, DEFAULT_COSTS
from repro.gpusim.tracker import CycleTracker, PhaseCategory
from repro.gpusim.kernel import KernelLaunch, LaunchResult
from repro.gpusim.memory import SharedMemoryBudget, TransferModel

__all__ = [
    "DeviceSpec",
    "QUADRO_P5000",
    "CostTable",
    "DEFAULT_COSTS",
    "CycleTracker",
    "PhaseCategory",
    "KernelLaunch",
    "LaunchResult",
    "SharedMemoryBudget",
    "TransferModel",
]
