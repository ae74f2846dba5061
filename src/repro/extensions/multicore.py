"""GGraphCon on a multi-core CPU (the Section IV-B portability remark).

The divide-and-conquer construction is hardware-agnostic: "each working
unit can be individually responsible for the construction of one local
graph and the search of nearest neighbors of one point in the merged
local graph in each iteration".  Here the working units are CPU cores:

- Phase 1: each core builds local graphs (groups are assigned to cores
  by longest-processing-time scheduling; the phase's wall time is the
  makespan).
- Phase 2: within each merge iteration, the group's forward-edge
  searches spread across the cores; the backward-edge organisation is a
  sort + scan priced at single-core speed (it is a tiny fraction).

The resulting graph is *identical* to the GPU construction's because it
is the same code: :func:`repro.core.construction.ggraphcon` runs here on
a :class:`repro.core.construction_costs.CpuClock` — the single-core
:class:`repro.baselines.cpu_cost.CpuModel` divided across cores with
explicit makespans, no magical linear speedup — instead of the GPU
clock.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.cpu_cost import CpuModel, DEFAULT_CPU
from repro.core.construction import ggraphcon, validated_points
from repro.core.construction_costs import CpuClock, report_from_clock
from repro.core.params import BuildParams
from repro.core.results import ConstructionReport
from repro.errors import ConstructionError
from repro.metrics.distance import get_metric


def build_nsw_multicore(points: np.ndarray, params: BuildParams,
                        n_cores: int = 26, metric: str = "euclidean",
                        cpu: CpuModel = DEFAULT_CPU,
                        exact: bool = False) -> ConstructionReport:
    """Build an NSW graph with GGraphCon scheduled over CPU cores.

    Args:
        points: ``(n, d)`` float matrix, insertion order = row order.
        params: Build parameters (``n_blocks`` = group count).
        n_cores: Worker cores (the paper's evaluation host has 26).
        metric: Metric name.
        cpu: Per-core timing model.
        exact: Exact neighbor search (theorem mode).

    Returns:
        A :class:`ConstructionReport` whose ``algorithm`` is
        ``"ggraphcon-multicore"``.
    """
    points = validated_points(points)
    if n_cores <= 0:
        raise ConstructionError(f"n_cores must be positive, got {n_cores}")
    flops = get_metric(metric).flops_per_distance(points.shape[1])
    clock = CpuClock(n_cores, cpu, flops)
    [(graph, n_groups)] = ggraphcon((points,), params, metric, exact,
                                    [clock])
    return report_from_clock(
        clock, "ggraphcon-multicore", graph, len(points),
        details={"n_cores": float(n_cores), "n_groups": float(n_groups)})
