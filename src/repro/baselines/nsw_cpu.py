"""GraphCon_NSW: single-thread sequential NSW construction.

The classical NSW build (Section II-B): points are inserted one at a time;
each new point searches its ``d_min`` nearest neighbors in the *current*
graph and links to them bidirectionally, with every adjacency row bounded
at ``d_max`` (worst entry evicted when full).

That is GGraphCon's Phase 1 for a single group, so the baseline runs the
one Algorithm 2 body, :func:`repro.core.construction.ggraphcon`, with one
group on a one-core :class:`~repro.core.construction_costs.CpuClock`.

:func:`build_nsw_multicore` runs the same body with every group on a
many-core clock — Section IV-B's remark that Algorithm 2 "is essentially
independent of hardware substrate ... it can also be applied to other
system settings that have multiple working units such as multi-core CPU
systems".  Phase 1 assigns groups to cores by longest-processing-time
scheduling (the phase's wall time is the makespan); each merge
iteration spreads the group's forward-edge searches across the cores
and prices the backward-edge sort + scan at single-core speed.  The
graph equals the GPU build's because it is the same code.

Two search modes are provided:

- ``exact=False`` (default): neighbors come from Algorithm 1 beam search on
  the partial graph — what the real CPU baseline does.
- ``exact=True``: neighbors come from brute force over the already-inserted
  prefix.  This mode exists to exercise the paper's Section IV-C theorem —
  "given exact nearest neighbors, Algorithm 2 can generate the NSW graph
  which is the same as that constructed by sequential insertions".
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.cpu_cost import CpuModel, DEFAULT_CPU
from repro.core.construction import ggraphcon, validated_points
from repro.core.construction_costs import CpuClock, report_from_clock
from repro.core.params import BuildParams
from repro.core.results import ConstructionReport
from repro.errors import ConfigurationError, ConstructionError
from repro.metrics.distance import get_metric


def sequential_params(d_min: int, d_max: int,
                      ef_construction: Optional[int]) -> BuildParams:
    """One-group :class:`BuildParams` of a sequential build.

    Raises:
        ConstructionError: On inconsistent parameters (``BuildParams``'
            own checks and messages).
    """
    try:
        return BuildParams(d_min=d_min, d_max=d_max, n_blocks=1,
                           ef_construction=ef_construction)
    except ConfigurationError as exc:
        raise ConstructionError(str(exc)) from exc


def build_nsw_cpu(points: np.ndarray, d_min: int, d_max: int,
                  metric: str = "euclidean", ef_construction: Optional[int] = None,
                  exact: bool = False) -> ConstructionReport:
    """Build an NSW graph by sequential insertion (GraphCon_NSW).

    Args:
        points: ``(n, d)`` float matrix, insertion order = row order.
        d_min: Nearest neighbors linked per insertion (lower degree bound).
        d_max: Adjacency-row capacity (upper degree bound).
        metric: Metric name.
        ef_construction: Beam width of the insertion-time search; defaults
            to ``2 * d_min``, the setting the CPU baseline uses.
        exact: Use brute-force exact neighbor search (theorem mode).

    Returns:
        A :class:`ConstructionReport` priced on one core of
        :data:`~repro.baselines.cpu_cost.DEFAULT_CPU`.

    Raises:
        ConstructionError: On a bad corpus or inconsistent parameters.
    """
    points = validated_points(points)
    params = sequential_params(d_min, d_max, ef_construction)
    clock = CpuClock(1, DEFAULT_CPU,
                     get_metric(metric).flops_per_distance(points.shape[1]))
    [(graph, _)] = ggraphcon((points,), params, metric, exact, [clock])
    return report_from_clock(
        clock, "graphcon-nsw", graph, len(points),
        details={"d_min": float(d_min), "d_max": float(d_max)})


def build_nsw_multicore(points: np.ndarray, params: BuildParams,
                        n_cores: int = 26, metric: str = "euclidean",
                        cpu: CpuModel = DEFAULT_CPU,
                        exact: bool = False) -> ConstructionReport:
    """Build an NSW graph with GGraphCon scheduled over CPU cores.

    Args:
        points: ``(n, d)`` float matrix, insertion order = row order.
        params: Build parameters (``params.blocks_for(len(points))`` =
            group count).
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
