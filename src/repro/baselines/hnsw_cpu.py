"""GraphCon_HNSW: single-thread hierarchical NSW construction.

An HNSW graph (Section IV-D) is a hierarchy of NSW graphs over nested
random subsets: layer 0 holds every point, higher layers hold geometrically
fewer.  The level draw, ID shuffle and layer stacking are
:func:`repro.core.hnsw.build_hierarchy`, shared with the GPU build.  This
module holds the CPU side, :func:`build_hnsw_cpu`: every layer built by
sequential insertion (GGraphCon with one group on a one-core CPU clock),
the single-thread baseline of Table III.  Searching a hierarchy descends
with :func:`repro.perf.descent.hnsw_entry_descent_batch`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.cpu_cost import DEFAULT_CPU
from repro.baselines.nsw_cpu import sequential_params
from repro.core.construction import ggraphcon, validated_points
from repro.core.construction_costs import CpuClock, report_from_clock
from repro.core.hnsw import build_hierarchy
from repro.core.results import ConstructionReport
from repro.metrics.distance import get_metric


def build_hnsw_cpu(points: np.ndarray, d_min: int, d_max: int,
                   metric: str = "euclidean",
                   ef_construction: Optional[int] = None,
                   seed: int = 0) -> ConstructionReport:
    """Build an HNSW graph by layer-wise sequential insertion.

    Each layer is an NSW graph over the shuffled-id prefix it owns, built
    by one-group GGraphCon on the same one-core CPU clock, so the report's
    seconds are the layers' total — what Table III prices.

    Returns:
        A :class:`ConstructionReport` whose ``graph`` is a
        :class:`~repro.graphs.adjacency.HierarchicalGraph` over shuffled
        ids; the points it sees are ``points[report.order]``.
    """
    points = validated_points(points)
    params = sequential_params(d_min, d_max, ef_construction)
    clock = CpuClock(1, DEFAULT_CPU,
                     get_metric(metric).flops_per_distance(points.shape[1]))
    hierarchical, order, sizes = build_hierarchy(
        points, d_min, seed,
        lambda layer_points: ggraphcon((layer_points,), params, metric,
                                       False, [clock])[0][0])
    report = report_from_clock(
        clock, "graphcon-hnsw", hierarchical, len(points),
        details={"n_layers": float(len(sizes)),
                 "top_layer_size": float(sizes[-1]),
                 "d_min": float(d_min), "d_max": float(d_max)})
    report.order = order
    return report
