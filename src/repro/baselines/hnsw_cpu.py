"""GraphCon_HNSW: single-thread hierarchical NSW construction.

An HNSW graph (Section IV-D) is a hierarchy of NSW graphs over nested
random subsets: layer 0 holds every point, higher layers hold geometrically
fewer.  The level draw, ID shuffle and layer stacking are
:func:`repro.core.hnsw.build_hierarchy`, shared with the GPU build.  This
module holds the CPU side:

- :func:`build_hnsw_cpu` — every layer built by sequential insertion
  (GGraphCon with one group on a one-core CPU clock), the single-thread
  baseline of Table III.
- :func:`hnsw_entry_descent` — greedy top-down routing that turns a
  hierarchical graph into a good entry vertex for a bottom-layer search.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.baselines.cpu_cost import DEFAULT_CPU
from repro.baselines.nsw_cpu import sequential_params
from repro.core.construction import ggraphcon, validated_points
from repro.core.construction_costs import CpuClock, report_from_clock
from repro.core.hnsw import build_hierarchy
from repro.core.results import ConstructionReport
from repro.graphs.adjacency import HierarchicalGraph
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
        lambda layer_points: ggraphcon(layer_points, params, metric,
                                       False, clock)[0])
    report = report_from_clock(
        clock, "graphcon-hnsw", hierarchical, len(points),
        details={"n_layers": float(len(sizes)),
                 "top_layer_size": float(sizes[-1]),
                 "d_min": float(d_min), "d_max": float(d_max)})
    report.order = order
    return report


def hnsw_entry_descent(graph: HierarchicalGraph, points: np.ndarray,
                       query: np.ndarray,
                       metric_name: Optional[str] = None
                       ) -> Tuple[int, int]:
    """Greedy top-down descent; returns (entry vertex, distance count).

    From the top layer down to layer 1, repeatedly hop to the closest
    neighbor of the current vertex until no improvement, then drop a layer.
    The resulting vertex seeds the bottom-layer beam search.
    """
    if metric_name is None:
        metric_name = graph.bottom.metric_name
    metric = get_metric(metric_name)
    query = np.asarray(query, dtype=np.float64)
    current = graph.entry_vertex()
    current_dist = float(metric.one_to_many(query,
                                            points[current:current + 1])[0])
    n_dist = 1
    for layer_idx in range(graph.n_layers - 1, 0, -1):
        layer = graph.layers[layer_idx]
        improved = True
        while improved:
            improved = False
            degree = layer.degrees[current]
            if degree == 0:
                break
            neighbor_ids = layer.neighbor_ids[current, :degree]
            dists = metric.one_to_many(query, points[neighbor_ids])
            n_dist += int(degree)
            best = int(np.argmin(dists))
            if dists[best] < current_dist:
                current = int(neighbor_ids[best])
                current_dist = float(dists[best])
                improved = True
    return current, n_dist
