"""Per-query greedy HNSW entry descent.

The differential oracle for
:func:`repro.perf.descent.hnsw_entry_descent_batch`, which walks every
query of a batch in lock-step.  This is the plain form: one query, one
layer at a time, hop to the closest neighbour of the current vertex
until no improvement, then drop a layer.

Contract: the batch descent returns the same entry vertex and the same
distance count for every query (euclidean bit for bit; cosine / ip up
to last-ulp ties).
"""

from typing import Optional, Tuple

import numpy as np

from repro.graphs.adjacency import HierarchicalGraph
from repro.metrics.distance import get_metric


def hnsw_entry_descent(graph: HierarchicalGraph, points: np.ndarray,
                       query: np.ndarray,
                       metric_name: Optional[str] = None
                       ) -> Tuple[int, int]:
    """Greedy top-down descent; returns (entry vertex, distance count)."""
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
