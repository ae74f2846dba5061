"""GraphCon_NSW: single-thread sequential NSW construction.

The classical NSW build (Section II-B): points are inserted one at a time;
each new point searches its ``d_min`` nearest neighbors in the *current*
graph and links to them bidirectionally, with every adjacency row bounded
at ``d_max`` (worst entry evicted when full).

Two search modes are provided:

- ``exact=False`` (default): neighbors come from Algorithm 1 beam search on
  the partial graph — what the real CPU baseline does.
- ``exact=True``: neighbors come from brute force over the already-inserted
  prefix.  This mode exists to exercise the paper's Section IV-C theorem —
  "given exact nearest neighbors, Algorithm 2 can generate the NSW graph
  which is the same as that constructed by sequential insertions" — the
  test suite builds both constructions in exact mode and asserts edge-set
  equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.baselines.beam import beam_search
from repro.baselines.cpu_cost import CpuOpCounters
from repro.errors import ConstructionError
from repro.graphs.adjacency import ProximityGraph
from repro.metrics.distance import Metric, get_metric


@dataclass
class NswBuildReport:
    """Outcome of one sequential NSW construction.

    Attributes:
        graph: The built NSW graph.
        counters: CPU operation counts for the timing model.
        n_points: Points inserted.
    """

    graph: ProximityGraph
    counters: CpuOpCounters
    n_points: int


def nearest_in_prefix(points: np.ndarray, vertex: int, prefix_end: int,
                      k: int, metric: Metric
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Exact ``k`` nearest of ``points[vertex]`` among ``points[:prefix_end]``.

    Returns ``(ids, dists)`` sorted by ``(distance, id)`` — ties break by
    id, matching the library-wide rule; fewer than ``k`` when the prefix
    is shorter.
    """
    if prefix_end == 0:
        return np.empty(0, dtype=np.int64), np.empty(0)
    dists = metric.one_to_many(points[vertex], points[:prefix_end])
    k = min(k, prefix_end)
    part = (np.argpartition(dists, k - 1)[:k] if k < prefix_end
            else np.arange(prefix_end))
    ids = part[np.lexsort((part, dists[part]))].astype(np.int64)
    return ids, dists[ids]


def exact_prefix_knn(points: np.ndarray, vertex: int, k: int,
                     metric: Metric) -> np.ndarray:
    """Exact ``k`` nearest earlier points of ``points[vertex]``.

    "Earlier" means smaller insertion id — the set the sequential insertion
    searches.
    """
    return nearest_in_prefix(points, vertex, vertex, k, metric)[0]


def build_nsw_cpu(points: np.ndarray, d_min: int, d_max: int,
                  metric: str = "euclidean", ef_construction: Optional[int] = None,
                  exact: bool = False) -> NswBuildReport:
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
        An :class:`NswBuildReport`.

    Raises:
        ConstructionError: On inconsistent parameters.
    """
    points = np.asarray(points)
    if points.ndim != 2 or len(points) == 0:
        raise ConstructionError(
            f"points must be a non-empty 2-D matrix, got shape {points.shape}"
        )
    if d_min <= 0 or d_max <= 0:
        raise ConstructionError(
            f"d_min and d_max must be positive, got {d_min}, {d_max}"
        )
    if d_min > d_max:
        raise ConstructionError(
            f"d_min ({d_min}) cannot exceed d_max ({d_max})"
        )
    if ef_construction is None:
        ef_construction = 2 * d_min
    if ef_construction < d_min:
        raise ConstructionError(
            f"ef_construction ({ef_construction}) must be >= d_min ({d_min})"
        )

    metric_obj = get_metric(metric)
    n = len(points)
    graph = ProximityGraph(n, d_max, metric)
    counters = CpuOpCounters()

    for vertex in range(1, n):
        if exact:
            neighbor_ids = exact_prefix_knn(points, vertex, d_min, metric_obj)
            counters.n_distances += vertex
        elif vertex <= d_min:
            # Fewer points than d_min in the graph: select all of them.
            neighbor_ids = np.arange(vertex, dtype=np.int64)
            counters.n_distances += vertex
        else:
            result = beam_search(graph, points, points[vertex],
                                 k=d_min, ef=ef_construction, entry=0,
                                 metric=metric_obj)
            neighbor_ids = result.ids
            counters.n_distances += result.n_distance_computations
            counters.n_heap_ops += result.n_heap_ops
            counters.n_hash_probes += result.n_hash_probes

        if len(neighbor_ids):
            dists = metric_obj.one_to_many(points[vertex],
                                           points[neighbor_ids])
            counters.n_distances += len(neighbor_ids)
            for u, dist in zip(neighbor_ids, dists):
                graph.insert_edge(vertex, int(u), float(dist))
                graph.insert_edge(int(u), vertex, float(dist))
                counters.n_adjacency_inserts += 2

    return NswBuildReport(graph=graph, counters=counters, n_points=n)
