"""NSW and HNSW built by sequential insertion, one edge at a time.

The differential oracle for :func:`repro.baselines.nsw_cpu.build_nsw_cpu`
and :func:`repro.baselines.hnsw_cpu.build_hnsw_cpu` (which run GGraphCon
with one group on a one-core CPU clock), and the sequential side of the
Section IV-C theorem tests.  Each point searches its ``d_min`` nearest
neighbors in the current graph — Algorithm 1's heap loop
(``tests/oracles/beam_heap.py``), or brute force over the inserted
prefix in exact mode — and links to them with
:meth:`~repro.graphs.adjacency.ProximityGraph.insert_edge` both ways,
tallying :class:`~repro.baselines.cpu_cost.CpuOpCounters` as it goes.

Contract: ``neighbor_ids``, ``neighbor_dists`` and ``degrees`` are
array-equal, and the library's ``seconds`` equal
``DEFAULT_CPU.seconds(counters, flops)`` (summed per layer for HNSW).
"""

from typing import List, Tuple

import numpy as np

from repro.baselines.cpu_cost import CpuOpCounters
from repro.core.hnsw import (
    draw_levels,
    layer_sizes_from_levels,
    shuffled_order_from_levels,
)
from repro.graphs.adjacency import HierarchicalGraph, ProximityGraph
from repro.metrics.distance import get_metric
from tests.oracles.beam_heap import heap_search


def _exact_prefix(points, vertex, k, metric) -> np.ndarray:
    """The ``k`` nearest earlier points, ties broken by id."""
    dists = metric.one_to_many(points[vertex], points[:vertex])
    return np.lexsort((np.arange(vertex), dists))[:k].astype(np.int64)


def build_nsw_sequential(points: np.ndarray, d_min: int, d_max: int,
                         metric: str = "euclidean", ef_construction=None,
                         exact: bool = False
                         ) -> Tuple[ProximityGraph, CpuOpCounters]:
    """Sequential NSW insertion; returns ``(graph, counters)``."""
    if ef_construction is None:
        ef_construction = 2 * d_min
    metric_obj = get_metric(metric)
    n = len(points)
    graph = ProximityGraph(n, d_max, metric)
    counters = CpuOpCounters()
    for vertex in range(1, n):
        if exact:
            neighbor_ids = _exact_prefix(points, vertex, d_min, metric_obj)
            counters.n_distances += vertex
        elif vertex <= d_min:
            neighbor_ids = np.arange(vertex, dtype=np.int64)
            counters.n_distances += vertex
        else:
            ids, _, _, n_dist, n_heap, n_hash = heap_search(
                graph, points, points[vertex], d_min, ef_construction, 0,
                metric_obj)
            neighbor_ids = np.array(ids, dtype=np.int64)
            counters.n_distances += n_dist
            counters.n_heap_ops += n_heap
            counters.n_hash_probes += n_hash
        dists = metric_obj.one_to_many(points[vertex], points[neighbor_ids])
        counters.n_distances += len(neighbor_ids)
        for u, dist in zip(neighbor_ids, dists):
            graph.insert_edge(vertex, int(u), float(dist))
            graph.insert_edge(int(u), vertex, float(dist))
            counters.n_adjacency_inserts += 2
    return graph, counters


def build_hnsw_sequential(points: np.ndarray, d_min: int, d_max: int,
                          metric: str = "euclidean", ef_construction=None,
                          seed: int = 0
                          ) -> Tuple[HierarchicalGraph, np.ndarray,
                                     List[CpuOpCounters]]:
    """Layer-wise sequential HNSW; returns ``(graph, order, counters per
    layer)``."""
    levels = draw_levels(len(points), d_min, seed=seed)
    order = shuffled_order_from_levels(levels, seed=seed)
    shuffled = points[order]
    layers, counters = [], []
    for size in layer_sizes_from_levels(levels):
        graph, layer_counters = build_nsw_sequential(
            shuffled[:size], d_min, d_max, metric=metric,
            ef_construction=ef_construction)
        layers.append(graph)
        counters.append(layer_counters)
    return HierarchicalGraph.from_prefix_layers(layers), order, counters
