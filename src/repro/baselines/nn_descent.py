"""NN-Descent: KNN-graph construction by neighbor-of-neighbor refinement.

The iterative method of Dong et al. [9] that Section IV-D adopts for KNN
graphs: start from random adjacency lists; in each iteration, every pair of
neighbors ``(u1, u2)`` of every vertex proposes the edges ``u1 -> u2`` and
``u2 -> u1``; proposals that improve an adjacency list are applied.  The
process stops when an iteration changes too little ("the precision
improvement of the KNN graph is small enough").

This CPU implementation is the reference the GPU-style batched version in
:mod:`repro.core.knng` is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.baselines.cpu_cost import CpuOpCounters
from repro.core.construction import validated_points
from repro.errors import ConstructionError
from repro.graphs.adjacency import ProximityGraph
from repro.metrics.distance import get_metric


@dataclass
class NnDescentReport:
    """Outcome of one NN-Descent run.

    Attributes:
        graph: The KNN graph (``d_max == k``; degrees == k).
        counters: CPU operation counts.
        n_iterations: Refinement iterations executed.
        updates_per_iteration: Adjacency updates applied each iteration, a
            direct view of convergence.
    """

    graph: ProximityGraph
    counters: CpuOpCounters
    n_iterations: int
    updates_per_iteration: List[int] = field(default_factory=list)


def _random_initial_graph(n: int, k: int, points: np.ndarray, metric,
                          counters: CpuOpCounters,
                          rng: np.random.Generator) -> ProximityGraph:
    """Random k-regular starting graph with true distances attached."""
    graph = ProximityGraph(n, k, metric.name)
    for v in range(n):
        choices = rng.choice(n - 1, size=k, replace=False)
        choices[choices >= v] += 1  # skip self
        dists = metric.one_to_many(points[v], points[choices])
        counters.n_distances += k
        order = np.lexsort((choices, dists))
        graph.set_row(v, choices[order], dists[order])
    return graph


def build_knn_graph_nn_descent(points: np.ndarray, k: int,
                               metric: str = "euclidean",
                               max_iterations: int = 12,
                               sample_rate: float = 1.0,
                               min_update_fraction: float = 0.001,
                               seed: int = 0) -> NnDescentReport:
    """Construct a KNN graph with NN-Descent.

    Args:
        points: ``(n, d)`` float matrix.
        k: Neighbors per vertex (``d_min == d_max == k`` for KNN graphs).
        metric: Metric name.
        max_iterations: Hard iteration cap.
        sample_rate: Fraction of neighbor pairs proposed per iteration
            (1.0 = the full quadratic pass of the basic algorithm).
        min_update_fraction: Stop when an iteration applies fewer than
            ``min_update_fraction * n * k`` updates.
        seed: RNG seed.

    Returns:
        An :class:`NnDescentReport`.
    """
    points = validated_points(points)
    n = len(points)
    if not 1 <= k < n:
        raise ConstructionError(f"k must lie in [1, {n - 1}], got {k}")
    if not 0.0 < sample_rate <= 1.0:
        raise ConstructionError(
            f"sample_rate must lie in (0, 1], got {sample_rate}"
        )
    metric_obj = get_metric(metric)
    rng = np.random.default_rng(seed)
    counters = CpuOpCounters()
    graph = _random_initial_graph(n, k, points, metric_obj, counters, rng)

    updates_history: List[int] = []
    threshold = max(1, int(min_update_fraction * n * k))
    for _ in range(max_iterations):
        updates = 0
        # General neighborhoods B[v] = forward ∪ reverse neighbors, as in
        # Dong et al.: reverse edges are what lets improvements propagate
        # against the edge direction.
        reverse: List[List[int]] = [[] for _ in range(n)]
        for v in range(n):
            for u in graph.neighbors(v):
                reverse[int(u)].append(v)
        for v in range(n):
            forward = graph.neighbors(v)
            neighbors = np.unique(np.concatenate(
                [forward, np.asarray(reverse[v], dtype=np.int64)]))
            degree = len(neighbors)
            if degree < 2:
                continue
            pair_count = degree * (degree - 1) // 2
            pairs = [(a, b) for i, a in enumerate(neighbors)
                     for b in neighbors[i + 1:]]
            if sample_rate < 1.0 and pair_count > 1:
                keep = rng.random(pair_count) < sample_rate
                pairs = [p for p, kept in zip(pairs, keep) if kept]
            for u1, u2 in pairs:
                u1, u2 = int(u1), int(u2)
                if u1 == u2:
                    continue
                dist = float(metric_obj.one_to_many(
                    points[u1], points[u2:u2 + 1])[0])
                counters.n_distances += 1
                if graph.insert_edge(u1, u2, dist):
                    updates += 1
                    counters.n_adjacency_inserts += 1
                if graph.insert_edge(u2, u1, dist):
                    updates += 1
                    counters.n_adjacency_inserts += 1
        updates_history.append(updates)
        if updates < threshold:
            break

    return NnDescentReport(
        graph=graph,
        counters=counters,
        n_iterations=len(updates_history),
        updates_per_iteration=updates_history,
    )
