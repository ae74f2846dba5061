"""GraphCon_HNSW: single-thread hierarchical NSW construction.

An HNSW graph (Section IV-D) is a hierarchy of NSW graphs over nested
random subsets: layer 0 holds every point, higher layers hold geometrically
fewer.  This module implements the CPU baseline and the shared
level-assignment machinery:

- :func:`draw_levels` — the standard exponential level draw
  (``level = floor(-ln(U) * mL)``).
- :func:`shuffled_order_from_levels` — the paper's ID-shuffle trick: order
  vertices by descending level so that the vertices of layer ``i`` are
  exactly ids ``0 .. layer_size_i - 1`` and layer adjacency rows are
  addressable by vertex id with no per-layer index.
- :func:`build_hnsw_cpu` — layer-by-layer sequential NSW insertion, the
  single-thread baseline of Table III.
- :func:`hnsw_entry_descent` — greedy top-down routing that turns a
  hierarchical graph into a good entry vertex for a bottom-layer search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.baselines.beam import beam_search
from repro.baselines.cpu_cost import CpuOpCounters
from repro.baselines.nsw_cpu import build_nsw_cpu
from repro.errors import ConstructionError
from repro.graphs.adjacency import HierarchicalGraph, ProximityGraph
from repro.metrics.distance import get_metric


def draw_levels(n_points: int, d_min: int, seed: int = 0,
                max_levels: int = 16) -> np.ndarray:
    """Draw an HNSW level for each point.

    Uses the standard exponential rule ``level = floor(-ln(U) * mL)`` with
    ``mL = 1 / ln(d_min)``, capped at ``max_levels - 1``.

    Returns:
        ``(n_points,)`` int array of levels (0 = bottom only).
    """
    if n_points <= 0:
        raise ConstructionError(f"n_points must be positive, got {n_points}")
    if d_min < 2:
        raise ConstructionError(f"d_min must be >= 2 for HNSW, got {d_min}")
    rng = np.random.default_rng(seed)
    m_l = 1.0 / math.log(d_min)
    uniforms = rng.uniform(np.finfo(np.float64).tiny, 1.0, size=n_points)
    levels = np.floor(-np.log(uniforms) * m_l).astype(np.int64)
    return np.minimum(levels, max_levels - 1)


def shuffled_order_from_levels(levels: np.ndarray,
                               seed: int = 0) -> np.ndarray:
    """Permutation placing high-level vertices first (the ID shuffle).

    Section IV-D: "we shuffle IDs of vertices and record the mapping ...
    vertices with smaller IDs can reach higher levels".  Within one level
    the order is random.

    Returns:
        ``order`` such that ``order[new_id] = original_id`` and levels are
        non-increasing along ``new_id``.
    """
    rng = np.random.default_rng(seed)
    jitter = rng.random(len(levels))
    # Sort by (-level, jitter): descending level, random within level.
    return np.lexsort((jitter, -levels)).astype(np.int64)


def layer_sizes_from_levels(levels: np.ndarray) -> List[int]:
    """Vertices per layer: ``size[i] = #{v : level_v >= i}``."""
    top = int(levels.max())
    return [int(np.count_nonzero(levels >= layer)) for layer in range(top + 1)]


@dataclass
class HnswBuildReport:
    """Outcome of one CPU HNSW construction.

    Attributes:
        graph: The hierarchical graph (layers over *shuffled* ids).
        order: ``order[new_id] = original_id`` mapping of the ID shuffle.
        counters: CPU operation counts for the timing model.
        n_points: Points inserted.
    """

    graph: HierarchicalGraph
    order: np.ndarray
    counters: CpuOpCounters
    n_points: int


def build_hnsw_cpu(points: np.ndarray, d_min: int, d_max: int,
                   metric: str = "euclidean",
                   ef_construction: Optional[int] = None,
                   seed: int = 0) -> HnswBuildReport:
    """Build an HNSW graph by layer-wise sequential insertion.

    Each layer is an NSW graph over the shuffled-id prefix it owns, built
    with :func:`repro.baselines.nsw_cpu.build_nsw_cpu`; counters from all
    layers accumulate into one total, which is what Table III prices.

    Returns:
        An :class:`HnswBuildReport`; the points seen by the hierarchical
        graph are ``points[report.order]``.
    """
    points = np.asarray(points)
    if points.ndim != 2 or len(points) == 0:
        raise ConstructionError(
            f"points must be a non-empty 2-D matrix, got shape {points.shape}"
        )
    levels = draw_levels(len(points), d_min, seed=seed)
    order = shuffled_order_from_levels(levels, seed=seed)
    shuffled_points = points[order]
    sizes = layer_sizes_from_levels(levels)

    counters = CpuOpCounters()
    layers: List[ProximityGraph] = []
    for layer, size in enumerate(sizes):
        report = build_nsw_cpu(shuffled_points[:size], d_min, d_max,
                               metric=metric,
                               ef_construction=ef_construction)
        layers.append(report.graph)
        counters.add(report.counters)

    hierarchical = HierarchicalGraph.from_prefix_layers(layers)
    return HnswBuildReport(graph=hierarchical, order=order,
                           counters=counters, n_points=len(points))


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


def hnsw_search(graph: HierarchicalGraph, points: np.ndarray,
                query: np.ndarray, k: int, ef: Optional[int] = None):
    """Full CPU HNSW search: descent + bottom-layer beam search."""
    entry, n_dist = hnsw_entry_descent(graph, points, query)
    result = beam_search(graph.bottom, points, query, k, ef, entry=entry)
    result.n_distance_computations += n_dist
    return result
