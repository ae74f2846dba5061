"""Batched HNSW entry descent — the one descent the library runs.

:meth:`repro.core.index.GannsIndex._entries` needs one greedy top-down
descent per query before every HNSW search — as a per-query Python loop
that costs as much as a small micro-batch's search itself.  This module
walks all queries in lock-step: each pass gathers the current vertices'
adjacency rows for every still-walking query at once and evaluates the
candidate distances with one einsum.

Equivalence with the per-query oracle
``tests/oracles/hnsw_descent.py::hnsw_entry_descent``: queries walk
independently, so lock-stepping changes neither the visit sequence nor
the distance counts — a query that stops improving on a layer simply
goes inactive while others keep walking.  Distances are the metric's
``prepared_rows_to_rows`` over rows prepared once: euclidean arithmetic
is bit-identical (same float64 diff-einsum per row); cosine/ip replace a
per-row BLAS matvec with a batched einsum, which can differ in the last
ulp — entry choices still agree whenever neighbor distance gaps exceed
that noise, which the equivalence suite checks on every covered
workload.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.graphs.adjacency import HierarchicalGraph
from repro.metrics.distance import get_metric


def hnsw_entry_descent_batch(graph: HierarchicalGraph, points: np.ndarray,
                             queries: np.ndarray,
                             metric_name: Optional[str] = None
                             ) -> Tuple[np.ndarray, np.ndarray]:
    """Greedy top-down descent for a whole query batch.

    Args:
        graph: Hierarchical (HNSW) graph.
        points: ``(n, d)`` data matrix (shuffled order, as stored by the
            index).
        queries: ``(m, d)`` query matrix.
        metric_name: Metric override; defaults to the graph's metric.

    Returns:
        ``(entries, n_dists)`` — per-query entry vertex ids ``(m,)`` and
        per-query distance-computation counts ``(m,)``, matching a
        per-query greedy descent.
    """
    metric = get_metric(metric_name or graph.bottom.metric_name)
    m = len(queries)
    qs = metric.prepare(np.asarray(queries, dtype=np.float64))
    pts = metric.prepare(np.asarray(points, dtype=np.float64))

    def to_rows(query_rows: np.ndarray, cand_ids: np.ndarray) -> np.ndarray:
        """(a,) query rows x (a, w) candidate ids -> (a, w) distances."""
        return metric.prepared_rows_to_rows(
            np.take(pts, cand_ids, axis=0, mode="clip"),
            qs[query_rows][:, None, :])

    current = np.full(m, graph.entry_vertex(), dtype=np.int64)
    current_dist = to_rows(np.arange(m), current[:, None])[:, 0]
    n_dists = np.ones(m, dtype=np.int64)

    for layer_idx in range(graph.n_layers - 1, 0, -1):
        layer = graph.layers[layer_idx]
        active = np.ones(m, dtype=bool)
        while True:
            act = np.flatnonzero(active)
            if len(act) == 0:
                break
            degrees = layer.degrees[current[act]]
            has_neighbors = degrees > 0
            active[act[~has_neighbors]] = False
            act = act[has_neighbors]
            if len(act) == 0:
                break
            neighbor_ids = layer.neighbor_ids[current[act]]
            valid = neighbor_ids >= 0
            dists = to_rows(act, neighbor_ids)
            dists[~valid] = np.inf
            n_dists[act] += degrees[has_neighbors]
            # Valid neighbors are front-packed, so argmin over the
            # padded row resolves ties exactly like the per-query
            # argmin over the first `degree` entries.
            best = np.argmin(dists, axis=1)
            best_dist = dists[np.arange(len(act)), best]
            improved = best_dist < current_dist[act]
            moved = act[improved]
            current[moved] = neighbor_ids[improved, best[improved]]
            current_dist[moved] = best_dist[improved]
            active[act[~improved]] = False

    return current, n_dists
