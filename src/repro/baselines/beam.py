"""Algorithm 1: beam search on a proximity graph (CPU reference).

This is the paper's Algorithm 1 verbatim: a min-heap candidate set ``C``, a
bounded max-heap result set ``N``, and a visited set ``H`` containing
everything ever pushed.  The *beam width* ``ef`` plays the role of the
backtracking budget: the search maintains the best ``ef`` results and
terminates once the closest open candidate is worse than the ``ef``-th best
("search more nearest neighbors than required for exploring neighbors of
local optimum"); callers take the first ``k``.

Every result carries operation counters (iterations, distance computations,
heap operations, hash probes) so the single-core CPU cost model can price a
run — that is how Tables II/III obtain CPU construction times.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import SearchError
from repro.graphs.adjacency import ProximityGraph
from repro.metrics.distance import Metric


@dataclass
class BeamSearchResult:
    """Outcome of one beam search.

    Attributes:
        ids: Neighbor ids, closest first, length ``min(k, reachable)``.
        dists: Matching distances.
        n_iterations: Loop iterations executed (candidate pops).
        n_distance_computations: Point-to-query distances evaluated.
        n_heap_ops: Heap pushes + pops across both heaps.
        n_hash_probes: Visited-set membership checks.
    """

    ids: np.ndarray
    dists: np.ndarray
    n_iterations: int
    n_distance_computations: int
    n_heap_ops: int
    n_hash_probes: int


def beam_search(graph: ProximityGraph, points: np.ndarray,
                query: np.ndarray, k: int, ef: Optional[int] = None,
                entry: int = 0,
                metric: Optional[Metric] = None) -> BeamSearchResult:
    """Search ``k`` approximate nearest neighbors of ``query`` (Algorithm 1).

    Args:
        graph: Proximity graph over ``points``.
        points: ``(n, d)`` data matrix the graph was built on.
        query: ``(d,)`` query vector.
        k: Number of neighbors to return.
        ef: Beam width (backtracking budget); defaults to ``k``.  Must be
            ``>= k``.
        entry: Start vertex ``v_s``.
        metric: Distance metric; defaults to the graph's metric.

    Returns:
        A :class:`BeamSearchResult` with ids closest-first and counters.
    """
    if k <= 0:
        raise SearchError(f"k must be positive, got {k}")
    if ef is None:
        ef = k
    if ef < k:
        raise SearchError(f"ef ({ef}) must be at least k ({k})")
    if not 0 <= entry < graph.n_vertices:
        raise SearchError(
            f"entry vertex {entry} out of range [0, {graph.n_vertices})"
        )
    if metric is None:
        metric = graph.metric
    query = np.asarray(query, dtype=np.float64)

    n_dist = 0
    n_heap = 0
    n_hash = 0
    n_iter = 0

    entry_dist = float(metric.one_to_many(query, points[entry:entry + 1])[0])
    n_dist += 1

    # C: min-heap of (dist, id).  N: max-heap of (-dist, -id) bounded at ef.
    candidates = [(entry_dist, entry)]
    results = []
    visited = {entry}
    n_heap += 1
    n_hash += 1

    while candidates:
        n_iter += 1
        cand_dist, cand_id = heapq.heappop(candidates)
        n_heap += 1
        if len(results) == ef:
            worst = -results[0][0]
            if cand_dist > worst:
                break
        heapq.heappush(results, (-cand_dist, -cand_id))
        n_heap += 1
        if len(results) > ef:
            heapq.heappop(results)
            n_heap += 1

        neighbor_ids = graph.neighbor_ids[cand_id, :graph.degrees[cand_id]]
        fresh = []
        for u in neighbor_ids:
            u = int(u)
            n_hash += 1
            if u not in visited:
                visited.add(u)
                fresh.append(u)
        if fresh:
            fresh_arr = np.asarray(fresh)
            dists = metric.one_to_many(query, points[fresh_arr])
            n_dist += len(fresh)
            for u, dist in zip(fresh, dists):
                heapq.heappush(candidates, (float(dist), u))
                n_heap += 1

    ordered = sorted((-neg_d, -neg_i) for neg_d, neg_i in results)
    top = ordered[:k]
    ids = np.asarray([i for _, i in top], dtype=np.int64)
    dists = np.asarray([d for d, _ in top], dtype=np.float64)
    return BeamSearchResult(
        ids=ids,
        dists=dists,
        n_iterations=n_iter,
        n_distance_computations=n_dist,
        n_heap_ops=n_heap,
        n_hash_probes=n_hash,
    )


def beam_search_batch(graph: ProximityGraph, points: np.ndarray,
                      queries: np.ndarray, k: int, ef: Optional[int] = None,
                      entry: int = 0,
                      metric: Optional[Metric] = None) -> np.ndarray:
    """Beam-search many queries; returns ``(n_queries, k)`` ids.

    Rows whose search returns fewer than ``k`` reachable vertices are padded
    with ``-1``.
    """
    # Deferred: the core imports this module while it initialises.
    from repro.core.ganns import check_queries
    points, queries = np.asarray(points), np.asarray(queries)
    check_queries(points, queries, graph, entry)
    out = np.full((len(queries), k), -1, dtype=np.int64)
    for row, query in enumerate(queries):
        result = beam_search(graph, points, query, k, ef, entry, metric)
        out[row, :len(result.ids)] = result.ids
    return out
