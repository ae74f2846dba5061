"""Algorithm 1 as the paper writes it, one query at a time: the reference
every width of :func:`repro.baselines.beam.beam_search_lanes` is held to
(ids, distance bytes and the four counters, lane for lane)."""

import heapq

import numpy as np

from repro.baselines.beam import BeamLanes
from repro.graphs.adjacency import ProximityGraph
from repro.metrics.distance import Metric


def heap_search(graph: ProximityGraph, points: np.ndarray,
                query: np.ndarray, k: int, ef: int, entry: int,
                metric: Metric):
    """Algorithm 1's heap loop for one query: a min-heap candidate set
    ``C``, a max-heap result set ``N`` bounded at ``ef`` and a visited
    set ``H`` of everything ever pushed.

    Returns:
        ``(ids, dists, n_iterations, n_distance_computations,
        n_heap_ops, n_hash_probes)``, the first ``k`` results closest
        first.
    """
    n_dist = n_heap = n_hash = n_iter = 0
    query = np.asarray(query, dtype=np.float64)
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

        neighbor_ids = graph.neighbor_ids[cand_id,
                                          :graph.degrees[cand_id]].tolist()
        n_hash += len(neighbor_ids)
        fresh = []
        for u in neighbor_ids:
            if u not in visited:
                visited.add(u)
                fresh.append(u)
        if fresh:
            dists = metric.one_to_many(
                query, points.take(fresh, axis=0)).tolist()
            n_dist += len(fresh)
            n_heap += len(fresh)
            for item in zip(dists, fresh):
                heapq.heappush(candidates, item)

    top = sorted((-neg_d, -neg_i) for neg_d, neg_i in results)[:k]
    return ([i for _, i in top], [d for d, _ in top], n_iter, n_dist,
            n_heap, n_hash)


def heap_lanes(graph: ProximityGraph, points: np.ndarray,
               queries: np.ndarray, k: int, ef: int, entries: np.ndarray,
               metric: Metric) -> BeamLanes:
    """:func:`heap_search` for every row of ``queries`` from the matching
    entry, as the :class:`~repro.baselines.beam.BeamLanes` a lanes call
    returns (``-1`` / ``inf`` pads)."""
    n_lanes = len(queries)
    out = BeamLanes(np.full((n_lanes, k), -1, dtype=np.int64),
                    np.full((n_lanes, k), np.inf),
                    *np.zeros((4, n_lanes), dtype=np.int64))
    for row, (query, entry) in enumerate(zip(queries, entries)):
        ids, dists, *counters = heap_search(graph, points, query, k, ef,
                                            int(entry), metric)
        out.ids[row, :len(ids)] = ids
        out.dists[row, :len(dists)] = dists
        for field, value in zip(("n_iterations", "n_distance_computations",
                                 "n_heap_ops", "n_hash_probes"), counters):
            getattr(out, field)[row] = value
    return out
