"""SONG's three-stage search as SONG runs it, one query at a time: the
reference :func:`repro.baselines.song.song_search` (Algorithm 1 priced
by SONG's clock) is held to — ids, distance bytes, iterations, distance
counts and each stage's cycles, lane for lane.

``C`` and ``N`` are ascending ``(dist, id)`` lists bounded at
``pq_bound`` and ``H`` a set; every stage is charged as it happens, by
the stage formulas (:meth:`~repro.gpusim.costs.CostTable.song_locate_cycles`,
:meth:`~repro.gpusim.costs.CostTable.song_update_cycles`).  A full
``C`` rejects a candidate no better than its worst, which Algorithm 1
keeps: on tied distances the two may differ in iterations.
"""

from bisect import insort

import numpy as np

from repro.baselines.song import SongParams
from repro.baselines.visited import _push_bounded
from repro.gpusim.costs import DEFAULT_COSTS
from repro.gpusim.tracker import CycleTracker
from repro.graphs.adjacency import ProximityGraph


def song_loop(graph: ProximityGraph, points: np.ndarray,
              queries: np.ndarray, params: SongParams, entries: np.ndarray):
    """SONG's per-query loop from ``entries[i]`` for query ``i``.

    Returns:
        ``(ids, dists, iterations, n_distance_computations, tracker)``,
        the last a :class:`~repro.gpusim.tracker.CycleTracker` charged
        per lane with SONG's three phases.
    """
    n_queries, n_dims = queries.shape
    metric, bound, costs = graph.metric, params.pq_bound, DEFAULT_COSTS
    tracker = CycleTracker(n_queries)
    ids_out = np.full((n_queries, params.k), -1, dtype=np.int64)
    dists_out = np.full((n_queries, params.k), np.inf)
    iterations = np.zeros(n_queries, dtype=np.int64)
    n_distance_computations = 0
    per_vector_cost = costs.single_distance_cycles(n_dims, params.n_threads)

    for row in range(n_queries):
        query, start = queries[row], int(entries[row])
        lane = np.asarray([row])
        start_dist = float(metric.one_to_many(query,
                                              points[start:start + 1])[0])
        tracker.charge("bulk_distance", per_vector_cost, lane)
        n_distance_computations += 1
        candidates, results, visited = [(start_dist, start)], [], {start}
        n_iter = 0
        locate_cycles = distance_cycles = update_cycles = 0.0

        while candidates:
            n_iter += 1
            # Stage 1 — candidates locating (host thread).
            cand_dist, cand_id = candidates.pop(0)
            if len(results) == bound and cand_dist > results[-1][0]:
                locate_cycles += costs.song_locate_cycles(0, bound)
                break
            insort(results, (cand_dist, cand_id))
            if len(results) > bound:
                results.pop()
            degree = int(graph.degrees[cand_id])
            locate_cycles += costs.song_locate_cycles(degree, bound)
            fresh = [int(u) for u in graph.neighbor_ids[cand_id, :degree]
                     if int(u) not in visited]
            if not fresh:
                continue
            # Stage 2 — bulk distance computation (parallel threads).
            dists = metric.one_to_many(query, points[np.asarray(fresh)])
            distance_cycles += len(fresh) * per_vector_cost
            n_distance_computations += len(fresh)
            # Stage 3 — data structures updating (host thread).
            update_cycles += costs.song_update_cycles(len(fresh), bound)
            for u, dist in zip(fresh, dists):
                visited.add(u)
                _push_bounded(candidates, (float(dist), u), bound)

        tracker.charge("candidates_locating", locate_cycles, lane)
        tracker.charge("bulk_distance", distance_cycles, lane)
        tracker.charge("structures_updating", update_cycles, lane)
        iterations[row] = n_iter
        top = results[:params.k]
        ids_out[row, :len(top)] = [vid for _, vid in top]
        dists_out[row, :len(top)] = [d for d, _ in top]

    return ids_out, dists_out, iterations, n_distance_computations, tracker
