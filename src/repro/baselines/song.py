"""SONG: the state-of-the-art GPU proximity-graph search (Section II-D).

SONG keeps Algorithm 1's data structures — a bounded candidate queue
``C``, a bounded result queue ``N`` and a visited hash ``H`` over
``N ∪ C`` — and decomposes each iteration into three stages:

1. *candidates locating* — the host thread pops the best candidate,
   compares it against the worst result, and walks the popped vertex's
   neighbors one by one, probing the hash to keep only unvisited ones;
2. *bulk distance computation* — the block's threads cooperate on the
   distances of the recorded candidates (the only parallel stage);
3. *data structures updating* — the host thread pushes each computed
   candidate back into the bounded queue and the hash, sequentially.

Stages 1 and 3 run on a single "host thread" per block — the execution
dependency the paper identifies as SONG's bottleneck — so their cycle
charges deliberately do not divide by ``n_t``.

The traversal itself is executed faithfully (visited-hash semantics mean
SONG never recomputes a distance, unlike GANNS's lazy check), so recall
numbers are real.  ``C`` and ``N`` are bounded ascending lists of
``(dist, id)`` and ``H`` a Python set: the stage formulas
(:meth:`~repro.gpusim.costs.CostTable.song_locate_cycles`,
:meth:`~repro.gpusim.costs.CostTable.song_update_cycles`) price SONG's
min-max heap and open-addressing table, so neither structure is built.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.baselines.visited import make_visited_set
from repro.core.ganns import check_queries
from repro.core.results import SearchReport
from repro.errors import ConfigurationError
from repro.graphs.adjacency import ProximityGraph
from repro.gpusim.costs import DEFAULT_COSTS
from repro.gpusim.memory import SharedMemoryBudget
from repro.gpusim.tracker import CycleTracker


@dataclass(frozen=True)
class SongParams:
    """Parameters of one SONG search invocation.

    Attributes:
        k: Neighbors returned per query.
        pq_bound: Bound of the candidate/result priority queues — SONG's
            accuracy/efficiency knob, the counterpart of GANNS's ``l_n``.
        n_threads: Threads per block; only the bulk-distance stage
            benefits from them.
        visited_strategy: Visited-marking structure — ``"hash"`` (SONG's
            open-addressing table, the default; a set whose probes the
            stage formulas price), ``"bloom"`` or ``"bitmap"`` (the
            Section III-A alternatives, built and charged per access;
            see :mod:`repro.baselines.visited`).
        visited_deletion: SONG's visited-deletion optimization: keep H at
            its fixed ``2k`` size by holding exactly the members of
            ``N ∪ C`` and *deleting* entries the bounded queues evict.
            Evicted vertices may be revisited (their distances recomputed)
            — the memory/recomputation trade the SONG paper accepts.
            Only meaningful with the ``"hash"`` strategy.
    """

    k: int = 10
    pq_bound: int = 64
    n_threads: int = 32
    visited_strategy: str = "hash"
    visited_deletion: bool = False

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ConfigurationError(f"k must be positive, got {self.k}")
        if self.pq_bound < self.k:
            raise ConfigurationError(
                f"pq_bound ({self.pq_bound}) must be >= k ({self.k})"
            )
        if self.n_threads <= 0:
            raise ConfigurationError(
                f"n_threads must be positive, got {self.n_threads}"
            )
        if self.visited_strategy not in ("hash", "bloom", "bitmap"):
            raise ConfigurationError(
                f"unknown visited_strategy {self.visited_strategy!r}; "
                f"valid: hash, bloom, bitmap"
            )
        if self.visited_deletion and self.visited_strategy != "hash":
            raise ConfigurationError(
                "visited_deletion applies to the hash strategy only"
            )


def _push_bounded(queue: List[Tuple[float, int]], key: Tuple[float, int],
                  bound: int) -> Tuple[bool, Optional[Tuple[float, int]]]:
    """Insert ``key`` into the ascending ``queue`` of at most ``bound`` keys.

    A full queue rejects a key no better than its worst, and otherwise
    evicts the worst — SONG's "if C is full and the new point is better
    than the worst point in C, the worst point is removed".

    Returns:
        ``(inserted, evicted)``: whether ``key`` is in the queue now,
        and the key dropped to make room (or None) — visited deletion
        forgets it.
    """
    evicted = None
    if len(queue) >= bound:
        if key >= queue[-1]:
            return False, None
        evicted = queue.pop()
    insort(queue, key)
    return True, evicted


def song_search(graph: ProximityGraph, points: np.ndarray,
                queries: np.ndarray, params: SongParams,
                entry: Union[int, np.ndarray] = 0) -> SearchReport:
    """Run SONG's three-stage search for a batch of queries, priced on
    the default cost table (shared with GANNS).

    Args:
        graph: Proximity graph over ``points``.
        points: ``(n, d)`` data matrix.
        queries: ``(m, d)`` query matrix.
        params: SONG parameters.
        entry: Start vertex, or per-query ``(m,)`` id array.

    Returns:
        A :class:`repro.core.results.SearchReport` with
        ``algorithm == "song"``.
    """
    points, queries = np.asarray(points), np.asarray(queries)
    entries = check_queries(points, queries, graph, entry, params.k)
    n_queries, n_dims = queries.shape
    metric = graph.metric
    bound = params.pq_bound
    n_t = params.n_threads
    costs = DEFAULT_COSTS

    tracker = CycleTracker(n_queries)
    ids_out = np.full((n_queries, params.k), -1, dtype=np.int64)
    dists_out = np.full((n_queries, params.k), np.inf, dtype=np.float64)
    iterations = np.zeros(n_queries, dtype=np.int64)
    n_distance_computations = 0

    per_vector_cost = costs.single_distance_cycles(n_dims, n_t)

    for row in range(n_queries):
        query = queries[row]
        start = int(entries[row])
        start_dist = float(metric.one_to_many(query,
                                              points[start:start + 1])[0])
        tracker.charge("bulk_distance", per_vector_cost, np.asarray([row]))
        n_distance_computations += 1

        # C: ascending (dist, id) candidates, bounded.  N: ascending
        # (dist, id) list of the best results, bounded.  H: the visited
        # structure over N ∪ C.
        candidates = [(start_dist, start)]
        results = []
        if params.visited_strategy == "hash":
            # The calibrated default: a plain set with hash probes priced
            # inside the stage formulas (one probe per scanned neighbor,
            # one per insertion).
            visited = {start}
            visited_obj = None
        else:
            visited_obj = make_visited_set(
                params.visited_strategy, graph.n_vertices,
                budget=4 * bound)
            visited_obj.add(start)
            visited = visited_obj
        n_iter = 0
        locate_cycles = 0.0
        distance_cycles = 0.0
        update_cycles = 0.0

        while candidates:
            n_iter += 1
            # Stage 1 — candidates locating (host thread).
            cand_dist, cand_id = candidates.pop(0)
            if len(results) == bound and cand_dist > results[-1][0]:
                locate_cycles += costs.song_locate_cycles(0, bound)
                break
            insort(results, (cand_dist, cand_id))
            if len(results) > bound:
                dropped = results.pop()
                if params.visited_deletion and visited_obj is None:
                    visited.discard(dropped[1])
            degree = int(graph.degrees[cand_id])
            neighbor_ids = graph.neighbor_ids[cand_id, :degree]
            if visited_obj is None:
                locate_cycles += costs.song_locate_cycles(degree, bound)
            else:
                # Extract-min and bookkeeping priced by the formula with
                # no probes; the structure charges its own accesses.
                before = visited_obj.cycles
                fresh_probe = [int(u) for u in neighbor_ids
                               if int(u) not in visited]
                locate_cycles += (costs.song_locate_cycles(0, bound)
                                  + degree * costs.alu_cycles
                                  + visited_obj.cycles - before)
            fresh = [int(u) for u in neighbor_ids if int(u) not in visited] \
                if visited_obj is None else fresh_probe

            if fresh:
                # Stage 2 — bulk distance computation (parallel threads).
                fresh_arr = np.asarray(fresh)
                dists = metric.one_to_many(query, points[fresh_arr])
                distance_cycles += len(fresh) * per_vector_cost
                n_distance_computations += len(fresh)

                # Stage 3 — data structures updating (host thread).
                if visited_obj is None:
                    update_cycles += costs.song_update_cycles(len(fresh),
                                                              bound)
                    for u, dist in zip(fresh, dists):
                        visited.add(u)
                        inserted, evicted = _push_bounded(
                            candidates, (float(dist), u), bound)
                        if params.visited_deletion:
                            # H mirrors N ∪ C exactly (fixed 2k size):
                            # rejected or evicted vertices leave H and
                            # may be revisited later.
                            if not inserted:
                                visited.discard(u)
                            elif evicted is not None:
                                visited.discard(evicted[1])
                else:
                    sift = (math.ceil(math.log2(max(bound, 2)))
                            * costs.host_insert_cycles)
                    before = visited_obj.cycles
                    for u, dist in zip(fresh, dists):
                        visited_obj.add(u)
                        _push_bounded(candidates, (float(dist), u), bound)
                    update_cycles += (len(fresh) * sift
                                      + visited_obj.cycles - before)

        lane = np.asarray([row])
        tracker.charge("candidates_locating", locate_cycles, lane)
        tracker.charge("bulk_distance", distance_cycles, lane)
        tracker.charge("structures_updating", update_cycles, lane)
        iterations[row] = n_iter

        top = results[:params.k]
        ids_out[row, :len(top)] = [vid for _, vid in top]
        dists_out[row, :len(top)] = [d for d, _ in top]

    # SONG keeps the query vector plus the cand/dist auxiliary arrays in
    # shared memory (Section II-D); N, C and H live in local memory.
    shared_mem = SharedMemoryBudget(
        l_n=0, l_t=0, query_dims=n_dims,
        scratch_entries=graph.d_max).total_bytes()
    return SearchReport(
        algorithm="song",
        ids=ids_out,
        dists=dists_out,
        tracker=tracker,
        n_threads=n_t,
        shared_mem_bytes=shared_mem,
        iterations=iterations,
        n_distance_computations=n_distance_computations,
    )
