"""Faithful single-query GANNS kernel, assembled from warp primitives.

Where :func:`repro.core.ganns.ganns_search` executes all queries in
vectorised lock-step, this oracle walks *one* query through the six phases
exactly the way the CUDA kernel does: candidate locating with
``__ballot_sync``/``__ffs`` over warp-sized chunks of the explored flags,
per-dimension partial sums reduced with ``__shfl_down_sync``, a real
bitonic sorting network over ``T`` and a real bitonic merging network over
``N ∪ T`` (:mod:`tests.oracles.warp`, :mod:`tests.oracles.bitonic`).

It documents the kernel-level algorithm precisely and pins the batched
implementation: the suite asserts both paths return identical neighbor ids
and identical per-phase cycle charges on the same inputs.
"""

import numpy as np

from repro.core.params import SearchParams, is_pow2, next_pow2
from repro.core.results import SearchReport
from repro.errors import SearchError
from repro.graphs.adjacency import ProximityGraph
from repro.gpusim.costs import CostTable, DEFAULT_COSTS
from repro.gpusim.memory import SharedMemoryBudget
from repro.gpusim.tracker import CycleTracker
from tests.oracles import warp
from tests.oracles.bitonic import bitonic_merge_network, bitonic_sort_network


def _distance_via_warp(query: np.ndarray, point: np.ndarray,
                       n_threads: int, metric_name: str) -> float:
    """One distance, computed as the kernel does.

    Each of the ``n_threads`` lanes accumulates its strided share of the
    per-dimension terms; the partial sums are then reduced with
    ``log2(n_threads)`` ``shfl_down`` steps.
    """
    n_dims = len(query)
    partial = np.zeros(n_threads, dtype=np.float64)
    if metric_name == "euclidean":
        terms = (query - point) ** 2
    elif metric_name in ("cosine", "ip"):
        terms = query * point
    else:
        raise SearchError(f"unsupported metric: {metric_name!r}")
    for lane in range(n_threads):
        partial[lane] = terms[lane:n_dims:n_threads].sum()
    total = warp.warp_reduce_sum(partial, warp_size=n_threads)
    if metric_name == "cosine":
        return 1.0 - total
    if metric_name == "ip":
        return -total
    return total


def _locate_first_unexplored(explored: np.ndarray, e_budget: int,
                             n_threads: int) -> int:
    """Phase (1): ballot + ffs over warp-sized windows of the flags.

    Returns the index of the first unexplored slot within the budget, or
    ``-1`` when every considered slot is explored (termination).
    """
    for base in range(0, e_budget, n_threads):
        lanes = np.zeros(n_threads, dtype=bool)
        width = min(n_threads, e_budget - base)
        lanes[:width] = ~explored[base:base + width]
        found = warp.first_set_lane(lanes, warp_size=n_threads)
        if found >= 0:
            return base + found
    return -1


def ganns_search_kernel(graph: ProximityGraph, points: np.ndarray,
                        query: np.ndarray, params: SearchParams,
                        entry: int = 0,
                        costs: CostTable = DEFAULT_COSTS) -> SearchReport:
    """Run the faithful GANNS kernel for a single query.

    Args:
        graph: Proximity graph over ``points``.
        points: ``(n, d)`` data matrix.
        query: ``(d,)`` query vector.
        params: Search parameters; ``n_threads`` must be a power of two so
            the warp reductions are well-formed.
        entry: Start vertex.
        costs: Cycle cost table.

    Returns:
        A single-query :class:`repro.core.results.SearchReport`.
    """
    query = np.asarray(query, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    if query.ndim != 1 or points.ndim != 2 or len(query) != points.shape[1]:
        raise SearchError(
            f"query {query.shape} and points {points.shape} disagree on "
            f"dimensionality"
        )
    if not is_pow2(params.n_threads):
        raise SearchError(
            f"the kernel path requires a power-of-two n_threads, got "
            f"{params.n_threads}"
        )
    if not 0 <= entry < graph.n_vertices:
        raise SearchError(
            f"entry vertex {entry} out of range [0, {graph.n_vertices})"
        )
    metric_name = graph.metric_name
    # The kernel operates on prepared (cosine: pre-normalised) vectors in
    # global memory.
    points = graph.metric.prepare(points)
    query = graph.metric.prepare(query[None, :])[0]

    l_n = params.l_n
    l_t = graph.d_max
    l_t_padded = next_pow2(l_t)
    e_budget = min(params.explore_budget, l_n)
    n_t = params.n_threads
    n_dims = points.shape[1]
    tracker = CycleTracker(1)

    pool_dists = np.full(l_n, np.inf)
    pool_ids = np.full(l_n, -1, dtype=np.int64)
    pool_explored = np.ones(l_n, dtype=bool)

    pool_dists[0] = _distance_via_warp(query, points[entry], n_t, metric_name)
    pool_ids[0] = entry
    pool_explored[0] = False
    tracker.charge("bulk_distance", costs.single_distance_cycles(n_dims, n_t))
    n_distance_computations = 1
    n_iterations = 0

    while True:
        # Phase 1 — candidate locating.
        tracker.charge("candidate_locating",
                       costs.ganns_candidate_locate_cycles(l_n, n_t))
        slot = _locate_first_unexplored(pool_explored, e_budget, n_t)
        if slot < 0:
            break
        n_iterations += 1
        exploring = int(pool_ids[slot])
        pool_explored[slot] = True

        # Phase 2 — neighborhood exploration: T <- adjacency row.
        tracker.charge("neighborhood_exploration",
                       costs.ganns_explore_cycles(l_t, n_t))
        degree = int(graph.degrees[exploring])
        t_ids = np.full(l_t_padded, -1, dtype=np.int64)
        t_ids[:degree] = graph.neighbor_ids[exploring, :degree]
        t_dists = np.full(l_t_padded, np.inf)

        # Phase 3 — bulk distance computation, one T entry at a time.
        for idx in range(degree):
            t_dists[idx] = _distance_via_warp(
                query, points[t_ids[idx]], n_t, metric_name)
        tracker.charge("bulk_distance",
                       degree * costs.single_distance_cycles(n_dims, n_t))
        n_distance_computations += degree

        # Phase 4 — lazy check.  On the GPU this is a parallel binary
        # search of the distance-sorted pool; the predicate it implements
        # is simply "is this vertex already resident in N", which is what
        # we evaluate here (and charge at the binary-search price).
        tracker.charge("lazy_check",
                       costs.ganns_lazy_check_cycles(l_n, l_t, n_t))
        for idx in range(degree):
            if t_ids[idx] in pool_ids:
                t_ids[idx] = -1
                t_dists[idx] = np.inf

        # Phase 5 — bitonic sort of T by (distance, id).
        tracker.charge("sorting", costs.ganns_sort_cycles(l_t, n_t))
        t_dists, t_ids_f = bitonic_sort_network(t_dists,
                                                t_ids.astype(np.float64))
        t_ids = t_ids_f.astype(np.int64)

        # Phase 6 — bitonic merge of N and T, keeping the best l_n.
        tracker.charge("candidate_update",
                       costs.ganns_merge_cycles(l_n, l_t, n_t))
        pad = l_n - l_t_padded
        if pad < 0:
            raise SearchError(
                f"l_n ({l_n}) must be >= the padded l_t ({l_t_padded}) for "
                f"the merge network"
            )
        merged_dists = np.concatenate([
            pool_dists, t_dists, np.full(pad, np.inf)])
        merged_ids = np.concatenate([
            pool_ids, t_ids, np.full(pad, -1, dtype=np.int64)])
        merged_explored = np.concatenate([
            pool_explored, t_ids < 0, np.ones(pad, dtype=bool)])
        out_d, out_i, out_e = bitonic_merge_network(
            merged_dists, merged_ids.astype(np.float64),
            merged_explored.astype(np.float64))
        pool_dists = out_d[:l_n]
        pool_ids = out_i[:l_n].astype(np.int64)
        pool_explored = out_e[:l_n].astype(bool)

    shared_mem = SharedMemoryBudget(l_n=l_n, l_t=l_t).total_bytes()
    return SearchReport(
        algorithm="ganns",
        ids=pool_ids[None, :params.k].copy(),
        dists=pool_dists[None, :params.k].copy(),
        tracker=tracker,
        n_threads=n_t,
        shared_mem_bytes=shared_mem,
        iterations=np.asarray([n_iterations], dtype=np.int64),
        n_distance_computations=n_distance_computations,
    )
