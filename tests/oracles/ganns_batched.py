"""Batched GANNS written exactly as Section III-B describes it.

The differential oracle for :func:`repro.core.ganns.ganns_search`: every
phase of Figure 3 is a plain NumPy expression over the active queries
(diff-einsum distances, broadcast equality for the lazy check,
``lexsort`` for the bitonic sort and merge).  It is the only executable
spec covering the ``lazy_check=False`` ablation, float32 compute and
lock-step batches with mixed retirement — the single-query warp kernel
(:mod:`tests.oracles.ganns_kernel`) covers none of those.

Contract: ids, iterations, distance counts and per-phase per-lane cycle
charges are *equal*; distances agree to dtype tolerance (the library's
GEMM norm expansion of the euclidean metric differs in the last ulp; on
integer coordinates both forms are exact and the bytes are equal).

It is also the reference for what the library *skips*: phase 3 here
evaluates every slot of T every iteration and phase 4 scans the pool,
where ``repro.perf.engine`` evaluates a (query, vertex) pair once per
call.  Under ``params.quant`` the same loop runs over the library's
compressed distances (the arithmetic is not what is under test, the
traversal is) with the widened pool, followed by the exact rerank.
"""

from typing import Optional, Union

import numpy as np

from repro.core.params import SearchParams
from repro.core.results import SearchReport
from repro.errors import SearchError
from repro.graphs.adjacency import ProximityGraph
from repro.gpusim.costs import CostTable, DEFAULT_COSTS
from repro.gpusim.memory import SharedMemoryBudget
from repro.gpusim.tracker import CycleTracker
from repro.perf.distance import resolve_compute_dtype
from repro.perf.quant import QuantizedGroupEngine, charged_dims, \
    quantize_points

_MAX_ITERATION_FACTOR = 64


def _group_distance_fn(metric_name, points, queries, dtype):
    """Evaluator: (query rows ``(m,)``, ids ``(m, w)``) -> ``(m, w)``."""
    pts = np.asarray(points, dtype=dtype)
    qs = np.asarray(queries, dtype=dtype)
    if metric_name == "euclidean":
        def euclidean(query_rows, cand_ids):
            diff = pts[cand_ids] - qs[query_rows][:, None, :]
            return np.einsum("mtd,mtd->mt", diff, diff)
        return euclidean
    if metric_name == "cosine":
        def _unit(matrix):
            norms = np.linalg.norm(matrix, axis=-1, keepdims=True)
            return matrix / np.where(norms > 0.0, norms, 1.0)
        unit_points, unit_queries = _unit(pts), _unit(qs)
        one = np.dtype(dtype).type(1.0)

        def cosine(query_rows, cand_ids):
            return one - np.einsum("mtd,md->mt", unit_points[cand_ids],
                                   unit_queries[query_rows])
        return cosine
    if metric_name == "ip":
        def inner_product(query_rows, cand_ids):
            return -np.einsum("mtd,md->mt", pts[cand_ids], qs[query_rows])
        return inner_product
    raise SearchError(f"unsupported metric for GANNS search: {metric_name!r}")


def ganns_search_oracle(graph: ProximityGraph, points: np.ndarray,
                        queries: np.ndarray, params: SearchParams,
                        entry: Union[int, np.ndarray] = 0,
                        costs: CostTable = DEFAULT_COSTS,
                        lazy_check: bool = True,
                        dtype: Optional[object] = None) -> SearchReport:
    """Lock-step batched search: exact, or staged under ``params.quant``."""
    points = np.asarray(points)
    queries = np.asarray(queries)
    n_queries = len(queries)
    n_dims = points.shape[1]
    l_n = params.l_n
    l_t = graph.d_max
    e_budget = min(params.explore_budget, l_n)
    n_t = params.n_threads
    compute_dtype = resolve_compute_dtype(points, queries, dtype)
    entries = np.broadcast_to(np.asarray(entry, dtype=np.int64),
                              (n_queries,))

    tracker = CycleTracker(n_queries)
    exact_fn = _group_distance_fn(graph.metric_name, points, queries,
                                  compute_dtype)
    if params.quant is None:
        distance_fn, l_pool, dist_dims = exact_fn, l_n, n_dims
        pool_dtype = compute_dtype
    else:
        table = quantize_points(points, params.quant, graph.metric_name)
        distance_fn = QuantizedGroupEngine(table, queries).pairs
        l_pool, dist_dims = l_n * params.rerank_factor, charged_dims(table)
        pool_dtype = np.float32

    # Pool N: (dist, id, explored) sorted by (dist, id); padding is
    # (+inf, -1, explored=True) so it is never selected for exploration.
    pool_dists = np.full((n_queries, l_pool), np.inf, dtype=pool_dtype)
    pool_ids = np.full((n_queries, l_pool), -1, dtype=np.int64)
    pool_explored = np.ones((n_queries, l_pool), dtype=bool)

    pool_dists[:, 0] = distance_fn(np.arange(n_queries),
                                   entries[:, None])[:, 0]
    pool_ids[:, 0] = entries
    pool_explored[:, 0] = False
    tracker.charge("bulk_distance",
                   costs.single_distance_cycles(dist_dims, n_t))
    n_distance_computations = n_queries

    locate_cost = costs.ganns_candidate_locate_cycles(l_pool, n_t)
    explore_cost = costs.ganns_explore_cycles(l_t, n_t)
    check_cost = costs.ganns_lazy_check_cycles(l_pool, l_t, n_t)
    sort_cost = costs.ganns_sort_cycles(l_t, n_t)
    merge_cost = costs.ganns_merge_cycles(l_pool, l_t, n_t)
    per_vector_cost = costs.single_distance_cycles(dist_dims, n_t)

    active = np.ones(n_queries, dtype=bool)
    iterations = np.zeros(n_queries, dtype=np.int64)
    max_iterations = _MAX_ITERATION_FACTOR * e_budget + 256
    while True:
        act = np.flatnonzero(active)
        if len(act) == 0:
            break

        # Phase 1 — candidate locating: first unexplored of the first e.
        tracker.charge("candidate_locating", locate_cost, act)
        window = ~pool_explored[act, :e_budget]
        has_work = window.any(axis=1)
        active[act[~has_work]] = False
        act = act[has_work]
        if len(act) == 0:
            continue
        slot = np.argmax(window[has_work], axis=1)
        iterations[act] += 1
        if iterations.max() > max_iterations:
            raise SearchError(
                f"search exceeded {max_iterations} iterations; the graph "
                f"is likely structurally corrupt"
            )
        exploring = pool_ids[act, slot]
        pool_explored[act, slot] = True

        # Phase 2 — neighborhood exploration: adjacency rows into T.
        tracker.charge("neighborhood_exploration", explore_cost, act)
        t_ids = graph.neighbor_ids[exploring]
        valid = t_ids >= 0
        degrees = graph.degrees[exploring]

        # Phase 3 — bulk distance computation, visited or not.
        t_dists = distance_fn(act, np.where(valid, t_ids, 0))
        t_dists[~valid] = np.inf
        tracker.charge("bulk_distance", degrees * per_vector_cost, act)
        n_distance_computations += int(degrees.sum())

        # Phase 4 — lazy check: invalidate anything resident in N.
        if lazy_check:
            tracker.charge("lazy_check", check_cost, act)
            duplicate = (t_ids[:, :, None] == pool_ids[act][:, None, :]
                         ).any(axis=2)
            dead = duplicate | ~valid
        else:
            dead = ~valid
        t_dists[dead] = np.inf
        t_ids = np.where(dead, -1, t_ids)

        # Phase 5 — sort T by (distance, id); dead entries sink.
        tracker.charge("sorting", sort_cost, act)
        order = np.lexsort((t_ids, t_dists), axis=1)
        t_dists = np.take_along_axis(t_dists, order, axis=1)
        t_ids = np.take_along_axis(t_ids, order, axis=1)

        # Phase 6 — candidate update: keep the best of N ∪ T (the
        # pool wins ties: lexsort is stable and the pool comes first).
        tracker.charge("candidate_update", merge_cost, act)
        all_dists = np.concatenate([pool_dists[act], t_dists], axis=1)
        all_ids = np.concatenate([pool_ids[act], t_ids], axis=1)
        all_explored = np.concatenate([pool_explored[act], t_ids < 0], 1)
        merge_order = np.lexsort((all_ids, all_dists), axis=1)[:, :l_pool]
        pool_dists[act] = np.take_along_axis(all_dists, merge_order, axis=1)
        pool_ids[act] = np.take_along_axis(all_ids, merge_order, axis=1)
        pool_explored[act] = np.take_along_axis(all_explored, merge_order,
                                                axis=1)

    if params.quant is not None:
        # Stage 2 — exact rerank of the whole over-fetched pool.
        real = pool_ids >= 0
        pool_dists = exact_fn(np.arange(n_queries),
                              np.where(real, pool_ids, 0))
        pool_dists[~real] = np.inf
        reranked = real.sum(axis=1)
        tracker.charge("bulk_distance", reranked
                       * costs.single_distance_cycles(n_dims, n_t))
        n_distance_computations += int(reranked.sum())
        tracker.charge("sorting", costs.bitonic_sort_cycles(l_pool, n_t))
        order = np.lexsort((pool_ids, pool_dists), axis=1)
        pool_ids = np.take_along_axis(pool_ids, order, axis=1)
        pool_dists = np.take_along_axis(pool_dists, order, axis=1)

    return SearchReport(
        algorithm="ganns",
        ids=pool_ids[:, :params.k].copy(),
        dists=pool_dists[:, :params.k].copy(),
        tracker=tracker,
        n_threads=n_t,
        shared_mem_bytes=SharedMemoryBudget(l_n=l_pool,
                                            l_t=l_t).total_bytes(),
        iterations=iterations,
        n_distance_computations=n_distance_computations,
    )
