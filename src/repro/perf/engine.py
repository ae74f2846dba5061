"""The GANNS search implementation: one arena-backed traversal.

The six phases of Figure 3 with the paper's cycle charges, executed for
a whole query batch in lock-step:

- work buffers come from a reused :class:`repro.perf.arena.SearchArena`;
  active queries occupy compact rows and finished queries are scattered
  to the output arrays the moment they retire, so no phase ever gathers
  ``pool[act]`` or pays for queries that are done;
- distances come from :class:`repro.perf.distance.GroupDistanceEngine`
  (precomputed norms, one gather + one GEMM-style einsum per iteration,
  compute dtype preserved);
- phase 4's duplicate check runs as a row-offset ``searchsorted`` over
  id-sorted pool rows — O(l_t log l_n) per query;
- phase 6's merge strategy is picked from the observable batch width
  (:data:`_STEP_MERGE_MIN_ROWS`): a rank merge for narrow batches, a
  two-pointer step merge for wide ones.  Both are exact.

Contract (``tests/test_perf_equivalence.py``,
``tests/test_perf_properties.py``, ``tests/test_core_ganns_kernel.py``):
ids, iteration counts and per-phase per-lane cycle charges equal the
batched oracle's (``tests/oracles/ganns_batched.py``) and the
single-query warp kernel's — charges are issued with the oracle's lane
sets, amounts and order, so tracker listeners (e.g. the serve engine's
mirrors) observe identical streams.  The merge tie rule
``(a_dist < b_dist) | ((a_dist == b_dist) & (a_id <= b_id))`` is the
oracle's stable lexsort (pool entries win ties against T entries).
Distances are bit-identical to the oracle for cosine/ip and agree to
last-ulp rounding for euclidean (GEMM norm expansion vs diff-einsum).

Keys must form a total order, so :func:`repro.core.ganns.ganns_search`
rejects non-finite queries before they reach the traversal.

The traversal loop itself is engine-agnostic (:func:`_traverse`): it
runs identically over the exact :class:`GroupDistanceEngine` and over a
compressed :class:`repro.perf.quant.QuantizedGroupEngine`, which is how
:func:`ganns_search_staged` implements the two-stage quantized pipeline
— compressed traversal over a ``rerank_factor * l_n`` pool, then an
exact full-precision rerank of that pool before top-k selection.  The
staged path is **lossy** (see :mod:`repro.perf.quant`); only
:func:`ganns_search_fast` carries the oracle contract.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from repro.core.params import SearchParams
from repro.core.results import SearchReport, make_search_tracker
from repro.errors import SearchError
from repro.graphs.adjacency import ProximityGraph
from repro.gpusim.costs import CostTable
from repro.gpusim.memory import SharedMemoryBudget
from repro.perf.arena import get_arena, get_rerank_scratch
from repro.perf.distance import make_distance_engine
from repro.perf.quant import QuantizedGroupEngine, charged_dims, \
    quantize_points

#: Safety cap on iterations, as a multiple of the explore budget; the
#: search provably terminates long before this — hitting the cap means a
#: broken graph (e.g. corrupted adjacency) and raises.
_MAX_ITERATION_FACTOR = 64

#: Batch width at which the merge switches from the rank strategy (few
#: NumPy calls, O(l_n * l_t) element work) to the step strategy
#: (l_n * ~8 calls, O(l_n + l_t) element work).  Both are exact; this
#: only trades constant factors — measured on l_n=64/l_t=16 shapes the
#: curves cross between m=64 (rank 1.6x faster) and m=256 (step 1.1x
#: faster).
_STEP_MERGE_MIN_ROWS = 128


def _traverse(graph: ProximityGraph, engine, arena, tracker,
              costs: CostTable, *, l_pool: int, e_budget: int, n_t: int,
              out_width: int, dist_dims: int, entries: np.ndarray,
              lazy_check: bool, out_ids: np.ndarray,
              out_dists: np.ndarray) -> Tuple[np.ndarray, int]:
    """Run the six-phase GANNS loop over ``engine`` until every query
    retires.

    Engine-agnostic core shared by the exact search and the staged
    quantized one.  The pool is ``l_pool`` wide but only the first
    ``e_budget`` slots are candidates for exploration — the staged
    search widens the pool (candidate over-fetch) without widening the
    explore window, so its iteration count tracks the exact search's.

    Args:
        engine: Any object with the ``pairs(query_rows, cand_ids)``
            distance contract (negative ids clip to row 0; callers
            overwrite those lanes).
        l_pool: Pool width (``l_n``, or ``rerank_factor * l_n`` for the
            staged path).
        dist_dims: Dimensions charged to the cost model per distance
            (the ambient ``d`` for exact engines; the compressed
            component count for quantized ones).
        out_width: Columns scattered to ``out_ids``/``out_dists`` when
            a query retires (``k``, or the whole pool for the staged
            path's rerank input).

    Returns:
        ``(iterations, n_distance_computations)``.
    """
    n_queries = len(out_ids)
    l_t = graph.d_max
    m = arena.reset(n_queries)

    # Initialisation: load the entry vertex into N.
    entry_dists = engine.pairs(arena.rows[:m], entries[:, None])[:, 0]
    arena.pool_dists[:m, 0] = entry_dists
    arena.pool_ids[:m, 0] = entries
    arena.pool_explored[:m, 0] = False
    tracker.charge("bulk_distance",
                   costs.single_distance_cycles(dist_dims, n_t))
    n_distance_computations = n_queries

    locate_cost = costs.ganns_candidate_locate_cycles(l_pool, n_t)
    explore_cost = costs.ganns_explore_cycles(l_t, n_t)
    check_cost = costs.ganns_lazy_check_cycles(l_pool, l_t, n_t)
    sort_cost = costs.ganns_sort_cycles(l_t, n_t)
    merge_cost = costs.ganns_merge_cycles(l_pool, l_t, n_t)
    per_vector_cost = costs.single_distance_cycles(dist_dims, n_t)

    iterations = np.zeros(n_queries, dtype=np.int64)
    max_iterations = _MAX_ITERATION_FACTOR * e_budget + 256
    col_a = np.arange(l_pool, dtype=np.int64)
    col_b = np.arange(l_t, dtype=np.int64)
    # Row keys for the flat duplicate probe: id ranges per row must not
    # overlap; ids live in [-1, n_vertices - 1] so a stride of
    # n_vertices + 2 keeps rows strictly separated.
    id_stride = np.int64(graph.n_vertices + 2)

    while m > 0:
        # Phase 1 — candidate locating.  query_rows[:m] is exactly the
        # oracle's np.flatnonzero(active): compaction keeps rows in
        # ascending original order, so the tracker sees the same lanes.
        act = arena.query_rows[:m]
        tracker.charge("candidate_locating", locate_cost, act)
        window = ~arena.pool_explored[:m, :e_budget]
        has_work = window.any(axis=1)
        slot = np.argmax(window[has_work], axis=1)
        if not has_work.all():
            done = np.flatnonzero(~has_work)
            done_queries = arena.query_rows[done]
            out_ids[done_queries] = arena.pool_ids[done, :out_width]
            out_dists[done_queries] = arena.pool_dists[done, :out_width]
            m = arena.compact(m, has_work)
            if m == 0:
                break
            act = arena.query_rows[:m]
        rows = arena.rows[:m]
        iterations[act] += 1
        if iterations.max() > max_iterations:
            raise SearchError(
                f"search exceeded {max_iterations} iterations; the graph "
                f"is likely structurally corrupt"
            )
        exploring = arena.pool_ids[rows, slot]
        arena.pool_explored[rows, slot] = True

        # Phase 2 — neighborhood exploration: stream adjacency rows
        # into the arena's T buffer (no intermediate copy).
        tracker.charge("neighborhood_exploration", explore_cost, act)
        t_ids = arena.t_ids[:m]
        np.take(graph.neighbor_ids, exploring, axis=0, out=t_ids)
        valid = t_ids >= 0
        degrees = graph.degrees[exploring]

        # Phase 3 — bulk distance computation (negative ids clip to
        # point 0 inside the engine and are overwritten with +inf).
        t_dists = engine.pairs(act, t_ids)
        t_dists[~valid] = np.inf
        tracker.charge("bulk_distance", degrees * per_vector_cost, act)
        n_distance_computations += int(degrees.sum())

        # Phase 4 — lazy check via row-offset searchsorted: sort each
        # pool row by id once, probe all of T against the flat sorted
        # key space (rows separated by id_stride).
        if lazy_check:
            tracker.charge("lazy_check", check_cost, act)
            ids_sorted = arena.ids_sorted[:m]
            ids_sorted[:] = arena.pool_ids[:m]
            ids_sorted.sort(axis=1)
            offsets = rows[:, None] * id_stride
            flat_pool = (ids_sorted + offsets).ravel()
            flat_t = (t_ids + offsets).ravel()
            pos = np.searchsorted(flat_pool, flat_t)
            np.minimum(pos, flat_pool.size - 1, out=pos)
            duplicate = (flat_pool[pos] == flat_t).reshape(m, l_t)
            dead = duplicate | ~valid
        else:
            dead = ~valid
        t_dists[dead] = np.inf
        t_ids[dead] = -1

        # Phases 5+6 fast-outs.  Rows whose T is entirely invalidated
        # merge nothing: every T record is a (+inf, -1) pad, which loses
        # to the pool's own padding under the tie rule, so sorting and
        # merging them is the identity on the pool.  The cycle charges
        # are still issued with the full lane sets (the simulated kernel
        # runs the network regardless); only the host-side work is
        # skipped.  In converged iterations T is mostly duplicates, so
        # these paths carry the long tail of the search.
        row_live = ~dead.all(axis=1)
        n_live = int(np.count_nonzero(row_live))
        if n_live == 0:
            tracker.charge("sorting", sort_cost, act)
            tracker.charge("candidate_update", merge_cost, act)
            continue
        if n_live < min(m, _STEP_MERGE_MIN_ROWS):
            # Few live rows: sort and rank-merge just those, scattering
            # the merged pools back in place (no buffer swap, so the
            # untouched rows stay valid).  Same rank arithmetic as the
            # narrow-batch merge below — a bijection onto the merged
            # positions, pool wins ties.
            sub = np.flatnonzero(row_live)
            t_d = t_dists[sub]
            t_i = t_ids[sub]
            tracker.charge("sorting", sort_cost, act)
            order = np.lexsort((t_i, t_d), axis=1)
            t_d = np.take_along_axis(t_d, order, axis=1)
            t_i = np.take_along_axis(t_i, order, axis=1)
            tracker.charge("candidate_update", merge_cost, act)
            a_dist = arena.pool_dists[sub]
            a_id = arena.pool_ids[sub]
            a_exp = arena.pool_explored[sub]
            b_before_a = ((t_d[:, None, :] < a_dist[:, :, None])
                          | ((t_d[:, None, :] == a_dist[:, :, None])
                             & (t_i[:, None, :] < a_id[:, :, None])))
            a_rank = col_a + b_before_a.sum(axis=2)
            b_rank = col_b + l_pool - b_before_a.sum(axis=1)
            keep_a = a_rank < l_pool
            keep_b = b_rank < l_pool
            merged_d = np.empty_like(a_dist)
            merged_i = np.empty_like(a_id)
            merged_e = np.empty_like(a_exp)
            srow = np.broadcast_to(
                np.arange(n_live, dtype=np.int64)[:, None], keep_a.shape)
            merged_d[srow[keep_a], a_rank[keep_a]] = a_dist[keep_a]
            merged_i[srow[keep_a], a_rank[keep_a]] = a_id[keep_a]
            merged_e[srow[keep_a], a_rank[keep_a]] = a_exp[keep_a]
            srow_b = np.broadcast_to(
                np.arange(n_live, dtype=np.int64)[:, None], keep_b.shape)
            merged_d[srow_b[keep_b], b_rank[keep_b]] = t_d[keep_b]
            merged_i[srow_b[keep_b], b_rank[keep_b]] = t_i[keep_b]
            merged_e[srow_b[keep_b], b_rank[keep_b]] = t_i[keep_b] < 0
            arena.pool_dists[sub] = merged_d
            arena.pool_ids[sub] = merged_i
            arena.pool_explored[sub] = merged_e
            continue

        # Phase 5 — sort T by (distance, id).  Records with equal keys
        # are identical (+inf, -1) pads, so any (dist, id) sort yields
        # the oracle's exact T sequence.
        tracker.charge("sorting", sort_cost, act)
        order = np.lexsort((t_ids, t_dists), axis=1)
        t_dists = np.take_along_axis(t_dists, order, axis=1)
        t_ids_sorted = np.take_along_axis(t_ids, order, axis=1)

        # Phase 6 — candidate update: merge the two sorted runs into the
        # alternate pool buffer.  Both strategies below reproduce the
        # oracle lexsort's stability exactly (pool wins ties on equal
        # (dist, id)); they differ only in constant factors, so the
        # batch width picks:
        #
        # - wide batches: a two-pointer step merge — l_n vectorised
        #   steps of O(m) work each, linear in l_n + l_t;
        # - narrow batches (the long tail where a few slow queries keep
        #   iterating): a rank merge — each record's merged position is
        #   its run index plus the count of strictly-preceding records
        #   in the other run, one broadcast comparison for the whole
        #   batch.  Quadratic in l_n * l_t but a dozen NumPy calls
        #   total, which is what matters when m is tiny.
        #
        # Keys form a total order (no NaNs; see module docstring), so in
        # the rank merge the T-side count is the complement of the
        # pool-side one, and ranks are a bijection onto the merged
        # positions — every output slot below l_n is written exactly
        # once.
        tracker.charge("candidate_update", merge_cost, act)
        if m >= _STEP_MERGE_MIN_ROWS:
            # Flat views + flat cursors: every gather is a 1-D ``take``
            # (cheaper than pairwise fancy indexing), and the padded T
            # run's sentinel column means the B cursor never needs a
            # bounds check — the sentinel loses every comparison, even
            # against the pool's own (+inf, -1) padding.
            pd_flat = arena.pool_dists.ravel()
            pi_flat = arena.pool_ids.ravel()
            pe_flat = arena.pool_explored.ravel()
            arena.t_dists_pad[:m, :l_t] = t_dists
            arena.t_ids_pad[:m, :l_t] = t_ids_sorted
            td_flat = arena.t_dists_pad.ravel()
            ti_flat = arena.t_ids_pad.ravel()
            fa = arena.merge_fa[:m]
            fb = arena.merge_fb[:m]
            fa[:] = arena.row_base_a[:m]
            fb[:] = arena.row_base_b[:m]
            tmp_d = arena.out_dists
            tmp_i = arena.out_ids
            tmp_e = arena.out_explored
            filled = l_pool
            for out_slot in range(l_pool):
                a_dist = pd_flat.take(fa)
                a_id = pi_flat.take(fa)
                b_dist = td_flat.take(fb)
                b_id = ti_flat.take(fb)
                take_a = ((a_dist < b_dist)
                          | ((a_dist == b_dist) & (a_id <= b_id)))
                tmp_d[out_slot, :m] = np.where(take_a, a_dist, b_dist)
                tmp_i[out_slot, :m] = np.where(take_a, a_id, b_id)
                tmp_e[out_slot, :m] = np.where(
                    take_a, pe_flat.take(fa), b_id < 0)
                fa += take_a
                fb += ~take_a
                # Every fourth slot, test whether the tail can still
                # change: if each row's last reachable pool record wins
                # against that row's current T record, every remaining
                # output is a straight run of pool entries (both runs
                # are sorted, ties go to the pool) — one bulk gather
                # finishes the merge.  In converged iterations T is
                # mostly duplicates, so this fires almost immediately.
                if (out_slot & 3) == 3 and out_slot + 1 < l_pool:
                    rem = l_pool - 1 - out_slot
                    tail = fa + (rem - 1)
                    a_dist = pd_flat.take(tail)
                    a_id = pi_flat.take(tail)
                    b_dist = td_flat.take(fb)
                    b_id = ti_flat.take(fb)
                    pure_a = ((a_dist < b_dist)
                              | ((a_dist == b_dist) & (a_id <= b_id)))
                    if pure_a.all():
                        idx = fa[:, None] + col_a[:rem]
                        arena.pool_dists[:m, out_slot + 1:] = \
                            pd_flat.take(idx)
                        arena.pool_ids[:m, out_slot + 1:] = \
                            pi_flat.take(idx)
                        arena.pool_explored[:m, out_slot + 1:] = \
                            pe_flat.take(idx)
                        filled = out_slot + 1
                        break
            # The merged head lands back in the (live) pool buffers —
            # the wide path never swaps.
            arena.pool_dists[:m, :filled] = tmp_d[:filled, :m].T
            arena.pool_ids[:m, :filled] = tmp_i[:filled, :m].T
            arena.pool_explored[:m, :filled] = tmp_e[:filled, :m].T
        else:
            a_dist = arena.pool_dists[:m]
            a_id = arena.pool_ids[:m]
            b_before_a = ((t_dists[:, None, :] < a_dist[:, :, None])
                          | ((t_dists[:, None, :] == a_dist[:, :, None])
                             & (t_ids_sorted[:, None, :]
                                < a_id[:, :, None])))
            a_rank = col_a + b_before_a.sum(axis=2)
            b_rank = col_b + l_pool - b_before_a.sum(axis=1)
            keep_a = a_rank < l_pool
            keep_b = b_rank < l_pool
            mrows = np.broadcast_to(arena.rows[:m, None], keep_a.shape)
            alt_d, alt_i = arena.alt_dists, arena.alt_ids
            alt_e = arena.alt_explored
            alt_d[mrows[keep_a], a_rank[keep_a]] = a_dist[keep_a]
            alt_i[mrows[keep_a], a_rank[keep_a]] = a_id[keep_a]
            alt_e[mrows[keep_a], a_rank[keep_a]] = \
                arena.pool_explored[:m][keep_a]
            mrows_b = np.broadcast_to(arena.rows[:m, None], keep_b.shape)
            t_explored = t_ids_sorted < 0
            alt_d[mrows_b[keep_b], b_rank[keep_b]] = t_dists[keep_b]
            alt_i[mrows_b[keep_b], b_rank[keep_b]] = t_ids_sorted[keep_b]
            alt_e[mrows_b[keep_b], b_rank[keep_b]] = t_explored[keep_b]
            arena.swap_pools()

    return iterations, n_distance_computations


def ganns_search_fast(graph: ProximityGraph, points: np.ndarray,
                      queries: np.ndarray, params: SearchParams,
                      entries: np.ndarray,
                      costs: CostTable,
                      lazy_check: bool,
                      compute_dtype: np.dtype) -> SearchReport:
    """Run the exact batched GANNS search.

    Called by :func:`repro.core.ganns.ganns_search` after argument
    validation; ``entries`` is the already-broadcast ``(m,)`` entry-id
    array and ``compute_dtype`` the resolved distance dtype.
    """
    n_queries = len(queries)
    l_n = params.l_n
    l_t = graph.d_max
    e_budget = min(params.explore_budget, l_n)
    n_t = params.n_threads
    k = params.k

    tracker = make_search_tracker(n_queries, "ganns")
    engine = make_distance_engine(graph.metric_name, points, queries,
                                  compute_dtype)
    arena = get_arena(n_queries, l_n, l_t, compute_dtype)

    out_ids = np.empty((n_queries, k), dtype=np.int64)
    out_dists = np.empty((n_queries, k), dtype=compute_dtype)

    iterations, n_distance_computations = _traverse(
        graph, engine, arena, tracker, costs,
        l_pool=l_n, e_budget=e_budget, n_t=n_t, out_width=k,
        dist_dims=points.shape[1], entries=entries,
        lazy_check=lazy_check, out_ids=out_ids, out_dists=out_dists)

    shared_mem = SharedMemoryBudget(l_n=l_n, l_t=l_t).total_bytes()
    return SearchReport(
        algorithm="ganns",
        ids=out_ids,
        dists=out_dists,
        tracker=tracker,
        n_threads=n_t,
        shared_mem_bytes=shared_mem,
        iterations=iterations,
        n_distance_computations=n_distance_computations,
    )


#: Traversal distances of the staged path always accumulate in float32:
#: the compressed representations carry at most float32 precision, and
#: the exact rerank restores the caller's compute dtype afterwards.
_STAGED_TRAVERSAL_DTYPE = np.dtype(np.float32)


def ganns_search_staged(graph: ProximityGraph, points: np.ndarray,
                        queries: np.ndarray, params: SearchParams,
                        entries: np.ndarray,
                        costs: CostTable,
                        lazy_check: bool,
                        compute_dtype: np.dtype,
                        quant_mode: str) -> SearchReport:
    """Two-stage quantized search: compressed traversal + exact rerank.

    Stage 1 runs the ordinary six-phase traversal, but over a
    :class:`~repro.perf.quant.QuantizedGroupEngine` and with the pool
    widened to ``l_q = rerank_factor * l_n`` — the explore window stays
    at the exact search's ``e`` budget, so the wider pool is pure
    candidate over-fetch, not extra hops.  Stage 2 recomputes exact
    full-precision distances for the whole retained pool and selects the
    final top-k from those, charged as one bulk-distance pass plus one
    bitonic sort of ``l_q`` records.

    The result is **lossy** relative to the exact search: the
    compressed traversal can walk a different path, so the candidate
    pool (and hence recall) may differ.  Returned *distances* are always
    exact — stage 2 guarantees every reported (id, dist) pair is the
    true metric value in ``compute_dtype``.
    """
    n_queries = len(queries)
    n_dims = points.shape[1]
    l_n = params.l_n
    l_t = graph.d_max
    l_q = l_n * params.rerank_factor
    e_budget = min(params.explore_budget, l_n)
    n_t = params.n_threads
    k = params.k

    tracker = make_search_tracker(n_queries, "ganns")
    table = quantize_points(points, quant_mode, graph.metric_name)
    engine = QuantizedGroupEngine(table, queries)
    arena = get_arena(n_queries, l_q, l_t, _STAGED_TRAVERSAL_DTYPE)
    scratch = get_rerank_scratch(n_queries, l_q)
    pool_ids = scratch.pool_ids[:n_queries]
    pool_dists = scratch.pool_dists[:n_queries]

    iterations, n_distance_computations = _traverse(
        graph, engine, arena, tracker, costs,
        l_pool=l_q, e_budget=e_budget, n_t=n_t, out_width=l_q,
        dist_dims=charged_dims(table), entries=entries,
        lazy_check=lazy_check, out_ids=pool_ids, out_dists=pool_dists)

    # Stage 2 — exact rerank of the over-fetched pool.  One
    # full-precision bulk-distance pass over every valid candidate
    # (invalid pads clip to point 0 in the engine and are masked to
    # +inf), then a (dist, id) sort of the l_q records per query —
    # charged as one bitonic sort, the kernel that would run it.
    exact = make_distance_engine(graph.metric_name, points, queries,
                                 compute_dtype)
    all_rows = np.arange(n_queries, dtype=np.int64)
    valid = pool_ids >= 0
    exact_dists = exact.pairs(all_rows, pool_ids)
    exact_dists[~valid] = np.inf
    per_vector_cost = costs.single_distance_cycles(n_dims, n_t)
    tracker.charge("bulk_distance",
                   valid.sum(axis=1) * per_vector_cost, all_rows)
    n_distance_computations += int(valid.sum())
    tracker.charge("sorting", costs.bitonic_sort_cycles(l_q, n_t),
                   all_rows)
    order = np.lexsort((pool_ids, exact_dists), axis=1)[:, :k]
    out_ids = np.take_along_axis(pool_ids, order, axis=1)
    out_dists = np.ascontiguousarray(
        np.take_along_axis(exact_dists, order, axis=1),
        dtype=compute_dtype)

    shared_mem = SharedMemoryBudget(l_n=l_q, l_t=l_t).total_bytes()
    return SearchReport(
        algorithm="ganns",
        ids=np.ascontiguousarray(out_ids),
        dists=out_dists,
        tracker=tracker,
        n_threads=n_t,
        shared_mem_bytes=shared_mem,
        iterations=iterations,
        n_distance_computations=n_distance_computations,
    )
