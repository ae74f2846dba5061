"""The GANNS search implementation: one arena-backed traversal.

The six phases of Figure 3 with the paper's cycle charges, executed for
a whole query batch in lock-step:

- work buffers come from the call's own
  :class:`repro.perf.arena.SearchArena`; active queries occupy compact
  rows and finished queries are scattered to the output arrays the
  moment they retire, so no phase ever gathers ``pool[act]`` or pays
  for queries that are done;
- distances come from :class:`repro.perf.distance.GroupDistanceEngine`
  (precomputed norms, compute dtype preserved): each iteration's fresh
  records are gathered and reduced in cache-sized row blocks
  (:func:`repro.perf.distance.row_blocks`), one gather + one GEMM-style
  einsum per block, so a wide high-dimensional iteration never streams
  its gathered rows through DRAM;
- phase 4's duplicate check is one gather from a per-call
  :class:`repro.perf.arena.EvaluatedPairs` map, taken *before*
  phase 3: a (query, vertex) distance is evaluated once per call and
  charged every time the simulated kernel would recompute it (same
  entrants as the paper's scan of N — ``docs/performance.md``,
  "Charged vs evaluated distances");
- phases 5+6 are one insertion merge (:func:`_insert_merge`) of the
  flat records phase 3 evaluated — no ``(m, l_t)`` T-distance matrix
  exists: only those that beat their row's last pool record — about
  two of the ``l_t`` computed — are sorted, ranked and written, and
  only the rows they touch are rewritten;
- the per-iteration host cost follows those records, not the phase
  count: ``bulk_distance`` (its addends vary per lane) and the distance
  counts add up in each lane's compact row and reach the tracker when
  the lane retires, the five constant-cost phases once per call, for
  each lane's pass count (:func:`_charge_passes`; the simulated kernel
  runs its networks whatever T holds, so the bill is the same).

Contract (``tests/test_perf_equivalence.py``,
``tests/test_perf_properties.py``, ``tests/test_core_ganns_kernel.py``):
ids, iteration counts and per-phase per-lane cycle charges equal the
batched oracle's (``tests/oracles/ganns_batched.py``) and the
single-query warp kernel's.  The merge tie rule — a pool record
``a`` precedes a T record ``b`` iff
``(a_dist < b_dist) | ((a_dist == b_dist) & (a_id <= b_id))`` — is the
oracle's stable lexsort (pool entries win ties against T entries).
Distances are bit-identical to the oracle for cosine/ip and agree to
last-ulp rounding for euclidean (GEMM norm expansion vs diff-einsum).

Keys must form a total order, so :func:`repro.core.ganns.ganns_search`
rejects non-finite queries and corpora before they reach the traversal.

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

from typing import Tuple

import numpy as np

from repro.core.params import SearchParams
from repro.core.results import SearchReport
from repro.errors import SearchError
from repro.graphs.adjacency import ProximityGraph
from repro.gpusim.costs import CostTable
from repro.gpusim.memory import SharedMemoryBudget
from repro.gpusim.tracker import CycleTracker
from repro.perf.arena import EvaluatedPairs, SearchArena, get_arena
from repro.perf.distance import make_distance_engine
from repro.perf.quant import QuantizedGroupEngine, charged_dims, \
    quantize_points

#: Safety cap on iterations, as a multiple of the explore budget; the
#: search provably terminates long before this — hitting the cap means a
#: broken graph (e.g. corrupted adjacency) and raises.
_MAX_ITERATION_FACTOR = 64


#: Survivors up to which :func:`_insert_merge` ranks them with one
#: ``lexsort``; past it, three single-key sorts are faster, since one
#: ``lexsort`` runs three stable indirect sorts (at 356 survivors 11 µs
#: against 25; at 2,000, 306 µs against 78).
_LEXSORT_MAX_SURVIVORS = 400


def _insert_merge(arena: SearchArena, row: np.ndarray, dist: np.ndarray,
                  ident: np.ndarray) -> None:
    """Phases 5+6: merge this iteration's fresh T records into the pools.

    ``(row, dist, ident)`` are the records phase 3 evaluated, flat and
    row-ascending (compact rows; pads and lazy-check victims never get
    here).  Same result as the oracle's stable lexsort of pool + sorted
    T truncated to the pool width (pool wins ties), computed from the
    records that enter a pool (``docs/performance.md``, "Charged vs
    evaluated distances", has the argument):

    1. *accept* the records that strictly precede their row's last pool
       record — truncation drops the rest anyway;
    2. *rank*: sort the survivors by ``(row, dist, id)``; a survivor's
       slot is the number of its row's pool records that precede or tie
       it plus its index within the row's run, and slots past the pool
       width fall off (always a run's tail);
    3. *rewrite* the touched rows: slots no survivor took are
       pool-sourced in pool order, so a running count of taken slots
       gives each its source column.
    """
    width = arena.l_n
    pool_dists, pool_ids = arena.pool_dists, arena.pool_ids
    last_dist = arena.last_dists[row]
    accept = dist < last_dist
    tie = dist == last_dist
    if tie.any():
        accept |= tie & (ident < arena.last_ids[row])
    accept = accept.nonzero()[0]
    n = len(accept)
    if n == 0:
        return
    row, dist, ident = row[accept], dist[accept], ident[accept]
    if n <= _LEXSORT_MAX_SURVIVORS:
        order = np.lexsort((ident, dist, row))
    else:
        # A wide batch's first iterations offer thousands of survivors:
        # rank by ``(dist, id)`` — a distance sort, then a stable sort
        # of ``(distance rank, id)`` keys that are already in order
        # except where distances tie — and sort by row, then that rank.
        # No key reaches ``n * (max id + 1)`` or ``m * n``.
        by_dist = dist.argsort()
        sorted_dist = dist[by_dist]
        dist_rank = np.concatenate(
            ([0], (sorted_dist[1:] != sorted_dist[:-1]).cumsum()))
        by_dist = by_dist[(dist_rank * (int(ident.max()) + 1)
                           + ident[by_dist]).argsort(kind="stable")]
        rank = np.empty(n, dtype=np.int64)
        rank[by_dist] = np.arange(n)
        order = (row * n + rank).argsort()
    row, dist, ident = row[order], dist[order], ident[order]

    # Pool records ahead of each survivor: the strictly nearer ones —
    # a sorted row's prefix, which ends before the last record (the
    # survivor beat it), so the first record that is not nearer counts
    # them — plus, where the record it would displace is equidistant
    # (one probe finds every tie), those with an id <= its own.
    ahead = (pool_dists.take(row, axis=0) < dist[:, None]).argmin(axis=1)
    tied = arena.flat_dists[row * width + ahead] == dist
    if tied.any():
        tied_row = row[tied]
        ahead[tied] += ((pool_dists[tied_row] == dist[tied, None])
                        & (pool_ids[tied_row] <= ident[tied, None])
                        ).sum(axis=1)
    run_start = np.concatenate(([True], row[1:] != row[:-1]))
    first = run_start.nonzero()[0]
    touched = row[first]
    group = run_start.cumsum() - 1
    slot = ahead + np.arange(n) - first[group]
    # A run's first record always lands (it beat the last pool record):
    # every touched row keeps one.
    kept = slot < width
    group, slot, dist, ident = group[kept], slot[kept], dist[kept], \
        ident[kept]

    taken = np.zeros((len(touched), width), dtype=bool)
    taken[group, slot] = True
    # Flat source of every pool-sourced slot; a taken slot computes a
    # column to its left (-1 at worst, hence the clip) and is overwritten.
    source = (arena.cols - taken.cumsum(axis=1)
              + (touched * width)[:, None])
    for pool, flat, entering in (
            (pool_dists, arena.flat_dists, dist),
            (pool_ids, arena.flat_ids, ident),
            (arena.pool_explored, arena.flat_explored, False)):
        merged = flat.take(source, mode="clip")
        merged[group, slot] = entering
        pool[touched] = merged


def _charge_passes(tracker: CycleTracker, phase: str, cost: float,
                   passes: np.ndarray, max_passes: int) -> None:
    """Charge ``phase`` ``cost`` once per pass, ``passes`` per lane, in
    one call.  The running sum is sequential, so each lane gets exactly
    the float that ``passes`` repeated ``+= cost`` would leave — for any
    cost, not just integral ones (a product would round differently)."""
    running = np.zeros(max_passes + 2)
    running[1:] = cost
    tracker.charge(phase, np.add.accumulate(running).take(passes))


def _traverse(graph: ProximityGraph, engine, arena, tracker,
              costs: CostTable, *, l_pool: int, e_budget: int, n_t: int,
              out_width: int, dist_dims: int, entries: np.ndarray,
              lazy_check: bool, out_ids: np.ndarray,
              out_dists: np.ndarray
              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the six-phase GANNS loop over ``engine`` until every query
    retires.

    Engine-agnostic core shared by the exact search and the staged
    quantized one.  The pool is ``l_pool`` wide but only the first
    ``e_budget`` slots are candidates for exploration — the staged
    search widens the pool (candidate over-fetch) without widening the
    explore window, so its iteration count tracks the exact search's.

    Args:
        engine: Any object with the ``pairs(query_rows, cand_ids)``
            distance contract (negative ids clip to row 0; those lanes
            are masked, never read).
        l_pool: Pool width (``l_n``, or ``rerank_factor * l_n`` for the
            staged path).
        dist_dims: Dimensions charged to the cost model per distance
            (the ambient ``d`` for exact engines; the compressed
            component count for quantized ones).
        out_width: Columns scattered to ``out_ids``/``out_dists`` when
            a query retires (``k``, or the whole pool for the staged
            path's rerank input).

    Returns:
        ``(iterations, n_distance_computations, n_evaluations)``, each
        per query: distances the simulated kernel is charged for, and
        distances the host evaluated.
    """
    n_queries = m = len(out_ids)
    l_t = graph.d_max
    per_vector_cost = costs.single_distance_cycles(dist_dims, n_t)

    # Initialisation: load the entry vertex into N.  A lane's
    # ``bulk_distance`` charge and distance counts run in its compact
    # row and reach the tracker once, when it retires: the same float
    # additions in the same order as a charge per pass.
    entry_dists = engine.pairs(arena.rows[:m], entries[:, None])[:, 0]
    arena.pool_dists[:m, 0] = entry_dists
    arena.pool_ids[:m, 0] = entries
    arena.pool_explored[:m, 0] = False
    if lazy_check:
        seen = EvaluatedPairs(n_queries, graph.n_vertices)
        seen.insert(arena.query_rows[:m], entries)
    arena.bulk_cycles[:m] = per_vector_cost
    arena.counts[:m] = 1

    flat_pool_ids, flat_explored = arena.flat_ids, arena.flat_explored
    iterations = np.zeros(n_queries, dtype=np.int64)
    n_distance_computations = np.empty(n_queries, dtype=np.int64)
    n_evaluations = np.empty(n_queries, dtype=np.int64)
    max_iterations = _MAX_ITERATION_FACTOR * e_budget + 256
    loops = 0  # passes that explored: every lane's count so far

    while m > 0:
        # Phase 1 — candidate locating.  query_rows[:m] is exactly the
        # oracle's np.flatnonzero(active): compaction keeps rows in
        # ascending original order, so retiring rows leave in order.
        act = arena.query_rows[:m]
        # The first unexplored slot; a row with none reads an explored
        # slot 0 and retires.
        slot = arena.pool_explored[:m, :e_budget].argmin(axis=1)
        cell = arena.rows[:m] * l_pool + slot
        idle = flat_explored[cell]
        if idle.any():
            done = idle.nonzero()[0]
            done_queries = act[done]
            iterations[done_queries] = loops
            out_ids[done_queries] = arena.pool_ids[done, :out_width]
            out_dists[done_queries] = arena.pool_dists[done, :out_width]
            n_distance_computations[done_queries] = arena.counts[done, 0]
            n_evaluations[done_queries] = arena.counts[done, 1]
            tracker.charge("bulk_distance", arena.bulk_cycles[done],
                           done_queries)
            busy = (~idle).nonzero()[0]
            m = arena.compact(busy)
            if m == 0:
                break
            act = arena.query_rows[:m]
            cell = arena.rows[:m] * l_pool + slot[busy]
        loops += 1
        if loops > max_iterations:
            raise SearchError(
                f"search exceeded {max_iterations} iterations; the graph "
                f"is likely structurally corrupt"
            )
        exploring = flat_pool_ids[cell]
        flat_explored[cell] = True

        # Phase 2 — neighborhood exploration: stream adjacency rows
        # into the arena's T buffer (no intermediate copy).
        t_ids = arena.t_ids[:m]
        graph.neighbor_ids.take(exploring, axis=0, out=t_ids)
        degrees = graph.degrees[exploring]

        # Phases 3+4 — bulk distance computation and lazy check, both
        # charged per slot as the kernel runs them.  The host takes the
        # check first (one gather from the evaluated-pairs map) and
        # evaluates only the pairs this call has never seen: no other
        # record can enter a pool (docs/performance.md, "Charged vs
        # evaluated distances").
        alive = t_ids >= 0
        if lazy_check:
            alive &= ~seen.contains(act, t_ids)
        flat = alive.ravel().nonzero()[0]
        row = flat // l_t
        queries, fresh = act[row], t_ids.ravel()[flat]
        dist = engine.pairs(queries, fresh[:, None])[:, 0]
        arena.bulk_cycles[:m] += degrees * per_vector_cost
        arena.counts[:m, 0] += degrees
        arena.counts[:m, 1] += np.bincount(row, minlength=m)
        if lazy_check:
            seen.insert(queries, fresh)

        # Phases 5+6 — sort T, merge it into N: the host pays for the
        # fresh records that enter.
        _insert_merge(arena, row, dist, fresh)

    # The other five phases cost the same on every pass (the kernel's
    # networks run whatever T holds): each is charged once, for every
    # lane's pass count.  Phase 1 also ran on the pass that retired the
    # lane.
    _charge_passes(tracker, "candidate_locating",
                   costs.ganns_candidate_locate_cycles(l_pool, n_t),
                   iterations + 1, loops)
    _charge_passes(tracker, "neighborhood_exploration",
                   costs.ganns_explore_cycles(l_t, n_t), iterations, loops)
    if lazy_check:
        _charge_passes(tracker, "lazy_check",
                       costs.ganns_lazy_check_cycles(l_pool, l_t, n_t),
                       iterations, loops)
    _charge_passes(tracker, "sorting", costs.ganns_sort_cycles(l_t, n_t),
                   iterations, loops)
    _charge_passes(tracker, "candidate_update",
                   costs.ganns_merge_cycles(l_pool, l_t, n_t), iterations,
                   loops)

    return iterations, n_distance_computations, n_evaluations


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

    tracker = CycleTracker(n_queries)
    engine = make_distance_engine(graph.metric, points, queries,
                                  compute_dtype)
    arena = get_arena(n_queries, l_n, l_t, compute_dtype)

    out_ids = np.empty((n_queries, k), dtype=np.int64)
    out_dists = np.empty((n_queries, k), dtype=compute_dtype)

    iterations, lane_distances, lane_evaluations = _traverse(
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
        n_distance_computations=int(lane_distances.sum()),
        lane_distance_computations=lane_distances,
        lane_distance_evaluations=lane_evaluations,
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

    tracker = CycleTracker(n_queries)
    table = quantize_points(points, quant_mode, graph.metric_name)
    engine = QuantizedGroupEngine(table, queries)
    arena = get_arena(n_queries, l_q, l_t, _STAGED_TRAVERSAL_DTYPE)
    pool_ids = np.empty((n_queries, l_q), dtype=np.int64)
    pool_dists = np.empty((n_queries, l_q), dtype=_STAGED_TRAVERSAL_DTYPE)

    iterations, lane_distances, lane_evaluations = _traverse(
        graph, engine, arena, tracker, costs,
        l_pool=l_q, e_budget=e_budget, n_t=n_t, out_width=l_q,
        dist_dims=charged_dims(table), entries=entries,
        lazy_check=lazy_check, out_ids=pool_ids, out_dists=pool_dists)

    # Stage 2 — exact rerank of the over-fetched pool.  One
    # full-precision bulk-distance pass over every valid candidate
    # (invalid pads clip to point 0 in the engine and are masked to
    # +inf), then a (dist, id) sort of the l_q records per query —
    # charged as one bitonic sort, the kernel that would run it.
    exact = make_distance_engine(graph.metric, points, queries,
                                 compute_dtype)
    all_rows = np.arange(n_queries, dtype=np.int64)
    valid = pool_ids >= 0
    exact_dists = exact.pairs(all_rows, pool_ids)
    exact_dists[~valid] = np.inf
    per_vector_cost = costs.single_distance_cycles(n_dims, n_t)
    n_reranked = valid.sum(axis=1)
    tracker.charge("bulk_distance", n_reranked * per_vector_cost, all_rows)
    lane_distances += n_reranked
    lane_evaluations += n_reranked
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
        n_distance_computations=int(lane_distances.sum()),
        lane_distance_computations=lane_distances,
        lane_distance_evaluations=lane_evaluations,
    )
