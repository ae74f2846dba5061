"""Deterministic tombstone compaction: detach dead vertices, repair holes.

Deletes only tombstone a vertex — it keeps routing searches until a
compaction pass rewrites the adjacency around it.  Compaction runs in
three named phases (each a crash point for the chaos layer):

- ``compaction.scan``    — find the tombstoned vertices.
- ``compaction.rewrite`` — drop every edge that *ends* at a dead
  vertex from the live rows, remembering who pointed where.
- ``compaction.repair``  — bridge each hole: the live vertices adjacent
  to a dead *component* (the out-neighbors of its vertices plus everyone
  who pointed into it; adjacent dead vertices are one hole, else a path
  crossing two of them has no common bridge set) are offered each other
  as candidate neighbors via the usual best-``d_max`` row merge, and a
  chain over the sorted members is then *forced* — evicting a farthest
  edge when a row is full — so connectivity through the hole survives
  even when every member's row is packed with closer neighbors (the
  deleted-hub case, where the best-effort merge alone would cut the
  graph).  Dead rows are then emptied entirely.  Because bridging
  merges may themselves evict pre-existing edges from full rows, a
  final reconnect sweep restores entry-reachability of every live
  vertex before the pass returns.

The pass is a pure, deterministic function of (graph, tombstones,
points), and each phase is a few array operations over the whole graph:
the rewrite front-packs every live row's surviving records at once; the
repair takes the bridge distances from
:meth:`~repro.metrics.distance.Metric.one_to_many_runs`, a few
cache-sized blocks of whole runs at a time (the bytes of one
``one_to_many`` per member), merges every member's candidates
into its row through :func:`repro.perf.construction.rank_merge` —
GGraphCon's merge Step 3 — and forces the chain as batched row
operations.

**The per-row order rule.**  Holes are repaired in ascending order of
their smallest dead vertex; a row gets a hole's merge, then its chain
edge to the previous member, then to the next, before the next hole
touches it.  A bridge reads points, never another row, so only the
order of operations *on one row* matters: a live vertex adjacent to
several holes is repaired in waves, wave ``k`` applying every vertex's
``k``-th hole, and within a wave no row appears twice.  The charges
(prefix-sum scan, per-row adjacency merges, bulk distances for bridge
candidates) are summed in that same hole-by-hole order, so the ledger
is bit-equal to a row-at-a-time pass for any cost table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro.errors import MutableIndexError
from repro.gpusim.costs import CostTable, DEFAULT_COSTS
from repro.graphs.adjacency import PAD_DIST, PAD_ID, ProximityGraph
from repro.graphs.stats import hop_distances
from repro.metrics.distance import Metric
from repro.perf.construction import rank_in_run, rank_merge
from repro.perf.distance import CHUNK_ELEMENTS, row_blocks

#: Phase names, in execution order (also crash points; see
#: :data:`repro.faults.plan.CRASH_PHASES`).
COMPACTION_PHASES = ("compaction.scan", "compaction.rewrite",
                     "compaction.repair")


@dataclass
class CompactionStats:
    """What one compaction pass did, and what it cost."""

    n_dead: int = 0
    n_rows_rewritten: int = 0
    n_edges_dropped: int = 0
    n_bridge_candidates: int = 0
    n_reconnect_edges: int = 0
    distance_cycles: float = 0.0
    structure_cycles: float = 0.0

    @property
    def total_cycles(self) -> float:
        """All cycles charged by the pass."""
        return self.distance_cycles + self.structure_cycles


def compact_graph(graph: ProximityGraph, points: np.ndarray,
                  tombstones: np.ndarray, *,
                  costs: CostTable = DEFAULT_COSTS,
                  n_threads: int = 32,
                  phase_hook: Optional[Callable[[str], None]] = None
                  ) -> CompactionStats:
    """Detach every tombstoned vertex from ``graph``, repairing holes.

    Args:
        graph: Graph to compact; mutated in place.
        points: ``(n, d)`` point matrix (bridge distances are computed
            from it).
        tombstones: ``(n,)`` boolean mask of dead vertices.
        costs: Cycle cost table for the charge accounting.
        n_threads: Simulated block width for the charges.
        phase_hook: Called with each :data:`COMPACTION_PHASES` name
            before that phase's work — the crash-injection point.  A
            hook that raises aborts the pass mid-way, which is exactly
            what the chaos layer does; callers must therefore run
            compaction on shadow state and swap only on completion.

    Returns:
        A :class:`CompactionStats` ledger.
    """
    tombstones = np.asarray(tombstones, dtype=bool)
    if tombstones.shape != (graph.n_vertices,):
        raise MutableIndexError(
            f"tombstone mask must be shape ({graph.n_vertices},), got "
            f"{tombstones.shape}")
    hook = phase_hook or (lambda phase: None)
    stats = CompactionStats()
    d_max = graph.d_max

    hook("compaction.scan")
    dead = np.flatnonzero(tombstones)
    stats.n_dead = len(dead)
    stats.structure_cycles += costs.prefix_sum_cycles(
        graph.n_vertices, n_threads)
    if len(dead) == 0:
        return stats

    # Every edge, read before any row is touched; the repair bridges
    # through the ones at dead vertices.
    src, col = np.nonzero(np.arange(d_max) < graph.degrees[:, None])
    dst = graph.neighbor_ids[src, col]

    hook("compaction.rewrite")
    dropped = np.bincount(src[tombstones[dst] & ~tombstones[src]],
                          minlength=graph.n_vertices)
    rows = np.flatnonzero(dropped)
    dropped = dropped.take(rows)
    stats.n_rows_rewritten = len(rows)
    stats.n_edges_dropped = int(dropped.sum())
    stats.structure_cycles = _summed(stats.structure_cycles, _per_count(
        lambda k: costs.adjacency_merge_cycles(d_max, k, n_threads),
        dropped))
    kept = ~tombstones[graph.neighbor_ids[rows]] & (
        np.arange(d_max) < graph.degrees[rows, None])
    at, col = np.nonzero(kept)
    slot = rank_in_run(at)
    for table, pad in ((graph.neighbor_ids, PAD_ID),
                       (graph.neighbor_dists, PAD_DIST)):
        packed = np.full_like(table[rows], pad)
        packed[at, slot] = table[rows.take(at), col]
        table[rows] = packed
    graph.degrees[rows] -= dropped

    hook("compaction.repair")
    stats.n_edges_dropped += int(graph.degrees[dead].sum())
    graph.neighbor_ids[dead] = PAD_ID
    graph.neighbor_dists[dead] = PAD_DIST
    graph.degrees[dead] = 0
    hole, member = _holes(src, dst, tombstones)
    if len(member):
        _bridge(graph, points, hole, member, costs=costs,
                n_threads=n_threads, stats=stats)
    # Bridging merges are capacity-bounded and may have evicted
    # pre-existing edges elsewhere; sweep up any region that lost its
    # last path from the entry.
    _reconnect(graph, points, tombstones, costs=costs,
               n_threads=n_threads, stats=stats)
    return stats


def _holes(src: np.ndarray, dst: np.ndarray,
           tombstones: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Every hole's bridge members, as ``(hole, member)`` pairs.

    A hole is a connected component of the dead-induced subgraph, taken
    undirected over the pre-rewrite edges ``src → dst``: a live path
    crossing several adjacent dead vertices (``u → d1 → d2 → w``) has
    no single dead vertex whose bridge members contain both endpoints,
    so each component is repaired as a unit.  Its members are the live
    vertices it points to or is pointed at from.  A hole is named by
    its smallest dead vertex; pairs come sorted by hole, then member —
    the order the repair walks — and only holes with two or more
    members are listed.
    """
    n = len(tombstones)
    dead_src, dead_dst = tombstones[src], tombstones[dst]
    inner = dead_src & dead_dst
    a, b = src[inner], dst[inner]
    # Min-label propagation with pointer jumping: every dead vertex
    # ends labelled with the smallest vertex of its component.
    label = np.arange(n)
    while True:
        low = np.minimum(label[a], label[b])
        nxt = label.copy()
        np.minimum.at(nxt, a, low)
        np.minimum.at(nxt, b, low)
        nxt = nxt[nxt]
        if np.array_equal(nxt, label):
            break
        label = nxt
    into, out = ~dead_src & dead_dst, dead_src & ~dead_dst
    key = np.sort(np.concatenate([label[dst[into]] * n + src[into],
                                  label[src[out]] * n + dst[out]]))
    hole, member = np.divmod(key[rank_in_run(key) == 0], n)
    wide = np.bincount(hole, minlength=n).take(hole) >= 2
    return hole[wide], member[wide]


def _bridge(graph: ProximityGraph, points: np.ndarray, hole: np.ndarray,
            member: np.ndarray, *, costs: CostTable, n_threads: int,
            stats: CompactionStats) -> None:
    """Repair every hole: merge each member's bridge candidates (every
    other member of its hole) into its row, then force the chain over
    consecutive members — under the module's per-row order rule."""
    d_max = graph.d_max
    metric = graph.metric
    pos = rank_in_run(hole)
    first = np.flatnonzero(pos == 0)
    size = np.diff(np.append(first, len(hole)))
    of_hole = np.repeat(np.arange(len(size)), size)
    width = size[of_hole] - 1

    # A row_blocks block of members at a time, so that a hole with
    # thousands of members never holds its whole (m, m) grid.
    blocks = [_bridge_runs(graph, points, member, first[of_hole], pos,
                           width, rows)
              for rows in row_blocks(len(member), int(width.max()))]
    owner, cand, dists = (np.concatenate(part) for part in zip(*blocks))
    # The chain edge from a member to the next one of its hole, ranked
    # on its float64 distance (both directions share it).
    step = np.flatnonzero(pos[1:] > 0)
    chain = np.zeros(len(member))
    chain[step] = metric.one_to_many_runs(
        points[member[step]], points[member[step + 1]],
        np.ones(len(step), dtype=np.int64))

    # Wave k applies every vertex's k-th hole: its merge, then its chain
    # edge to the previous member, then to the next.
    by_vertex = np.lexsort((hole, member))
    wave = np.empty(len(member), dtype=np.int64)
    wave[by_vertex] = rank_in_run(member.take(by_vertex))
    forced = np.zeros(len(member), dtype=np.int64)
    for k in range(int(wave.max()) + 1):
        pairs = np.flatnonzero(wave == k)
        rows = member.take(pairs)
        runs = np.flatnonzero(wave.take(owner) == k)
        _sort_rows(graph, rows)
        rank_merge(graph, rows, np.searchsorted(pairs, owner.take(runs)),
                   cand.take(runs), dists.take(runs))
        back = pairs[pos.take(pairs) > 0]
        forced[back] += _force_edges(graph, member.take(back),
                                     member.take(back - 1),
                                     chain.take(back - 1))
        ahead = pairs[pos.take(pairs) < width.take(pairs)]
        forced[ahead] += _force_edges(graph, member.take(ahead),
                                      member.take(ahead + 1),
                                      chain.take(ahead))

    # The charges, in a row-at-a-time pass's order: each hole's merges
    # (one per member, ascending), then its chain.
    n_dims = points.shape[1]
    stats.n_bridge_candidates += int(width.sum())
    stats.distance_cycles = _summed(stats.distance_cycles, _hole_order(
        of_hole, _per_count(lambda k: costs.bulk_distance_cycles(
            k, n_dims, n_threads), width),
        size - 1, costs.bulk_distance_cycles(1, n_dims, n_threads)))
    stats.structure_cycles = _summed(stats.structure_cycles, _hole_order(
        of_hole, _per_count(lambda k: costs.adjacency_merge_cycles(
            d_max, k, n_threads), width),
        np.bincount(of_hole, weights=forced,
                    minlength=len(size)).astype(np.int64),
        costs.adjacency_merge_cycles(d_max, 1, n_threads)))


def _bridge_runs(graph: ProximityGraph, points: np.ndarray,
                 member: np.ndarray, start: np.ndarray, pos: np.ndarray,
                 width: np.ndarray, rows: slice
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bridge runs of the pairs in ``rows``, as ``(owner, id, dist)``
    records with ``owner`` ascending.

    Pair ``p``'s candidates are every other member of its hole
    (``member[start[p]:]``, ``width[p]`` of them, skipping position
    ``pos[p]``), in id order.  ``merge_row`` ranks a candidate on its
    distance in the graph dtype, so a stable sort of each row orders the
    run by ``(dist, id)``; it is cut to its first ``d_max`` records, as
    a record behind ``d_max`` nearer distinct ids cannot enter the row.
    """
    start, pos, width = start[rows], pos[rows], width[rows]
    col = np.arange(width.max())
    valid = col < width[:, None]
    grid = member.take(np.where(valid, start[:, None] + col
                                + (col >= pos[:, None]), 0))
    dists = np.full(grid.shape, np.inf, dtype=graph.dtype)
    dists[valid] = _run_distances(graph.metric, points, member[rows],
                                  grid[valid], width)
    order = np.argsort(dists, axis=1, kind="stable")[:, :graph.d_max]
    owner, at = np.nonzero(col[:order.shape[1]] < width[:, None])
    return (rows.start + owner,
            np.take_along_axis(grid, order, axis=1)[owner, at],
            np.take_along_axis(dists, order, axis=1)[owner, at])


def _run_distances(metric: Metric, points: np.ndarray,
                   queries: np.ndarray, ids: np.ndarray,
                   counts: np.ndarray) -> np.ndarray:
    """``metric.one_to_many_runs(points[queries], points[ids], counts)``,
    gathered a few whole runs at a time: each block starts its runs
    within one :data:`~repro.perf.distance.CHUNK_ELEMENTS` span of
    gathered elements, so the gather stays cache-sized."""
    starts = np.cumsum(counts) - counts
    step = max(1, CHUNK_ELEMENTS // points.shape[1])
    cuts = np.flatnonzero(np.diff(starts // step)) + 1
    out = np.empty(len(ids))
    for lo, hi in zip(np.append(0, cuts), np.append(cuts, len(counts))):
        span = slice(starts[lo], starts[hi - 1] + counts[hi - 1])
        out[span] = metric.one_to_many_runs(
            points[queries[lo:hi]], points[ids[span]], counts[lo:hi])
    return out


def _hole_order(of_hole: np.ndarray, per_member: np.ndarray,
                n_chain: np.ndarray, chain_charge: float) -> np.ndarray:
    """Each hole's per-member charges followed by its ``n_chain``
    chain charges, holes in order."""
    keys = np.concatenate([2 * of_hole,
                           np.repeat(2 * np.arange(len(n_chain)) + 1,
                                     n_chain)])
    charges = np.concatenate([per_member,
                              np.full(int(n_chain.sum()), chain_charge)])
    return charges[np.argsort(keys, kind="stable")]


def _per_count(charge: Callable[[int], float],
               counts: np.ndarray) -> np.ndarray:
    """``charge(k)`` for every count ``k``, one call per distinct count."""
    table = np.zeros(counts.max(initial=0) + 1)
    for k in np.flatnonzero(np.bincount(counts)):
        table[k] = charge(int(k))
    return table.take(counts)


def _summed(total: float, charges: np.ndarray) -> float:
    """``total`` plus each charge in turn, in order — the bytes a
    running ``+=`` gives for any cost table, fractional ones included."""
    return float(np.add.accumulate(np.append(total, charges))[-1])


def _sort_rows(graph: ProximityGraph, rows: np.ndarray) -> None:
    """Order each of ``rows`` by ``(distance, id)``, as ``merge_row``'s
    merge does, so :func:`rank_merge` may take it as sorted.  A row can
    hold a tie out of id order: a forced edge is ranked on its float64
    distance and stored in a float32 graph."""
    ids = graph.neighbor_ids[rows]
    dists = graph.neighbor_dists[rows]
    pad = np.arange(graph.d_max) >= graph.degrees[rows, None]
    order = np.lexsort((ids, dists, pad), axis=1)
    graph.neighbor_ids[rows] = np.take_along_axis(ids, order, axis=1)
    graph.neighbor_dists[rows] = np.take_along_axis(dists, order, axis=1)


def _force_edges(graph: ProximityGraph, rows: np.ndarray,
                 targets: np.ndarray, dists: np.ndarray) -> np.ndarray:
    """Guarantee the edge ``rows[i] → targets[i]`` for distinct rows,
    evicting a full row's farthest edge; the forced edge stays
    regardless of its own distance.

    Returns which rows changed: those that did not hold their target.
    A changed row is sorted by ``(distance, id)`` — the tie rule every
    kernel in the library uses — on float64 distances, the forced
    edge's own, and stored in the graph dtype.
    """
    d_max = graph.d_max
    changed = ~(graph.neighbor_ids[rows] == targets[:, None]).any(axis=1)
    rows = rows[changed]
    kept = np.minimum(graph.degrees[rows], d_max - 1)
    ids = np.column_stack([graph.neighbor_ids[rows], targets[changed]])
    row_dists = np.column_stack([
        graph.neighbor_dists[rows].astype(np.float64), dists[changed]])
    live = np.arange(d_max + 1) < kept[:, None]
    live[:, d_max] = True
    order = np.lexsort((ids, row_dists, ~live), axis=1)[:, :d_max]
    live = np.take_along_axis(live, order, axis=1)
    graph.neighbor_ids[rows] = np.where(
        live, np.take_along_axis(ids, order, axis=1), PAD_ID)
    graph.neighbor_dists[rows] = np.where(
        live, np.take_along_axis(row_dists, order, axis=1), PAD_DIST)
    graph.degrees[rows] = kept + 1
    return changed


def _reconnect(graph: ProximityGraph, points: np.ndarray,
               tombstones: np.ndarray, *, costs: CostTable,
               n_threads: int, stats: CompactionStats) -> None:
    """Restore entry-reachability of every live vertex.

    Searches start at the first live vertex (``MutableIndex`` moves
    its entry there), so that is the root that matters.  Each round
    takes the smallest unreachable live id and forces an edge to it
    from its *nearest* reachable live vertex, preferring sources with
    spare row capacity so the forced edge cannot evict (and thereby
    cut) anything else; eviction from the nearest source is the last
    resort, and the round cap bounds any fallout.  Deterministic:
    ids and distances fully order every choice.
    """
    live = np.flatnonzero(~tombstones)
    if len(live) == 0:
        return
    root = int(live[0])
    n_dims = points.shape[1]
    for _ in range(len(live)):
        reached = hop_distances(graph, root) >= 0
        stats.structure_cycles += costs.prefix_sum_cycles(
            len(live), n_threads)
        unreachable = live[~reached[live]]
        if not len(unreachable):
            return
        v = int(unreachable[0])
        sources = np.flatnonzero(reached & ~tombstones)
        dists = graph.metric.one_to_many(points[v], points[sources])
        stats.distance_cycles += costs.bulk_distance_cycles(
            len(sources), n_dims, n_threads)
        order = np.lexsort((sources, dists))
        pick = None
        for idx in order:
            if int(graph.degrees[sources[idx]]) < graph.d_max:
                pick = idx
                break
        if pick is None:
            pick = order[0]
        _force_edges(graph, sources[pick:pick + 1], np.array([v]),
                     dists[pick:pick + 1])
        stats.n_reconnect_edges += 1
        stats.structure_cycles += costs.adjacency_merge_cycles(
            graph.d_max, 1, n_threads)
