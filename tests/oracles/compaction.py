"""Tombstone compaction written one row at a time.

The differential oracle for
:func:`repro.mutable.compaction.compact_graph`: the per-row pass the
library ran before its repair was batched.  Every dead component is
repaired on its own, in ascending order of its smallest member: each
member's bridge candidates go through one
:meth:`~repro.graphs.adjacency.ProximityGraph.merge_row` and one
per-row :meth:`~repro.metrics.distance.Metric.one_to_many` call, and
the forced chain through one ``_force_edge`` per edge.

Contract: ``neighbor_ids``, ``neighbor_dists`` and ``degrees`` are
array-equal, and every :class:`~repro.mutable.compaction.CompactionStats`
field is equal, for any cost table — the charges are summed in the
order this pass adds them.
"""

from typing import Callable, Dict, List, Optional

import numpy as np

from repro.errors import MutableIndexError
from repro.gpusim.costs import CostTable, DEFAULT_COSTS
from repro.graphs.adjacency import ProximityGraph
from repro.graphs.stats import hop_distances
from repro.mutable.compaction import CompactionStats
from tests.oracles.merge_row import merge_row


def compact_graph_oracle(graph: ProximityGraph, points: np.ndarray,
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
    n_dims = points.shape[1]

    hook("compaction.scan")
    dead = np.flatnonzero(tombstones)
    stats.n_dead = len(dead)
    stats.structure_cycles += costs.prefix_sum_cycles(
        graph.n_vertices, n_threads)
    if len(dead) == 0:
        return stats

    # Remember each dead vertex's former out-neighborhood before any row
    # is touched; the repair phase bridges through it.
    dead_out: Dict[int, np.ndarray] = {
        int(d): graph.neighbors(int(d)) for d in dead}

    hook("compaction.rewrite")
    in_neighbors: Dict[int, List[int]] = {int(d): [] for d in dead}
    live_vertices = np.flatnonzero(~tombstones)
    for v in live_vertices:
        v = int(v)
        degree = int(graph.degrees[v])
        if degree == 0:
            continue
        row_ids = graph.neighbor_ids[v, :degree]
        dead_here = tombstones[row_ids]
        if not np.any(dead_here):
            continue
        for u in row_ids[dead_here]:
            in_neighbors[int(u)].append(v)
        keep = ~dead_here
        graph.set_row(v, row_ids[keep],
                      graph.neighbor_dists[v, :degree][keep])
        stats.n_rows_rewritten += 1
        stats.n_edges_dropped += int(dead_here.sum())
        stats.structure_cycles += costs.adjacency_merge_cycles(
            graph.d_max, int(dead_here.sum()), n_threads)

    hook("compaction.repair")
    metric = graph.metric
    for comp in _dead_components(dead, dead_out, tombstones):
        member_parts = [np.empty(0, dtype=np.int64)]
        for d in comp:
            member_parts.append(dead_out[d][~tombstones[dead_out[d]]])
            member_parts.append(np.asarray(in_neighbors[d],
                                           dtype=np.int64))
            # Empty the dead row itself (its edges also dropped).
            stats.n_edges_dropped += int(graph.degrees[d])
            graph.set_row(d, [], [])
        members = np.unique(np.concatenate(member_parts))
        if len(members) < 2:
            continue
        for u in members:
            u = int(u)
            candidates = members[members != u]
            dists = metric.one_to_many(points[u], points[candidates])
            merge_row(graph, u, candidates, dists)
            stats.n_bridge_candidates += len(candidates)
            stats.distance_cycles += costs.bulk_distance_cycles(
                len(candidates), n_dims, n_threads)
            stats.structure_cycles += costs.adjacency_merge_cycles(
                graph.d_max, len(candidates), n_threads)
        # The merges above are capacity-bounded: a member whose row is
        # already full of closer neighbors silently drops its bridge
        # edges, which cuts the graph exactly when the hole was the
        # only link between two regions.  Force a chain over the
        # sorted members so the hole can never disconnect them.
        for i in range(len(members) - 1):
            a, b = int(members[i]), int(members[i + 1])
            dist = float(metric.one_to_many(points[a],
                                            points[b:b + 1])[0])
            stats.distance_cycles += costs.bulk_distance_cycles(
                1, n_dims, n_threads)
            for u, w in ((a, b), (b, a)):
                if _force_edge(graph, u, w, dist):
                    stats.structure_cycles += (
                        costs.adjacency_merge_cycles(graph.d_max, 1,
                                                     n_threads))
    # Bridging merges are capacity-bounded and may have evicted
    # pre-existing edges elsewhere; sweep up any region that lost its
    # last path from the entry.
    _reconnect(graph, points, tombstones, costs=costs,
               n_threads=n_threads, stats=stats)
    return stats


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
        u, dist = int(sources[pick]), float(dists[pick])
        _force_edge(graph, u, v, dist)
        stats.n_reconnect_edges += 1
        stats.structure_cycles += costs.adjacency_merge_cycles(
            graph.d_max, 1, n_threads)


def _dead_components(dead: np.ndarray, dead_out: Dict[int, np.ndarray],
                     tombstones: np.ndarray) -> List[List[int]]:
    """Connected components of the dead-induced subgraph.

    Adjacent dead vertices form one hole: a live path crossing several
    of them (``u → d1 → d2 → w``) has no single dead vertex whose
    bridge members contain both endpoints, so each component must be
    repaired as a unit.  Edges are taken from the pre-rewrite rows
    (``dead_out``), undirected; components are returned in ascending
    order of their smallest member, members ascending.
    """
    parent = {int(d): int(d) for d in dead}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for d in dead:
        d = int(d)
        for nb in dead_out[d]:
            nb = int(nb)
            if tombstones[nb]:
                ra, rb = find(d), find(nb)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
    groups: Dict[int, List[int]] = {}
    for d in dead:
        groups.setdefault(find(int(d)), []).append(int(d))
    return [sorted(groups[root]) for root in sorted(groups)]


def _force_edge(graph: ProximityGraph, u: int, w: int,
                dist: float) -> bool:
    """Guarantee the edge ``u → w``, evicting the farthest edge if full.

    Returns ``True`` if the row was modified.  The row stays sorted by
    ``(distance, id)`` — the tie rule every kernel in the library uses.
    """
    degree = int(graph.degrees[u])
    row_ids = graph.neighbor_ids[u, :degree]
    if w in row_ids:
        return False
    row_dists = graph.neighbor_dists[u, :degree]
    if degree >= graph.d_max:
        # Evict the current farthest neighbor to make room; the forced
        # bridge edge stays regardless of its own distance.
        row_ids, row_dists = row_ids[:-1], row_dists[:-1]
    ids = np.append(row_ids, w)
    dists = np.append(row_dists, dist)
    order = np.lexsort((ids, dists))
    graph.set_row(u, ids[order], dists[order])
    return True
