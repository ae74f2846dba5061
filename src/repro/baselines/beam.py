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

:func:`beam_search_lanes` is the one entry: one search per query, each a
lane whose ids, distance bytes and counters are those of the one-query
heap loop (its reference: ``tests/oracles/beam_heap.py``).  The lanes
search side by side — how GGraphCon's blocks do.  Below
``_LOCKSTEP_MIN_LANES`` lanes each runs that heap loop as a coroutine
and the lanes' distance requests are answered together, one call per
round; from there on the lanes advance in lock-step over arrays
(``docs/performance.md``, "Lock-step Algorithm 1").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from heapq import heappop, heappush, heappushpop
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import SearchError
from repro.graphs.adjacency import ProximityGraph
from repro.metrics.distance import Metric
from repro.perf.arena import EvaluatedPairs, lanes_per_call
from repro.perf.distance import CHUNK_ELEMENTS

#: Lanes below which :func:`beam_search_lanes` runs per-lane heap loops
#: (:func:`_narrow`): a lock-step step costs ~60 NumPy calls whatever
#: its width, and the heap loops stay ahead below this width
#: (``docs/performance.md``, "The crossover").
_LOCKSTEP_MIN_LANES = 40

_NO_ID = np.iinfo(np.int64).max

#: Gathered elements past which a lock-step step evaluates its fresh
#: runs in cache-sized blocks, as :func:`_narrow` does: 3.7 times the
#: widest step of the end-to-end benchmark's builds (282,624 elements),
#: so only very wide high-dimensional calls block (SONG's 400 GIST
#: lanes gathered up to 200 MB at once).
_LOCKSTEP_GATHER_CAP = 1 << 20


@dataclass
class BeamLanes:
    """Outcome of one beam search per lane (:func:`beam_search_lanes`).

    Row ``i`` of every field is lane ``i``'s search; a clock prices the
    four counters lane by lane.

    Attributes:
        ids: ``(m, k)`` neighbor ids, closest first; ``-1`` pads.
        dists: Matching distances; ``inf`` pads.
        n_iterations: ``(m,)`` candidate pops.
        n_distance_computations: ``(m,)`` distances evaluated.
        n_heap_ops: ``(m,)`` heap pushes + pops.
        n_hash_probes: ``(m,)`` visited-set checks.
    """

    ids: np.ndarray
    dists: np.ndarray
    n_iterations: np.ndarray
    n_distance_computations: np.ndarray
    n_heap_ops: np.ndarray
    n_hash_probes: np.ndarray


def _beam_width(k: int, ef: Optional[int]) -> int:
    if k <= 0:
        raise SearchError(f"k must be positive, got {k}")
    if ef is None:
        ef = k
    if ef < k:
        raise SearchError(f"ef ({ef}) must be at least k ({k})")
    return ef


def _lane(graph: ProximityGraph, ef: int, entry: int):
    """Algorithm 1's heap loop for one lane, as a coroutine that asks for
    its distances: it yields the ids it needs evaluated (first its
    entry, then each popped vertex's fresh neighbors) and is sent their
    distances, in order.

    ``C`` is a min-heap of ``(dist, id)``, ``N`` a max-heap of
    ``(-dist, -id)`` bounded at ``ef``, ``H`` a set.  A fresh candidate
    farther than a full ``N``'s worst is dropped, not pushed into ``C``:
    ``N``'s worst only falls, so it could only be a stopping pop, and
    ``stop_pop`` records that ``C`` still holds one.

    Returns (as ``StopIteration.value``):
        ``(N, pushes into N, stop_pop, neighbors scanned, distances
        evaluated)``.
    """
    neighbor_ids, degree_of = graph.neighbor_ids, graph.degrees.item
    cands = [((yield [entry])[0], entry)]
    top, visited = [], {entry}
    # Whether the search ends on a counted pop: one farther than a full
    # N's worst, popped or dropped.
    stop_pop = False
    pushes = scanned = 0
    evaluated = 1
    while cands:
        dist, vertex = heappop(cands)
        if len(top) < ef:
            heappush(top, (-dist, -vertex))
        elif dist <= -top[0][0]:
            heappushpop(top, (-dist, -vertex))
        else:
            stop_pop = True
            break
        pushes += 1
        degree = degree_of(vertex)
        scanned += degree
        fresh = []
        for u in neighbor_ids[vertex, :degree].tolist():
            if u not in visited:
                fresh.append(u)
        if not fresh:
            continue
        visited.update(fresh)
        evaluated += len(fresh)
        pairs = zip((yield fresh), fresh)
        if len(top) < ef:
            for pair in pairs:
                heappush(cands, pair)
            continue
        worst = -top[0][0]
        for pair in pairs:
            if pair[0] > worst:
                stop_pop = True
            else:
                heappush(cands, pair)
    return top, pushes, stop_pop, scanned, evaluated


def _narrow(graph: ProximityGraph, points: np.ndarray,
             queries: np.ndarray, k: int, ef: int, entries: np.ndarray,
             metric: Metric) -> BeamLanes:
    """The narrow body of :func:`beam_search_lanes`: one :func:`_lane`
    coroutine per lane, their distance requests answered together.

    Each round gathers every waiting lane's ids and evaluates them with
    one :meth:`~repro.metrics.distance.Metric.one_to_many_runs` call
    (one run per lane; past :data:`~repro.perf.distance.CHUNK_ELEMENTS`
    gathered elements, one call per cache-sized block of whole runs),
    then sends each lane its run.  A lane runs on until it needs
    distances again or finishes.  Once one lane is left waiting — a
    one-lane call, or the last lane of a wider one — it runs alone, each
    request answered by one ``one_to_many`` call (the bytes of its
    run), with no round bookkeeping.  A lane that pushed ``t`` pairs into
    ``N`` made ``t`` pops, one more if it ended on a counted pop; its
    heap operations are those pops, the ``t`` pushes, ``N``'s
    ``max(t - ef, 0)`` overflow pops and one push into ``C`` per
    evaluated distance (the entry's included).
    """
    n_lanes = len(queries)
    queries = np.asarray(queries, dtype=np.float64)
    limit = max(1, CHUNK_ELEMENTS // points.shape[1])
    lanes = [_lane(graph, ef, entry) for entry in entries.tolist()]
    asks = [(row, lane, next(lane)) for row, lane in enumerate(lanes)]
    done = [None] * n_lanes
    while len(asks) > 1:
        counts = [0] * n_lanes
        flat = []
        for row, _, ids in asks:
            counts[row] = len(ids)
            flat += ids
        if len(flat) <= limit:
            dists = metric.one_to_many_runs(
                queries, points.take(flat, axis=0), counts).tolist()
        else:
            dists = _blocked_distances(metric, queries, points, flat,
                                       counts, limit)
        waiting, at = [], 0
        for row, lane, ids in asks:
            end = at + len(ids)
            try:
                waiting.append((row, lane, lane.send(dists[at:end])))
            except StopIteration as finished:
                done[row] = finished.value
            at = end
        asks = waiting
    for row, lane, ids in asks:
        query = queries[row]
        try:
            while True:
                ids = lane.send(metric.one_to_many(
                    query, points.take(ids, axis=0)).tolist())
        except StopIteration as finished:
            done[row] = finished.value

    out_i, out_d, counters = [], [], []
    for top, t, stop_pop, scanned, evaluated in done:
        best = sorted(top, reverse=True)[:k]
        pad = k - len(best)
        out_i.append([-i for _, i in best] + [-1] * pad)
        out_d.append([-d for d, _ in best] + [np.inf] * pad)
        pops = t + stop_pop
        counters.append((pops, evaluated,
                         pops + t + max(t - ef, 0) + evaluated,
                         1 + scanned))
    return BeamLanes(np.array(out_i, dtype=np.int64).reshape(n_lanes, k),
                     np.array(out_d).reshape(n_lanes, k),
                     *np.array(counters, dtype=np.int64).reshape(
                         n_lanes, 4).T)


def _blocked_distances(metric: Metric, queries: np.ndarray,
                       points: np.ndarray, flat: Sequence[int],
                       counts: Sequence[int], limit: int) -> list:
    """``metric.one_to_many_runs(queries, points[flat], counts)`` as a
    list, one call per block of whole runs: at most ``limit`` rows, or
    one run that alone is longer, so each gather stays cache-sized."""
    out = []
    lo = at = size = 0
    for lane, count in enumerate(counts):
        if size and size + count > limit:
            out += metric.one_to_many_runs(
                queries[lo:lane], points.take(flat[at:at + size], axis=0),
                counts[lo:lane]).tolist()
            lo, at, size = lane, at + size, 0
        size += count
    return out + metric.one_to_many_runs(
        queries[lo:], points.take(flat[at:], axis=0), counts[lo:]).tolist()


def beam_search_lanes(graph: ProximityGraph, points: np.ndarray,
                      queries: np.ndarray, k: int,
                      ef: Optional[int] = None,
                      entries: Union[int, np.ndarray] = 0,
                      metric: Optional[Metric] = None,
                      window: Optional[int] = None) -> BeamLanes:
    """Algorithm 1 for every row of ``queries``, one lane each.

    Lane ``i`` searches ``queries[i]`` from ``entries[i]`` (or the one
    ``entries``) for its ``k`` nearest, keeping a beam of ``ef``, with
    the heap loop's ids, distance bytes and counters:

    - pop the minimum ``(dist, id)`` of ``C``; a lane stops when ``N``
      is full and the popped distance exceeds ``N``'s worst (the pop is
      counted), or when ``C`` is empty (it is not);
    - ``N`` keeps the ``ef`` smallest ``(dist, id)`` pairs;
    - the popped vertex's unvisited neighbors are evaluated and pushed
      into ``C``, by one
      :meth:`~repro.metrics.distance.Metric.one_to_many_runs` call for
      all the lanes that need distances.

    A candidate that can only be a stopping pop — farther than a full
    ``N``'s worst — is dropped, and the lane remembers that ``C`` is not
    empty.  Below ``_LOCKSTEP_MIN_LANES`` lanes, ``C``, ``N`` and ``H``
    are each lane's Python heaps and set, and a lane runs on until it
    needs distances (:func:`_narrow`).  From there on every lane
    advances one candidate per step: ``C`` holds its open candidates in
    a row per lane, and also drops any candidate farther than its
    ``ef``-th nearest; the visited set ``H`` is a map of ``window``
    (default ``n``) flags per lane; lanes whose maps would pass
    ``repro.perf.arena.BITMAP_BUDGET_BYTES`` are searched in several
    calls.

    Args:
        graph: Proximity graph over ``points``; rows hold distinct ids
            (:func:`repro.graphs.validation.validate_graph`'s rule).
        points: ``(n, d)`` data matrix the graph was built on.
        queries: ``(m, d)`` query matrix.
        k: Neighbors per lane.
        ef: Beam width; defaults to ``k``.
        entries: Start vertex, or one per lane, inside the graph
            (:func:`repro.core.ganns.check_queries` checks caller input).
        metric: Distance metric; defaults to the graph's metric.
        window: When given, every vertex lane ``i`` can reach lies in
            ``[entries[i], entries[i] + window)`` — the disjoint id
            ranges of a block-diagonal graph — and ``H`` costs
            ``window`` bytes per lane.

    Returns:
        A :class:`BeamLanes`.
    """
    ef = _beam_width(k, ef)
    if metric is None:
        metric = graph.metric
    n_lanes = len(queries)
    entries = np.asarray(entries, dtype=np.int64)
    if entries.ndim == 0:
        entries = np.full(n_lanes, entries)
    if n_lanes < _LOCKSTEP_MIN_LANES:
        return _narrow(graph, points, queries, k, ef, entries, metric)
    span = graph.n_vertices if window is None else window
    width = lanes_per_call(span, 0, _LOCKSTEP_MIN_LANES)
    parts = [_lockstep(graph, points, queries[lo:lo + width], k, ef,
                       entries[lo:lo + width], metric, window)
             for lo in range(0, n_lanes, width)]
    return BeamLanes(*(np.concatenate(field) for field in zip(*parts)))


def _lockstep(graph: ProximityGraph, points: np.ndarray,
              queries: np.ndarray, k: int, ef: int, entries: np.ndarray,
              metric: Metric, window: Optional[int]) -> Tuple:
    """The lock-step body of :func:`beam_search_lanes`.

    Active lanes live in compact rows; a lane retires (its ``N`` and
    counters saved) on the step it stops.  The counters follow from
    three tallies: the lane's step count ``t`` at retirement (``t``
    pops pushed into ``N``, one more if the stopping pop happened), the
    degrees it scanned and the distances it evaluated — ``N``'s pushes
    overflow once ``N`` holds ``ef``, so the heap operations are ``pops
    + t + max(t - ef, 0) + distances``.  A step whose fresh rows pass
    ``_LOCKSTEP_GATHER_CAP`` gathered elements evaluates them a
    cache-sized block of whole runs at a time (:func:`_blocked_distances`).

    Returns:
        The :class:`BeamLanes` fields, in order.
    """
    n_lanes = len(queries)
    queries = np.asarray(queries, dtype=np.float64)
    limit = max(1, CHUNK_ELEMENTS // points.shape[1])
    base = entries if window is not None else None
    visited = EvaluatedPairs(n_lanes, graph.n_vertices if window is None
                             else window)
    lanes = np.arange(n_lanes)
    visited.insert(lanes, entries if base is None else entries - base)
    ones = np.ones(n_lanes, dtype=np.int64)
    out_d = np.empty((n_lanes, ef))
    out_i = np.empty((n_lanes, ef), dtype=np.int64)
    pops, pushes, scans, fresh_total = (np.empty(n_lanes, dtype=np.int64)
                                        for _ in range(4))

    # C: open candidates, unordered; holes are (inf, -1), new candidates
    # append at `fill` and a pop scans the columns before `hi`, the
    # largest fill.  `dropped`: C also holds candidates worse than N's
    # worst that were dropped from the row.
    cand_d = np.full((n_lanes, ef + graph.d_max), np.inf)
    cand_i = np.full(cand_d.shape, -1, dtype=np.int64)
    cand_d[:, 0] = metric.one_to_many_runs(queries, points[entries], ones)
    cand_i[:, 0] = entries
    fill, hi = ones.copy(), 1
    dropped = np.zeros(n_lanes, dtype=bool)
    # N: the ef best popped (dist, id) in order, (inf, -1) while not
    # full; column ef catches whatever a push drops off the end.
    top_d = np.full((n_lanes, ef + 1), np.inf)
    top_i = np.full((n_lanes, ef + 1), -1, dtype=np.int64)
    scanned = np.zeros(n_lanes, dtype=np.int64)
    evaluated = np.zeros(n_lanes, dtype=np.int64)
    all_rows = np.arange(n_lanes)
    # shifts[r]: where each column of an N row comes from after a push at
    # rank r (columns past r move one right).
    top_cols = np.arange(ef + 1)
    shifts = top_cols - (top_cols[None, :] > top_cols[:, None])
    cols = np.arange(graph.d_max)

    for step in itertools.count():
        rows = all_rows[:len(lanes)]
        # Pop C's minimum (dist, id).
        open_d = cand_d[:, :hi]
        slot = open_d.argmin(axis=1)
        best = open_d[rows, slot]
        if np.count_nonzero(open_d == best[:, None]) != len(rows):
            # A tied nearest distance (or an empty row): the smallest id.
            slot = np.where(open_d == best[:, None], cand_i[:, :hi],
                            _NO_ID).argmin(axis=1)
        slot += rows * cand_d.shape[1]
        vertex = cand_i.take(slot)
        cand_d.put(slot, np.inf)
        cand_i.put(slot, -1)
        # Stop once a full N's worst beats the pop, or C is empty.
        has = best < np.inf
        go = has & (best <= top_d[:, ef - 1])
        if not go.all():
            done = ~go
            gone = lanes[done]
            pops[gone] = step + (has | dropped)[done]
            pushes[gone] = step
            scans[gone], fresh_total[gone] = scanned[done], evaluated[done]
            out_d[gone], out_i[gone] = top_d[done, :ef], top_i[done, :ef]
            lanes, best, vertex = lanes[go], best[go], vertex[go]
            if not len(lanes):
                break
            cand_d, cand_i, fill = cand_d[go], cand_i[go], fill[go]
            top_d, top_i, dropped = top_d[go], top_i[go], dropped[go]
            scanned, evaluated = scanned[go], evaluated[go]
            rows = all_rows[:len(lanes)]
        # Push into N at the pair's (dist, id) rank; rank ef is a full
        # N's overflow (its worst, or the pushed pair itself).  The pair is
        # never farther than a full N's worst, so an entry at or past its
        # distance exists; only a tie needs the ids.
        head_d, head_i = top_d[:, :ef], top_i[:, :ef]
        rank = (head_d >= best[:, None]).argmax(axis=1)
        row_at = rows * (ef + 1)
        if (top_d.take(row_at + rank) == best).any():
            rank = ((head_d < best[:, None])
                    | ((head_d == best[:, None])
                       & (head_i < vertex[:, None]))).sum(axis=1)
        shifted = row_at[:, None] + shifts[rank]
        top_d, top_i = top_d.take(shifted), top_i.take(shifted)
        top_d.put(row_at + rank, best)
        top_i.put(row_at + rank, vertex)

        # Expand: every unvisited neighbor is evaluated and pushed.
        neighbors = graph.neighbor_ids[vertex]
        degree = graph.degrees[vertex]
        scanned += degree
        local = neighbors if base is None else (
            neighbors - base[lanes][:, None])
        fresh = (cols < degree[:, None]) & ~visited.contains(lanes, local)
        hits = np.flatnonzero(fresh)
        if not len(hits):
            continue
        hit_rows = hits // graph.d_max
        fresh_ids = neighbors.take(hits)
        visited.insert(lanes[hit_rows], local.take(hits))
        counts = np.bincount(hit_rows, minlength=len(lanes))
        evaluated += counts
        if len(fresh_ids) * points.shape[1] <= _LOCKSTEP_GATHER_CAP:
            fresh_d = metric.one_to_many_runs(
                queries[lanes], points[fresh_ids], counts)
        else:
            fresh_d = np.array(_blocked_distances(
                metric, queries[lanes], points, fresh_ids, counts, limit))
        worst = top_d[:, ef - 1]
        if step + 1 >= ef:
            # Every active lane has pushed `step + 1` pairs: N is full and
            # its worst only falls, so a candidate beyond it can only end
            # the search — it is dropped rather than stored.
            beyond = fresh_d > worst[hit_rows]
            if beyond.any():
                dropped[hit_rows[beyond]] = True
                keep = ~beyond
                hit_rows, fresh_ids = hit_rows[keep], fresh_ids[keep]
                fresh_d = fresh_d[keep]
                counts = np.bincount(hit_rows, minlength=len(lanes))
        hi = int((fill + counts).max())
        if hi > cand_d.shape[1] or step + 1 == ef:
            cand_d, cand_i, fill = _repack(cand_d, cand_i, worst, dropped,
                                           counts, ef, graph.d_max)
            hi = max(int((fill + counts).max()), 1)
        # A row's new candidates go to fill, fill + 1, ...: flat slot =
        # row start + fill + (index in the flat list - the run's start).
        place = (np.arange(len(hit_rows))
                 + (rows * cand_d.shape[1] + fill - np.cumsum(counts)
                    + counts)[hit_rows])
        cand_d.put(place, fresh_d)
        cand_i.put(place, fresh_ids)
        fill += counts

    n_dist = 1 + fresh_total
    return (np.ascontiguousarray(out_i[:, :k]),
            np.ascontiguousarray(out_d[:, :k]), pops, n_dist,
            pops + pushes + np.maximum(pushes - ef, 0) + n_dist, 1 + scans)


def _repack(cand_d, cand_i, worst, dropped, counts, ef, room):
    """Make room for ``counts`` more candidates per row of ``C``.

    Drops every candidate that can only be a stopping pop (setting the
    row's ``dropped`` flag in place): one worse than ``N``'s worst
    (``inf`` until ``N`` is full), or farther than ``C``'s ``ef``-th
    nearest — by the time it is the nearest open candidate, those ``ef``
    have been pushed into ``N``, so ``N``'s worst is nearer than it.
    Packs the rest to the front and resizes the rows to twice what the
    fullest one needs plus ``room``, so repacks stay rare.

    Returns:
        ``(cand_d, cand_i, fill)``.
    """
    bound = worst
    if cand_d.shape[1] > ef:
        bound = np.minimum(
            bound, np.partition(cand_d, ef - 1, axis=1)[:, ef - 1])
    worse = (cand_d > bound[:, None]) & (cand_d < np.inf)
    dropped |= worse.any(axis=1)
    cand_d[worse] = np.inf
    order = np.argsort(cand_d, axis=1)
    fill = (cand_d < np.inf).sum(axis=1)
    width = 2 * int((fill + counts).max()) + room
    order = order[:, :width]
    cand_d = np.take_along_axis(cand_d, order, axis=1)
    cand_i = np.take_along_axis(cand_i, order, axis=1)
    cand_i[cand_d == np.inf] = -1
    if width > order.shape[1]:
        extra = ((0, 0), (0, width - order.shape[1]))
        cand_d = np.pad(cand_d, extra, constant_values=np.inf)
        cand_i = np.pad(cand_i, extra, constant_values=-1)
    return cand_d, cand_i, fill
