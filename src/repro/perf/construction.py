"""Batched insert/merge kernels for GGraphCon.

Algorithm 2 writes adjacency rows in three places: the bidirectional
``insert_edge`` pairs of local construction, the per-vertex ``N ∪ N'``
merge of merge Step 1, and the per-segment ``merge_row`` of merge
Step 3.  Each is one call of :func:`rank_merge` over its whole
frontier, and every row it writes equals the per-row ``merge_row`` of
that row and its run (the reference ``tests/oracles/merge_row.py``;
pinned by ``tests/data/construction_golden.json`` and the property
suite):

- the run records are sorted by ``(row, dist, id)``; a record's merged
  slot is the number of its row's records that precede it plus its
  index within its run — the paper's Step 3 is a bitonic *merge* of a
  sorted segment into a sorted row, not a re-sort;
- the row's own records keep their order and fill the slots no run
  record took, so a running count of taken slots gives each its source
  column (the construction the search's ``_insert_merge`` applies to
  each iteration's fresh records);
- only the run records are ranked, so a call costs what enters the
  rows, not ``rows × (d_max + run)``; ids are compared only where a row
  record ties a run record's distance or holds its id.

The one-record sorted insert of Phase 1 is the run of length one, and
inserting into an empty row is writing the run.  GGraphCon never
offers a row an id it holds (a group's vertices are unreachable until
Step 3 writes their backward edges); NN-Descent
(:mod:`repro.core.knng`) does, and :func:`rank_merge` applies
``merge_row``'s repeat rule to every input: the nearer record stays,
and on equal distance the row's own.

:func:`dedup_merge_rows` is not a row write: it puts CAGRA's unsorted
candidate lists into rank order (:func:`repro.core.cagra.rank_prune`).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.graphs.adjacency import PAD_DIST, PAD_ID, ProximityGraph


def rank_in_run(keys: np.ndarray) -> np.ndarray:
    """Position of every element of sorted ``keys`` within its run of
    equal keys — the slot a bounded per-key scatter writes it to."""
    index = np.arange(len(keys))
    head = np.ones(len(keys), dtype=bool)
    head[1:] = keys[1:] != keys[:-1]
    return index - np.maximum.accumulate(np.where(head, index, 0))


def _exact_ahead(row_ids, row_dists, degrees, owner, ids, dists, ahead,
                 rec_ids, nearer, tied, same):
    """The rank step where some row record ties a run record's distance
    or holds its id.

    ``ahead`` counts the row records strictly nearer than each run
    record; ``rec_ids`` are the row ids it faces and ``nearer`` /
    ``tied`` / ``same`` mark those strictly nearer, at its distance, and
    with its id.  First ``merge_row``'s repeat rule: of a run record and
    the row record with its id, the nearer stays, and on equal distance
    the row's own.  Then each remaining run record's count gains the
    live row records at its distance with a smaller id (pads are
    ``(+inf, -1)`` and never ahead, even of a ``+inf`` record) and loses
    the strictly nearer row records that a repeat beat.  Ties and
    repeats are counted at their own positions, not over every pair.

    Returns:
        The rows without their beaten records (still front-packed and
        sorted), their degrees, and the run without its losing records,
        with each run record's count.
    """
    n_rows, d_max = row_ids.shape
    width = same.shape[1]
    hit, at = np.divmod(np.flatnonzero(same), width)
    wins = dists[hit] < row_dists[owner[hit], at]
    alive = np.arange(d_max) < degrees[:, None]
    alive[owner[hit[wins]], at[wins]] = False

    flat = np.flatnonzero(tied)
    tie = flat // width
    ahead = ahead + np.bincount(
        tie[(rec_ids.take(flat) < ids[tie])
            & alive[owner[tie], flat % width]], minlength=len(ids))
    # A beaten record was strictly nearer than a suffix of its row's run.
    beaten = owner[hit[wins]]
    first = np.searchsorted(owner, beaten)
    span = np.searchsorted(owner, beaten, side="right") - first
    which = np.repeat(np.arange(len(beaten)), span)
    faced = np.repeat(first, span) + rank_in_run(which)
    ahead = ahead - np.bincount(
        faced[nearer[faced, at[wins][which]]], minlength=len(ids))
    runs = np.delete(np.arange(len(ids)), hit[~wins])

    # Close the gaps the beaten records leave in their rows.
    rows = np.unique(beaten)
    live = np.flatnonzero(alive[rows])
    row = live // d_max
    packed = row * d_max + rank_in_run(row)
    kept_ids = np.full((len(rows), d_max), PAD_ID)
    kept_dists = np.full((len(rows), d_max), PAD_DIST,
                         dtype=row_dists.dtype)
    kept_ids.put(packed, row_ids[rows].take(live))
    kept_dists.put(packed, row_dists[rows].take(live))
    row_ids[rows] = kept_ids
    row_dists[rows] = kept_dists
    degrees = degrees - np.bincount(beaten, minlength=n_rows)
    return (row_ids, row_dists, degrees, owner[runs], ids[runs],
            dists[runs], ahead[runs])


def rank_merge(graph: ProximityGraph, rows: np.ndarray, owner: np.ndarray,
               ids: np.ndarray, dists: np.ndarray) -> None:
    """Merge one sorted run into each of ``rows``: row ``rows[i]``
    becomes ``merge_row`` of itself and the run records ``j`` with
    ``owner[j] == i`` — sorted by ``(dist, id)``, one record per id, the
    best ``d_max`` kept.

    Args:
        graph: Graph whose rows are rewritten in place.
        rows: Distinct vertices to write.
        owner: ``(e,)`` ascending index into ``rows`` of every run
            record.
        ids: Run ids; a run's ids are distinct, and each run is sorted
            by ``(dist, id)``.
        dists: Run distances.
    """
    d_max = graph.d_max
    row_ids = graph.neighbor_ids.take(rows, axis=0)
    row_dists = graph.neighbor_dists.take(rows, axis=0)
    degrees = graph.degrees.take(rows)

    # Rank: a run record's slot is the number of its row's records that
    # precede it by (dist, id), plus its index within its run.  Rows are
    # sorted, so counting the strictly nearer ones suffices unless a row
    # record ties the distance or holds the id.  No row holds a record
    # past the largest degree, so no column past it is compared.
    width = max(degrees.max(initial=0), 1)
    rec_ids = row_ids[:, :width].take(owner, axis=0)
    rec_dists = row_dists[:, :width].take(owner, axis=0)
    nearer = rec_dists < dists[:, None]
    # A sorted row's strictly nearer records are a prefix of it.
    ahead = np.where(nearer[:, -1], width, nearer.argmin(axis=1))
    same = rec_ids == ids[:, None]
    tied = rec_dists == dists[:, None]
    if same.any() or tied.any():
        row_ids, row_dists, degrees, owner, ids, dists, ahead = \
            _exact_ahead(row_ids, row_dists, degrees, owner, ids, dists,
                         ahead, rec_ids, nearer, tied, same)
    slot = ahead + rank_in_run(owner)
    enters = np.flatnonzero(slot < d_max)
    owner = owner.take(enters)
    taken = owner * d_max + slot.take(enters)

    # Rewrite: the slots no run record took keep the row's records in
    # order, so a running count of taken slots gives each its source
    # (past the row's degree, a pad; a taken slot computes some source
    # and is overwritten).  Each row's count restarts at its first slot.
    counts = np.bincount(owner, minlength=len(rows))
    steps = np.bincount(taken, minlength=row_ids.size)
    steps[d_max::d_max] -= counts[:-1]
    source = np.arange(row_ids.size) - steps.cumsum()
    new_ids = row_ids.take(source)
    new_dists = row_dists.take(source)
    new_ids.put(taken, ids.take(enters))
    new_dists.put(taken, dists.take(enters))
    graph.neighbor_ids[rows] = new_ids.reshape(row_ids.shape)
    graph.neighbor_dists[rows] = new_dists.reshape(row_ids.shape)
    graph.degrees[rows] = np.minimum(degrees + counts, d_max)


def dedup_merge_rows(ids: np.ndarray, dists: np.ndarray, limit: int,
                     pad_base: int
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise: drop duplicate ids (keep min dist), sort, truncate.

    CAGRA's canonical rank order (:func:`repro.core.cagra.rank_prune`):
    a candidate list is not sorted, so this one sorts.

    Args:
        ids: ``(r, w)`` candidate ids; entries ``>= pad_base`` are
            padding (each column's pad id must be distinct).
        dists: ``(r, w)`` distances (``+inf`` on padding).
        limit: Columns kept after the final (dist, id) sort.
        pad_base: First id value treated as padding.

    Returns:
        ``(ids, dists, valid)`` of shape ``(r, limit)``; ``valid`` marks
        real (non-padding) entries, which are always front-packed.
    """
    n_rows, width = ids.shape
    base = (np.arange(n_rows) * width)[:, None]
    # Sort by (id, dist): duplicates of an id become adjacent with the
    # minimum-distance record first — the record np.unique's
    # return_index keeps on a (dist, id)-sorted run.
    order = np.lexsort((dists, ids), axis=1) + base
    ids_s = ids.take(order)
    dists_s = dists.take(order)
    dup = np.zeros(ids_s.shape, dtype=bool)
    dup[:, 1:] = ids_s[:, 1:] == ids_s[:, :-1]
    # Demote duplicates to fresh pad ids so the final sort stays total.
    pad_cols = pad_base + width + np.arange(width, dtype=np.int64)
    ids_s = np.where(dup, pad_cols[None, :], ids_s)
    dists_s = np.where(dup, np.inf, dists_s)
    order = (np.lexsort((ids_s, dists_s), axis=1) + base)[:, :limit]
    ids_f = ids_s.take(order)
    return ids_f, dists_s.take(order), ids_f < pad_base


def insert_bidirectional_batch(graph: ProximityGraph, vertices: np.ndarray,
                               neighbor_ids: np.ndarray,
                               dists: np.ndarray) -> None:
    """Insert ``v <-> u`` edges for many vertices' search results at once.

    Row ``i`` of the ``(m, w)`` ``neighbor_ids`` / ``dists`` holds
    ``vertices[i]``'s neighbors, ``-1`` / ``inf`` where it has fewer than
    ``w``.  Equivalent to each vertex's sequential ``insert_edge`` pairs
    of local construction under their invariants: every ``vertices`` row
    is empty (just created), no row contains one of ``vertices`` yet, all
    distances are finite, and every target row ``u`` appears once in the
    whole call — one vertex's neighbors are distinct, and GGraphCon's
    Phase-1 step links one vertex per local graph, whose rows no other
    local graph touches.  So every row written takes one run: a vertex
    its neighbors in ``(dist, id)`` order, a neighbor the one backward
    record (the sequential one-element insert).
    """
    found = np.flatnonzero(neighbor_ids >= 0)
    at = found // neighbor_ids.shape[1]
    targets = neighbor_ids.take(found)
    edge_d = dists.take(found)
    order = np.lexsort((targets, edge_d, at))
    rank_merge(graph, np.concatenate([vertices, targets]),
               np.concatenate([at.take(order),
                               len(vertices) + np.arange(len(targets))]),
               np.concatenate([targets.take(order), vertices.take(at)]),
               np.concatenate([edge_d.take(order), edge_d]))


def merge_forward_batch(graph: ProximityGraph, group: np.ndarray,
                        search_ids: np.ndarray, search_dists: np.ndarray,
                        forward_ids: np.ndarray,
                        forward_dists: np.ndarray, d_min: int
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge Step 1's ``N := top d_min of (search ∪ N')`` for a group.

    ``search_ids`` / ``search_dists`` hold one row per group vertex,
    ``-1`` wherever there is no result.  Search results lie in ``G_0``'s
    prefix and ``v.N'`` inside the group, so a vertex's records are
    distinct and its row is empty: its run is the first ``d_min`` of one
    ``(dist, id)`` sort of at most ``2 · d_min`` records.  Writes every
    group vertex's adjacency row and returns the backward edge list
    ``(src, dst, dist)``, grouped by destination vertex rather than in
    per-vertex append order, which is immaterial: Step 2 sorts ``E`` by
    the unique key (src, dist, dst).
    """
    all_ids = np.concatenate(
        [search_ids, forward_ids.take(group, axis=0)], axis=1)
    all_dists = np.concatenate(
        [search_dists, forward_dists.take(group, axis=0)], axis=1)
    found = np.flatnonzero(all_ids >= 0)
    at = found // all_ids.shape[1]
    ids = all_ids.take(found)
    dists = all_dists.take(found)
    order = np.lexsort((ids, dists, at))
    order = order[rank_in_run(at.take(order)) < d_min]
    at, ids, dists = at.take(order), ids.take(order), dists.take(order)
    rank_merge(graph, group, at, ids, dists)
    return ids, group.take(at), dists


def merge_segments_batch(graph: ProximityGraph, src: np.ndarray,
                         dst: np.ndarray, dist: np.ndarray,
                         offsets: np.ndarray) -> None:
    """Merge Step 3: fold every CSR segment into its adjacency row.

    The edges are sorted by ``(src, dist, dst)`` and segment ``i`` is
    ``offsets[i] .. offsets[i + 1]``, one per distinct source, each with
    distinct ``dst``; each merge keeps the best ``d_max`` records,
    exactly like the per-row ``merge_row`` (``tests/oracles/merge_row.py``).
    """
    rows = src.take(offsets[:-1])
    rank_merge(graph, rows, np.searchsorted(rows, src), dst, dist)
