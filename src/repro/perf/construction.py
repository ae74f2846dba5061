"""Batched insert/merge kernels for GGraphCon.

Algorithm 2 states three per-element steps: the bidirectional
``insert_edge`` pairs of local construction, the per-vertex ``N ∪ N'``
merge + edge emission of merge Step 1, and the per-segment
``merge_row`` of merge Step 3.  The helpers here run each step over its
whole frontier at once while producing *the same graph state* as the
sequential :class:`~repro.graphs.adjacency.ProximityGraph` methods
(pinned by ``tests/data/construction_golden.json``):

- sequential inserts into an empty row equal a sort-then-write;
- the one-element sorted insert has a closed-form position
  (``count(row < new) + count(row == new with smaller id)``), so the
  whole frontier's backward edges shift in one gather;
- the keep-first dedup of ``np.unique`` over a (dist, id)-sorted run
  equals flagging first occurrences in an (id, dist)-sorted run —
  both keep exactly the minimum-distance record per id.

Padding uses ids ``>= pad_base`` (one *distinct* dummy id per column,
so deduplication never collapses two pads) with ``+inf`` distances,
which sort behind every real record and are stripped before rows are
written back.
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


def dedup_merge_rows(ids: np.ndarray, dists: np.ndarray, limit: int,
                     pad_base: int
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise: drop duplicate ids (keep min dist), sort, truncate.

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
    width = ids.shape[1]
    # Sort by (id, dist): duplicates of an id become adjacent with the
    # minimum-distance record first — the record np.unique's
    # return_index keeps on a (dist, id)-sorted run.
    order = np.lexsort((dists, ids), axis=1)
    ids_s = np.take_along_axis(ids, order, axis=1)
    dists_s = np.take_along_axis(dists, order, axis=1)
    dup = np.zeros(ids_s.shape, dtype=bool)
    dup[:, 1:] = ids_s[:, 1:] == ids_s[:, :-1]
    # Demote duplicates to fresh pad ids so the final sort stays total.
    pad_cols = pad_base + width + np.arange(width, dtype=np.int64)
    ids_s = np.where(dup, pad_cols[None, :], ids_s)
    dists_s = np.where(dup, np.inf, dists_s)
    order = np.lexsort((ids_s, dists_s), axis=1)
    ids_f = np.take_along_axis(ids_s, order, axis=1)[:, :limit]
    dists_f = np.take_along_axis(dists_s, order, axis=1)[:, :limit]
    return ids_f, dists_f, ids_f < pad_base


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
    local graph touches.
    """
    d_max = graph.d_max
    n_rows, width = neighbor_ids.shape
    found = neighbor_ids >= 0
    counts = found.sum(axis=1)
    # Forward: inserting k <= d_max records into an empty row one by one
    # just builds the (dist, id)-sorted row; the (inf, -1) pads sort last
    # and are the empty row's own padding.
    order = (np.lexsort((neighbor_ids, dists), axis=1)
             + (np.arange(n_rows) * width)[:, None])
    graph.neighbor_ids[vertices, :width] = neighbor_ids.take(order)
    graph.neighbor_dists[vertices, :width] = dists.take(order)
    graph.degrees[vertices] = counts

    # Backward: a one-element sorted insert per (distinct) target row.
    targets = neighbor_ids[found]
    edge_d = dists[found]
    edge_src = np.repeat(vertices, counts)
    rows_d = graph.neighbor_dists[targets]
    rows_i = graph.neighbor_ids[targets]
    degrees = graph.degrees[targets]
    # Closed-form insert position; +inf row padding contributes nothing
    # because the inserted distances are finite.
    position = ((rows_d < edge_d[:, None]).sum(axis=1)
                + ((rows_d == edge_d[:, None])
                   & (rows_i < edge_src[:, None])).sum(axis=1))
    accepted = np.flatnonzero((degrees < d_max) | (position < d_max))
    if len(accepted) == 0:
        return
    rows = targets[accepted]
    pos = position[accepted]
    col = np.arange(d_max)
    # new[j] = old[j] for j <= pos, old[j - 1] for j > pos; the tail
    # entry falls off a full row exactly as insert_edge discards it.
    flat = (np.arange(len(accepted)) * d_max)[:, None]
    shifted = flat + col - (col > pos[:, None])
    new_i = rows_i[accepted].take(shifted)
    new_d = rows_d[accepted].take(shifted)
    new_i.put(flat[:, 0] + pos, edge_src[accepted])
    new_d.put(flat[:, 0] + pos, edge_d[accepted])
    graph.neighbor_ids[rows] = new_i
    graph.neighbor_dists[rows] = new_d
    graph.degrees[rows] = np.minimum(degrees[accepted] + 1, d_max)


def merge_forward_batch(graph: ProximityGraph, group: np.ndarray,
                        search_ids: np.ndarray, search_dists: np.ndarray,
                        forward_ids: np.ndarray,
                        forward_dists: np.ndarray, d_min: int
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge Step 1's ``N := top d_min of (search ∪ N')`` for a group.

    ``search_ids`` / ``search_dists`` hold one row per group vertex,
    ``-1`` wherever there is no result.  Writes every group vertex's
    adjacency row and returns the backward edge list ``(src, dst,
    dist)``.  The edges come out grouped by destination vertex rather
    than in per-vertex append order, which is immaterial: Step 2 sorts
    ``E`` by the unique key (src, dist, dst).
    """
    n_vertices = graph.n_vertices
    all_ids = np.concatenate([search_ids, forward_ids[group]], axis=1)
    all_dists = np.concatenate([search_dists, forward_dists[group]], axis=1)
    # The merge sorts every row, so where a record sits is immaterial;
    # empty slots become distinct pads.
    empty = all_ids < 0
    pad_cols = n_vertices + np.arange(all_ids.shape[1], dtype=np.int64)
    all_ids = np.where(empty, pad_cols, all_ids)
    all_dists = np.where(empty, np.inf, all_dists)

    ids_f, dists_f, valid = dedup_merge_rows(all_ids, all_dists, d_min,
                                             n_vertices)
    counts = valid.sum(axis=1)

    row_ids = np.full((len(group), graph.d_max), PAD_ID, dtype=np.int64)
    row_dists = np.full((len(group), graph.d_max), PAD_DIST,
                        dtype=np.float64)
    row_ids[:, :d_min] = np.where(valid, ids_f, PAD_ID)
    row_dists[:, :d_min] = np.where(valid, dists_f, PAD_DIST)
    graph.neighbor_ids[group] = row_ids
    graph.neighbor_dists[group] = row_dists
    graph.degrees[group] = counts

    edge_src = ids_f[valid]
    edge_dst = np.repeat(group, counts)
    edge_dist = dists_f[valid]
    return edge_src, edge_dst, edge_dist


def merge_segments_batch(graph: ProximityGraph, src: np.ndarray,
                         dst: np.ndarray, dist: np.ndarray,
                         offsets: np.ndarray) -> None:
    """Merge Step 3: fold every CSR segment into its adjacency row.

    Segments address distinct vertices, so all rows merge independently;
    each merge keeps the best ``d_max`` unique records, exactly like
    :meth:`repro.graphs.adjacency.ProximityGraph.merge_row`.
    """
    n_vertices = graph.n_vertices
    d_max = graph.d_max
    seg_starts = np.asarray(offsets[:-1], dtype=np.int64)
    seg_lens = np.asarray(offsets[1:], dtype=np.int64) - seg_starts
    vertices = src[seg_starts]
    max_len = int(seg_lens.max())
    n_segments = len(seg_starts)

    width = d_max + max_len
    pad_cols = n_vertices + np.arange(width, dtype=np.int64)
    all_ids = np.broadcast_to(pad_cols, (n_segments, width)).copy()
    all_dists = np.full((n_segments, width), np.inf, dtype=np.float64)

    cur_i = graph.neighbor_ids[vertices]
    cur_d = graph.neighbor_dists[vertices]
    cur_valid = cur_i >= 0
    all_ids[:, :d_max] = np.where(cur_valid, cur_i, all_ids[:, :d_max])
    all_dists[:, :d_max] = np.where(cur_valid, cur_d, np.inf)

    col = np.arange(max_len)
    in_seg = col[None, :] < seg_lens[:, None]
    take = np.minimum(seg_starts[:, None] + col[None, :], len(src) - 1)
    all_ids[:, d_max:] = np.where(in_seg, dst[take], all_ids[:, d_max:])
    all_dists[:, d_max:] = np.where(in_seg, dist[take], np.inf)

    ids_f, dists_f, valid = dedup_merge_rows(all_ids, all_dists, d_max,
                                             n_vertices)
    graph.neighbor_ids[vertices] = np.where(valid, ids_f, PAD_ID)
    graph.neighbor_dists[vertices] = np.where(valid, dists_f, PAD_DIST)
    graph.degrees[vertices] = valid.sum(axis=1)
