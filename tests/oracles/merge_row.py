"""The per-row form of GGraphCon's Step 3 row write, the reference
:func:`repro.perf.construction.rank_merge` and the compaction and
NN-descent oracles are held to."""

from typing import Sequence

import numpy as np

from repro.graphs.adjacency import ProximityGraph


def merge_row(graph: ProximityGraph, vertex: int, ids: Sequence[int],
              dists: Sequence[float]) -> None:
    """Merge candidate neighbors into ``vertex``'s row, keeping the best
    ``d_max``.

    The existing (sorted) row and a batch of new edges are merged and
    "we use the first d_max elements as the adjacency list".  Duplicates
    collapse to their nearest record.
    """
    degree = int(graph.degrees[vertex])
    all_ids = np.concatenate([graph.neighbor_ids[vertex, :degree],
                              np.asarray(ids, dtype=np.int64)])
    all_dists = np.concatenate([graph.neighbor_dists[vertex, :degree],
                                np.asarray(dists, dtype=graph.dtype)])
    if len(all_ids) == 0:
        return
    order = np.lexsort((all_ids, all_dists))
    all_ids = all_ids[order]
    all_dists = all_dists[order]
    _, unique_idx = np.unique(all_ids, return_index=True)
    keep = np.zeros(len(all_ids), dtype=bool)
    keep[unique_idx] = True
    all_ids = all_ids[keep]
    all_dists = all_dists[keep]
    order = np.lexsort((all_ids, all_dists))
    graph.set_row(vertex, all_ids[order][:graph.d_max],
                  all_dists[order][:graph.d_max])
