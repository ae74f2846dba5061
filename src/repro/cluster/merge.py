"""Scatter-gather top-k merge of per-shard results, with cost model.

Each shard answers a query with its local top-k; the coordinator must
reduce ``n_shards`` sorted runs to the global top-k.  Correctness is
defined against brute force: the merged list must equal the top-k of
the *union* of all shard candidates under ``(distance, id)`` order —
the property test drives this with duplicate distances, ``k`` larger
than any single shard's candidate list, and empty shards.

Semantics:

- Candidates are ``(distance, id)`` pairs; ties on distance break by
  ascending id, the library-wide tie rule
  (``tests/test_cluster_merge_properties.py`` is its contract here).
- An id ``< 0`` is *padding* (a shard holding fewer than ``k`` points
  pads its answer); padding never beats a real candidate and re-pads
  the tail of the merged list when the union holds fewer than ``k``
  real candidates.
- Duplicate ids across shards are impossible by construction (shards
  are disjoint), so the merge is a pure multiset reduction and does not
  deduplicate.

The cost side charges the reduction to the simulated device exactly
like the kernel's own phase (6): a serial fold of pairwise bitonic
merges, each :meth:`repro.gpusim.costs.CostTable.ganns_merge_cycles`
over two ``k``-length runs, one thread block per query
(:func:`merge_launch`).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.params import as_count
from repro.errors import ClusterError
from repro.gpusim.costs import DEFAULT_COSTS
from repro.gpusim.device import QUADRO_P5000
from repro.gpusim.kernel import KernelLaunch

#: Sort key given to padding entries so they lose every comparison
#: against real candidates (distance +inf, then largest id).
_PAD_ID_SENTINEL = np.iinfo(np.int64).max


def merge_topk(k: int, shard_ids: Sequence[np.ndarray],
               shard_dists: Sequence[np.ndarray],
               n_queries: Optional[int] = None
               ) -> Tuple[np.ndarray, np.ndarray]:
    """Exact top-k over the union of per-shard top-k runs.

    Args:
        k: Result size; the output always has ``k`` columns.
        shard_ids: Per shard, an ``(m, k_s)`` int id matrix (``k_s`` may
            differ per shard and may exceed or undershoot ``k``);
            entries ``< 0`` are padding.
        shard_dists: Matching ``(m, k_s)`` distance matrices.
        n_queries: Row count ``m``, required only when no shards are
            given (the all-shards-dead degenerate case).

    Returns:
        ``(ids, dists)`` of shape ``(m, k)`` — int64 / float64, sorted
        by ``(distance, id)`` per row, padded with ``-1`` / ``inf``.
    """
    k = as_count(k, "k", 1, ClusterError)
    if len(shard_ids) != len(shard_dists):
        raise ClusterError(
            f"got {len(shard_ids)} id matrices but {len(shard_dists)} "
            f"distance matrices"
        )
    if not shard_ids:
        if n_queries is None:
            raise ClusterError(
                "merging zero shards requires n_queries for the output "
                "shape"
            )
        return (np.full((n_queries, k), -1, dtype=np.int64),
                np.full((n_queries, k), np.inf, dtype=np.float64))
    id_blocks = []
    dist_blocks = []
    m = None
    for index, (ids, dists) in enumerate(zip(shard_ids, shard_dists)):
        ids = np.atleast_2d(np.asarray(ids, dtype=np.int64))
        dists = np.atleast_2d(np.asarray(dists, dtype=np.float64))
        if ids.shape != dists.shape:
            raise ClusterError(
                f"shard {index}: ids shape {ids.shape} != dists shape "
                f"{dists.shape}"
            )
        if m is None:
            m = ids.shape[0]
        elif ids.shape[0] != m:
            raise ClusterError(
                f"shard {index}: {ids.shape[0]} rows, expected {m}"
            )
        id_blocks.append(ids)
        dist_blocks.append(dists)
    if n_queries is not None and n_queries != m:
        raise ClusterError(
            f"n_queries={n_queries} disagrees with shard rows {m}"
        )
    all_ids = np.concatenate(id_blocks, axis=1)
    all_dists = np.concatenate(dist_blocks, axis=1)
    if all_ids.shape[1] < k:
        pad = k - all_ids.shape[1]
        all_ids = np.pad(all_ids, ((0, 0), (0, pad)),
                         constant_values=-1)
        all_dists = np.pad(all_dists, ((0, 0), (0, pad)),
                           constant_values=np.inf)
    padding = all_ids < 0
    sort_dists = np.where(padding, np.inf, all_dists)
    sort_ids = np.where(padding, _PAD_ID_SENTINEL, all_ids)
    # lexsort: last key is primary — distance first, then id.
    order = np.lexsort((sort_ids, sort_dists), axis=1)[:, :k]
    merged_ids = np.take_along_axis(sort_ids, order, axis=1)
    merged_dists = np.take_along_axis(sort_dists, order, axis=1)
    pad_out = merged_ids == _PAD_ID_SENTINEL
    merged_ids[pad_out] = -1
    merged_dists[pad_out] = np.inf
    return merged_ids, merged_dists


def merge_cycles_per_query(n_runs: int, k: int,
                           n_threads: int = 32) -> float:
    """Cycle cost of reducing ``n_runs`` sorted ``k``-runs to one.

    A serial fold of ``n_runs - 1`` pairwise bitonic merges, each
    keeping the best ``k`` of ``k + k`` — the same
    ``ganns_merge_cycles`` formula the search kernel's phase (6)
    charges, so cluster merge overhead and kernel merge cost stay in
    one currency.
    """
    if n_runs <= 0 or k <= 0:
        raise ClusterError(
            f"n_runs and k must be positive, got {n_runs}, {k}"
        )
    if n_runs == 1:
        return 0.0
    per_pair = DEFAULT_COSTS.ganns_merge_cycles(k, k, n_threads)
    return float(n_runs - 1) * per_pair


def merge_launch(n_queries: int, n_runs: int, k: int,
                 n_threads: int = 32) -> Tuple[float, float]:
    """Charge one merge launch: one thread block per query row.

    Returns:
        ``(total_cycles, seconds)`` — the per-block cycles summed over
        the grid, and the simulated elapsed time of the launch.
    """
    if n_queries <= 0:
        return 0.0, 0.0
    per_block = merge_cycles_per_query(n_runs, k, n_threads)
    if per_block == 0.0:
        return 0.0, 0.0
    launch = KernelLaunch(QUADRO_P5000, n_threads)
    result = launch.run(per_block, n_blocks=n_queries)
    return per_block * n_queries, float(result.seconds)
