"""GANNS: the GPU-friendly proximity-graph search (Section III-B).

The search replaces Algorithm 1's dynamically-maintained priority queues
and visited hash table with two fixed-length arrays and two lazy
strategies:

- *lazy update*: the pool ``N`` (length ``l_n``) holds the top results and
  the potential exploring vertices at once, kept sorted; the neighbor
  buffer ``T`` (length ``l_t = d_max``) is bitonic-sorted and bitonic-merged
  into ``N`` wholesale instead of element-by-element queue updates.
- *lazy check*: no visited hash — a neighbor's distance may be recomputed
  redundantly, but before merging, ``T`` is checked against ``N`` by
  parallel binary search so redundant *exploration* cannot propagate.

Each iteration runs the six phases of Figure 3: (1) candidate locating via
ballot/ffs, (2) neighborhood exploration, (3) bulk distance computation,
(4) lazy check, (5) bitonic sort of ``T``, (6) bitonic merge into ``N``.

This module is the search's front door: :func:`ganns_search` validates
the inputs and hands the batch to the one implementation, the arena
traversal in :mod:`repro.perf.engine` — all queries advance in lock-step
(exactly how a grid of thread blocks executes), every phase is a
vectorised NumPy operation over the active queries, and each query's lane
in the cycle tracker is charged with the paper's per-phase cost formulas.
``params.quant`` routes the same traversal through compressed distances
plus an exact rerank (:func:`repro.perf.engine.ganns_search_staged`).

:func:`check_queries` is the one query check: ``ganns_search``, SONG,
the CPU beam search, ``stream_batches``, ``GannsIndex.search`` and the
serving engines' trace validation all run it.  ``ganns_search`` also
refuses a corpus holding NaN or inf, scanned once per matrix object.

The oracles the implementation answers to live under ``tests/``: the
faithful single-query kernel assembled from warp primitives in
``tests/oracles/ganns_kernel.py``, the lock-step batched specification in
``tests/oracles/ganns_batched.py``, and the byte goldens under
``tests/data/``.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.core.construction import first_non_finite_row, \
    non_finite_message
from repro.core.params import SearchParams
from repro.core.results import SearchReport
from repro.errors import SearchError
from repro.graphs.adjacency import ProximityGraph
from repro.gpusim.costs import CostTable, DEFAULT_COSTS
from repro.perf.distance import resolve_compute_dtype
from repro.perf.engine import ganns_search_fast, ganns_search_staged
from repro.perf.identity_cache import IdentityCache

#: First non-finite row of each corpus searched (``-1``: none), kept
#: as long as the matrix lives — a replay searches one corpus many
#: times and scans it once.
_NON_FINITE_ROW = IdentityCache()


def _check_corpus(points: np.ndarray) -> None:
    """Refuse a corpus holding NaN or inf: distances to such a row have
    no order, and the traversal's merge relies on sorted pool rows."""
    row = _NON_FINITE_ROW.get(points, "rows",
                              lambda: first_non_finite_row(points))
    if row >= 0:
        raise SearchError(non_finite_message(row))


def check_queries(points: np.ndarray, queries: np.ndarray,
                  graph: Optional[ProximityGraph] = None,
                  entry: Union[int, np.ndarray, None] = None,
                  k: Optional[int] = None) -> Optional[np.ndarray]:
    """Refuse a query batch no search can rank.

    ``queries`` must be a non-empty 2-D matrix of finite values with the
    dimensionality of ``points``; ``points`` must be the matrix ``graph``
    was built over (when a graph is given); ``entry`` (when given) must
    be one vertex, or one vertex per query, inside ``points``; ``k``
    (when given) must not exceed the points' count, as
    :func:`repro.datasets.ground_truth.exact_knn` requires too — no
    search has more neighbours to return.  Both matrices are ndarrays
    already.

    Returns:
        The ``(n_queries,)`` entry vertices (a read-only broadcast view),
        or ``None`` when no ``entry`` was given.

    Raises:
        SearchError: Naming the first check that failed.
    """
    if queries.ndim != 2:
        raise SearchError(
            f"queries must be 2-D (n_queries, d), got shape {queries.shape}"
        )
    if points.ndim != 2 or points.shape[1] != queries.shape[1]:
        raise SearchError(
            f"points {points.shape} and queries {queries.shape} disagree "
            f"on dimensionality"
        )
    if graph is not None and len(points) != graph.n_vertices:
        # Out-of-range neighbour ids would clip to the last point and
        # an answer would still come back.
        raise SearchError(
            f"points has {len(points)} rows but the graph has "
            f"{graph.n_vertices} vertices; search the matrix the graph "
            f"was built over"
        )
    if k is not None and k > len(points):
        raise SearchError(
            f"k={k} exceeds the {len(points)} points searched; ask for "
            f"at most {len(points)} neighbours"
        )
    n_queries = len(queries)
    if n_queries == 0:
        raise SearchError("queries must be non-empty")
    if not np.isfinite(queries).all():
        raise SearchError(
            "queries contain NaN or infinite values; distances to them "
            "have no order, so the search cannot rank candidates"
        )
    if entry is None:
        return None
    entries = np.asarray(entry, dtype=np.int64)
    if entries.shape not in ((), (n_queries,)):
        raise SearchError(
            f"entry must be a scalar or a ({n_queries},) array, one "
            f"vertex per query; got shape {entries.shape}"
        )
    # Entries are never mutated by a search, so the read-only broadcast
    # view is enough.
    entries = np.broadcast_to(entries, (n_queries,))
    if entries.min() < 0 or entries.max() >= len(points):
        raise SearchError(
            f"entry vertices must lie in [0, {len(points)})"
        )
    return entries


def ganns_search(graph: ProximityGraph, points: np.ndarray,
                 queries: np.ndarray, params: SearchParams,
                 entry: Union[int, np.ndarray] = 0,
                 costs: CostTable = DEFAULT_COSTS,
                 lazy_check: bool = True,
                 dtype: Optional[object] = None) -> SearchReport:
    """Batched GANNS search: one simulated thread block per query.

    Args:
        graph: Proximity graph over ``points`` (``l_t`` is its ``d_max``).
        points: ``(n, d)`` data matrix.
        queries: ``(m, d)`` query matrix.
        params: Search parameters (``k``, ``l_n``, ``e``, ``n_threads``).
            ``params.quant`` switches to the lossy two-stage quantized
            pipeline: compressed traversal over ``rerank_factor * l_n``
            candidates, exact rerank before top-k (see
            :mod:`repro.perf.quant`).
        entry: Start vertex, or a per-query ``(m,)`` id array (as produced
            by an HNSW top-down descent).
        costs: Cycle cost table.
        lazy_check: Disable to run the ablation *without* phase (4): the
            duplicate-exploration guard is skipped and redundant work
            propagates (exploration of a vertex still happens at most once
            per pool residency, but re-discovered vertices re-enter ``N``).
        dtype: Distance compute dtype (``np.float32``/``np.float64``);
            ``None`` keeps the pinned default (float64).  Mixed-dtype
            points/queries raise :class:`repro.errors.SearchError`.

    Returns:
        A :class:`repro.core.results.SearchReport`.
    """
    points, queries = np.asarray(points), np.asarray(queries)
    entries = check_queries(points, queries, graph, entry, params.k)
    _check_corpus(points)
    compute_dtype = resolve_compute_dtype(points, queries, dtype)

    if params.quant is not None:
        return ganns_search_staged(graph, points, queries, params,
                                   entries, costs, lazy_check,
                                   compute_dtype, params.quant)
    return ganns_search_fast(graph, points, queries, params, entries,
                             costs, lazy_check, compute_dtype)
