"""CAGRA-style fixed-degree graph construction (reorder + rank pruning).

Ootomo et al. (CAGRA) observe that on GPUs a proximity graph is better
*derived* than *grown*: start from a k-NN graph (cheap and massively
parallel), reorder every adjacency row by distance rank, drop the edges
that are *detourable* — reachable through a closer neighbor in two hops —
and finally merge reverse edges back in so no vertex is starved of
incoming routes.  The result is a fixed out-degree graph that needs no
incremental insertion at all, which is why its construction parallelises
so much better than NSW's insert-one-point-at-a-time scheme.

The pipeline here mirrors that recipe on the simulated device:

1. **k-NN initialisation** — :func:`repro.core.knng.build_knn_graph_gpu`
   (batched NN-Descent) at an *intermediate* degree above the target.
2. **Rank-based pruning** (:func:`rank_prune`) — candidates are
   canonically ordered by ``(distance, id)`` (their *rank*); an edge to
   the rank-``j`` candidate is detourable when some closer candidate
   ``i < j`` satisfies ``d(c_i, c_j) < d(u, c_j)``.  The ``degree``
   edges with the fewest detours (ties to the lower rank) survive.
3. **Forward/reverse merge** (:func:`reverse_merge`) — the closest half
   of every pruned row is pinned (rank-0 can never be dropped), the
   remaining slots are filled with the closest reverse edges, and
   forward leftovers backfill vertices that attract few reverse edges.

Every stage is charged to the gpusim cost model (one block per vertex),
so the bake-off's construction-cycle comparison against GGraphCon is
apples-to-apples.  The output is an ordinary flat
:class:`~repro.graphs.adjacency.ProximityGraph`, searched by the
unmodified GANNS kernels.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.construction import validated_points
from repro.core.knng import build_knn_graph_gpu
from repro.core.params import BuildParams
from repro.core.results import ConstructionReport
from repro.errors import ConstructionError
from repro.graphs.adjacency import PAD_DIST, PAD_ID, ProximityGraph
from repro.gpusim.costs import DEFAULT_COSTS
from repro.gpusim.device import QUADRO_P5000
from repro.gpusim.kernel import KernelLaunch
from repro.gpusim.tracker import PhaseCategory
from repro.metrics.distance import get_metric
from repro.perf.construction import dedup_merge_rows, rank_in_run
from repro.perf.distance import row_blocks


def rank_prune(cand_ids: np.ndarray, cand_dists: np.ndarray,
               points: np.ndarray, degree: int,
               metric: str = "euclidean"
               ) -> Tuple[np.ndarray, np.ndarray]:
    """Prune candidate lists to ``degree`` rank-selected edges each.

    The candidates are first put into canonical rank order — sorted by
    ``(distance, id)`` with padding (``-1`` ids) and duplicates removed —
    so the result is invariant under any permutation of the input (the
    property the hypothesis suite pins).  An edge to the rank-``j``
    candidate counts one *detour* for every better-ranked candidate
    ``i < j`` that lies strictly closer to ``c_j`` than the vertex
    itself does; the ``degree`` candidates with the fewest detours
    survive, ties broken by rank.

    Args:
        cand_ids: ``(m,)`` candidate ids of one vertex, or ``(r, m)`` —
            one row per vertex (``-1`` entries ignored).
        cand_dists: Distances from each vertex to its candidates.
        points: ``(n, d)`` point matrix (used for candidate-candidate
            distances).
        degree: Target out-degree.
        metric: Metric name (must match ``cand_dists``).

    Returns:
        ``(kept_ids, kept_dists)`` sorted by ``(distance, id)``: at most
        ``degree`` entries for one vertex, ``(r, degree)`` matrices
        padded with ``-1`` / ``inf`` for a batch.
    """
    cand_ids = np.asarray(cand_ids, dtype=np.int64)
    cand_dists = np.asarray(cand_dists, dtype=np.float64)
    if cand_ids.ndim == 1:
        ids, dists = rank_prune(cand_ids[None, :], cand_dists[None, :],
                                points, degree, metric)
        return ids[0][ids[0] >= 0], dists[0][ids[0] >= 0]
    points = np.asarray(points, dtype=np.float64)
    n_rows, width = cand_ids.shape
    # Canonical rank order, duplicates collapsed to their first rank.
    pad = cand_ids < 0
    ids, dists, valid = dedup_merge_rows(
        np.where(pad, len(points) + np.arange(width), cand_ids),
        np.where(pad, np.inf, cand_dists), width, len(points))
    counts = valid.sum(axis=1)
    out_ids = np.full((n_rows, degree), PAD_ID, dtype=np.int64)
    out_dists = np.full((n_rows, degree), PAD_DIST, dtype=np.float64)
    keep = min(width, degree)
    out_ids[:, :keep] = np.where(valid, ids, PAD_ID)[:, :keep]
    out_dists[:, :keep] = np.where(valid, dists, PAD_DIST)[:, :keep]

    # Rows with more than `degree` candidates are pruned, batched by
    # candidate count so every stacked pairwise matrix has the shape (and
    # the arithmetic) of the one-row call.
    metric_obj = get_metric(metric)
    for m in np.unique(counts[counts > degree]):
        rows = np.flatnonzero(counts == m)
        upper = np.triu(np.ones((m, m), dtype=bool), k=1)  # i < j
        for block in row_blocks(len(rows), m * max(m, points.shape[1])):
            part = rows[block]
            gathered = points[ids[part, :m]]
            pair = metric_obj.pairwise(gathered, gathered)
            # detours[j] = |{ i < j : d(c_i, c_j) < d(u, c_j) }|
            detours = (upper & (pair < dists[part, None, :m])).sum(axis=1)
            selected = np.sort(np.argsort(detours, axis=1,
                                          kind="stable")[:, :degree], axis=1)
            out_ids[part] = np.take_along_axis(ids[part], selected, axis=1)
            out_dists[part] = np.take_along_axis(dists[part], selected,
                                                 axis=1)
    return out_ids, out_dists


def reverse_merge(forward_ids: np.ndarray, forward_dists: np.ndarray,
                  degree: int) -> Tuple[np.ndarray, np.ndarray]:
    """Merge forward and reverse edges into the final fixed-degree rows.

    The closest ``ceil(degree / 2)`` forward edges of every vertex are
    pinned — in particular the rank-0 (closest) forward edge can never
    be dropped.  The remaining slots take the closest reverse edges
    (metrics are symmetric, so a reverse edge reuses the forward edge's
    distance); vertices that attract too few reverse edges backfill
    with their own remaining forward edges.

    Args:
        forward_ids: ``(n, w)`` pruned forward rows, sorted by
            ``(distance, id)`` with ``-1`` padding.
        forward_dists: Matching distances (``inf`` on padding).
        degree: Target out-degree of the merged rows.

    Returns:
        ``(ids, dists)`` dense ``(n, degree)`` arrays, rows sorted by
        ``(distance, id)``, padded with ``-1`` / ``inf``.
    """
    forward_ids = np.asarray(forward_ids, dtype=np.int64)
    forward_dists = np.asarray(forward_dists, dtype=np.float64)
    n, width = forward_ids.shape
    pinned = max(1, math.ceil(degree / 2))

    # One record per (row, id, dist) claim: every forward edge v -> u
    # claims a slot in row v — pinned when it is among v's first
    # `pinned`, else in the pool — and, reversed, a pool slot in row u.
    live = forward_ids.ravel() >= 0
    src = np.repeat(np.arange(n), width)[live]
    dst = forward_ids.ravel()[live]
    row = np.concatenate([src, dst])
    ids = np.concatenate([dst, src])
    dists = np.tile(forward_dists.ravel()[live], 2)
    pool = np.concatenate([np.tile(np.arange(width), n)[live] >= pinned,
                           np.ones(len(src), dtype=bool)])
    claims = np.flatnonzero(~pool | (ids != row))
    # A pool claim loses to a pinned or closer claim on the same id ...
    claims = claims[np.lexsort((dists[claims], pool[claims], ids[claims],
                                row[claims]))]
    first = np.ones(len(claims), dtype=bool)
    first[1:] = ((row[claims[1:]] != row[claims[:-1]])
                 | (ids[claims[1:]] != ids[claims[:-1]]))
    claims = claims[first | ~pool[claims]]
    # ... and the pool fills what the pinned edges leave, by (dist, id).
    claims = claims[np.lexsort((ids[claims], dists[claims], pool[claims],
                                row[claims]))]
    claims = claims[rank_in_run(row[claims]) < degree]
    claims = claims[np.lexsort((ids[claims], dists[claims], row[claims]))]

    out_ids = np.full((n, degree), PAD_ID, dtype=np.int64)
    out_dists = np.full((n, degree), PAD_DIST, dtype=np.float64)
    slot = rank_in_run(row[claims])
    out_ids[row[claims], slot] = ids[claims]
    out_dists[row[claims], slot] = dists[claims]
    return out_ids, out_dists


def build_cagra_gpu(points: np.ndarray,
                    params: BuildParams = BuildParams(),
                    metric: str = "euclidean",
                    graph_degree: Optional[int] = None,
                    intermediate_degree: Optional[int] = None,
                    knn_iterations: int = 8
                    ) -> ConstructionReport:
    """Build a CAGRA-style fixed-degree graph on the simulated GPU.

    Args:
        points: ``(n, d)`` float matrix.
        params: Supplies ``d_max`` (the default target degree),
            ``n_threads`` and ``seed``.
        metric: ``"euclidean"`` or ``"cosine"``.
        graph_degree: Target out-degree of the final graph; defaults to
            ``params.d_max`` (capped at ``n - 1``).
        intermediate_degree: Width of the initial k-NN graph the pruning
            selects from; defaults to ~1.5x the target degree.
        knn_iterations: NN-Descent refinement cap for the initial graph.

    Returns:
        A :class:`ConstructionReport` whose graph is a flat
        :class:`ProximityGraph` with exactly ``graph_degree`` edges per
        vertex (fewer only when ``n - 1 < graph_degree``).
    """
    points = validated_points(points)
    n = len(points)
    if n < 2:
        raise ConstructionError("CAGRA construction needs at least 2 points")
    degree = min(graph_degree if graph_degree is not None else params.d_max,
                 n - 1)
    if degree <= 0:
        raise ConstructionError(f"graph_degree must be positive, got {degree}")
    if intermediate_degree is None:
        intermediate_degree = max(degree + 4, (degree * 3) // 2)
    intermediate = min(int(intermediate_degree), n - 1)
    if intermediate < degree:
        raise ConstructionError(
            f"intermediate_degree ({intermediate}) must be >= graph_degree "
            f"({degree})"
        )
    n_t = params.n_threads
    n_dims = points.shape[1]
    kernel = KernelLaunch(QUADRO_P5000, n_t)
    costs = DEFAULT_COSTS

    # Stage 1: k-NN initialisation at the intermediate degree.
    knn_report = build_knn_graph_gpu(points, intermediate, params,
                                     metric=metric,
                                     max_iterations=knn_iterations)
    knn = knn_report.graph
    total_seconds = knn_report.seconds
    phase_seconds: Dict[str, float] = {"knn_init": knn_report.seconds}
    category = dict(knn_report.category_seconds)

    # Stage 2: rank-based reorder + detour pruning (one block per vertex:
    # load the candidate vectors, compute the candidate-candidate
    # distance triangle, sort by detour count).
    pruned_ids, pruned_dists = rank_prune(
        knn.neighbor_ids, knn.neighbor_dists, points, degree, metric=metric)

    m = intermediate
    pair_computes = m * (m - 1) // 2
    prune_distance = (m * costs.vector_load_cycles(n_dims, n_t)
                      + pair_computes
                      * costs.distance_compute_cycles(n_dims, n_t))
    prune_structure = (costs.bitonic_sort_cycles(m, n_t)
                       + m * costs.alu_cycles)
    launch = kernel.run(prune_distance + prune_structure, n_blocks=n)
    total_seconds += launch.seconds
    phase_seconds["rank_prune"] = launch.seconds
    mix = prune_distance + prune_structure
    category[PhaseCategory.DISTANCE] = (
        category.get(PhaseCategory.DISTANCE, 0.0)
        + launch.seconds * prune_distance / mix)
    category[PhaseCategory.STRUCTURE] = (
        category.get(PhaseCategory.STRUCTURE, 0.0)
        + launch.seconds * prune_structure / mix)

    # Stage 3: forward/reverse merge (bounded reverse scatter + bitonic
    # merge per row; reverse edges reuse forward distances, so this
    # stage computes no distances at all).
    merged_ids, merged_dists = reverse_merge(pruned_ids, pruned_dists,
                                             degree)
    merge_cycles = (costs.prefix_sum_cycles(degree, n_t)
                    + costs.adjacency_merge_cycles(degree, degree, n_t))
    launch = kernel.run(merge_cycles, n_blocks=n)
    total_seconds += launch.seconds
    phase_seconds["reverse_merge"] = launch.seconds
    category[PhaseCategory.STRUCTURE] += launch.seconds

    graph = ProximityGraph.from_rows(merged_ids, merged_dists,
                                     d_max=degree, metric=metric)
    return ConstructionReport(
        algorithm="cagra",
        graph=graph,
        seconds=total_seconds,
        phase_seconds=phase_seconds,
        category_seconds=category,
        n_points=n,
        details={
            "graph_degree": float(degree),
            "intermediate_degree": float(intermediate),
            "knn_iterations": knn_report.details["n_iterations"],
        },
    )
