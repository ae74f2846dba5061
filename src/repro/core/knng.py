"""GGraphCon extension: KNN-graph construction (batched NN-Descent).

Section IV-D observes that the straightforward GGraphCon adaptation for
KNN graphs needs multiple searches per point, and adopts NN-Descent [9]
instead: "the key to this framework is distance computation between each
pair of neighbors of each vertex and the update of adjacency lists", both
of which map onto the kernels already built — bulk distance computation
(Figure 3) and the adjacency merge of Algorithm 2's Step 3.

Every stage runs over the whole vertex set at once (one block per vertex
on the simulated device): the bounded reverse table is one stable sort,
the neighbor-of-neighbor join one gather, the adjacency update one
batched bounded merge.  The simulated kernel evaluates — and is charged
for — all ``4k²`` candidate slots of a vertex; the host evaluates one
distance per *distinct* ``(vertex, candidate)`` pair, which yields the
same rows because a pair's distance does not depend on the slot asking
for it and the merge collapses duplicate ids anyway
(``tests/oracles/knng_pervertex.py`` is the per-slot, per-vertex form).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.core.construction import validated_points
from repro.core.params import BuildParams
from repro.core.results import ConstructionReport
from repro.errors import ConstructionError
from repro.graphs.adjacency import ProximityGraph
from repro.gpusim.costs import DEFAULT_COSTS
from repro.gpusim.device import DeviceSpec, QUADRO_P5000
from repro.gpusim.kernel import KernelLaunch
from repro.gpusim.scan import csr_offsets_from_sorted_ids
from repro.gpusim.tracker import PhaseCategory
from repro.metrics.distance import Metric, get_metric
from repro.perf.construction import merge_segments_batch, rank_in_run
from repro.perf.distance import row_blocks


def _pair_distances(metric: Metric, vectors: np.ndarray, v: np.ndarray,
                    u: np.ndarray) -> np.ndarray:
    """Distances of the flat pairs ``(v[i], u[i])``, in cache-sized
    blocks of pairs (:func:`repro.perf.distance.row_blocks`).

    ``vectors`` holds the float64 points through ``metric.prepare``.
    """
    out = np.empty(len(v))
    for block in row_blocks(len(v), vectors.shape[1]):
        out[block] = metric.prepared_rows_to_rows(vectors[u[block]],
                                                  vectors[v[block]])
    return out


def _init_distances(metric: Metric, points: np.ndarray,
                    ids: np.ndarray) -> np.ndarray:
    """``one_to_many`` bytes from every vertex to its ``(n, k)`` drawn
    ids (the float64 ``points`` unprepared: the metric prepares them)."""
    n, k = ids.shape
    out = np.empty((n, k))
    for block in row_blocks(n, k * points.shape[1]):
        chunk = ids[block]
        out[block] = metric.one_to_many_runs(
            points[block], points[chunk.ravel()],
            np.full(len(chunk), k)).reshape(chunk.shape)
    return out


def build_knn_graph_gpu(points: np.ndarray, k: int,
                        params: BuildParams = BuildParams(),
                        metric: str = "euclidean",
                        max_iterations: int = 12,
                        device: DeviceSpec = QUADRO_P5000
                        ) -> ConstructionReport:
    """Build a KNN graph with batched NN-Descent on the simulated GPU.

    Args:
        points: ``(n, d)`` float matrix.
        k: Neighbors per vertex (``d_min == d_max == k``).
        params: Supplies ``n_threads``, ``n_blocks`` and ``seed``.
        metric: Metric name.
        max_iterations: Hard refinement cap; refinement also stops once
            an iteration updates fewer than 0.1 % of all ``n * k`` slots.
        device: Simulated device.

    Returns:
        A :class:`ConstructionReport`; ``details["n_iterations"]`` records
        convergence.
    """
    points = validated_points(points)
    n = len(points)
    if not 1 <= k < n:
        raise ConstructionError(f"k must lie in [1, {n - 1}], got {k}")
    metric_obj = get_metric(metric)  # rejects unknown metric names
    rng = np.random.default_rng(params.seed)
    n_t = params.n_threads
    n_dims = points.shape[1]
    kernel = KernelLaunch(device, n_t)
    costs = DEFAULT_COSTS

    points64 = points.astype(np.float64)
    vectors = metric_obj.prepare(points64)

    # Random initialisation (one block per vertex).  The RNG stream is
    # contract, so the draws stay one call per vertex, in order.
    own = np.arange(n)
    init_ids = np.empty((n, k), dtype=np.int64)
    for v in range(n):
        init_ids[v] = rng.choice(n - 1, size=k, replace=False)
    init_ids += init_ids >= own[:, None]
    init_dists = _init_distances(metric_obj, points64, init_ids)
    order = np.lexsort((init_ids, init_dists), axis=1)
    graph = ProximityGraph.from_rows(
        np.take_along_axis(init_ids, order, axis=1),
        np.take_along_axis(init_dists, order, axis=1), metric=metric)

    per_vector = costs.single_distance_cycles(n_dims, n_t)
    init_cycles = k * per_vector + costs.bitonic_sort_cycles(k, n_t)
    launch = kernel.run(init_cycles, n_blocks=n)
    total_seconds = launch.seconds
    phase_seconds: Dict[str, float] = {"initialization": launch.seconds}
    category = {
        PhaseCategory.DISTANCE: launch.seconds * (k * per_vector)
        / init_cycles,
        PhaseCategory.STRUCTURE: launch.seconds
        * costs.bitonic_sort_cycles(k, n_t) / init_cycles,
    }

    threshold = max(1, int(0.001 * n * k))
    updates_history: List[int] = []
    for _ in range(max_iterations):
        rows = graph.neighbor_ids  # always full: k < n distinct others
        # General neighborhoods B[v] = forward ∪ reverse neighbors (Dong
        # et al.).  The reverse table is a bounded scatter — the first k
        # sources of every vertex in (v, slot) scan order, which a stable
        # sort by destination reproduces.
        order = np.argsort(rows, axis=None, kind="stable")
        dst = rows.ravel()[order]
        slot = rank_in_run(dst)
        fits = slot < k
        rev = np.full((n, k), -1, dtype=np.int64)
        rev[dst[fits], slot[fits]] = order[fits] // k
        both = np.concatenate([rows, rev], axis=1)  # (n, 2k)
        # Candidate generation: neighbors-of-neighbors over B.  Batched
        # form of "each pair of neighbors of each vertex proposes edges".
        cand = both[both]  # (n, 2k, 2k); a pad wraps to the last row ...
        cand[both < 0] = -1  # ... and proposes nothing
        cand = cand.reshape(n, -1)

        # Bulk distance computation.  The device evaluates every slot;
        # the host sorts each row's slots and evaluates the first
        # occurrence of every id that is a real other vertex.
        cand.sort(axis=1)
        fresh = (cand >= 0) & (cand != own[:, None])
        fresh[:, 1:] &= cand[:, 1:] != cand[:, :-1]
        v_idx, u_idx = np.nonzero(fresh)[0], cand[fresh]
        dists = _pair_distances(metric_obj, vectors, v_idx, u_idx)

        distance_cycles = cand.shape[1] * per_vector
        merge_cycles = costs.adjacency_merge_cycles(k, cand.shape[1], n_t)
        launch = kernel.run(distance_cycles + merge_cycles, n_blocks=n)
        total_seconds += launch.seconds
        phase_seconds["refinement"] = (
            phase_seconds.get("refinement", 0.0) + launch.seconds)
        mix = distance_cycles + merge_cycles
        category[PhaseCategory.DISTANCE] += launch.seconds * (
            distance_cycles / mix)
        category[PhaseCategory.STRUCTURE] += launch.seconds * (
            merge_cycles / mix)

        # Adjacency update (Step 3 style bounded merge, all rows at
        # once: the pairs are CSR segments keyed by vertex, each sorted
        # by (dist, id)).  Only the k closest candidates of a row can
        # enter it, and none farther than its last record (rows are
        # full), so the rest are dropped before the merge pays for them.
        before = rows.copy()
        if len(v_idx):
            slots = np.full((n, max(k, np.bincount(v_idx).max())), np.inf)
            slots[v_idx, rank_in_run(v_idx)] = dists
            kth = np.minimum(np.partition(slots, k - 1, axis=1)[:, k - 1],
                             graph.neighbor_dists[:, k - 1])
            enters = np.flatnonzero(dists <= kth[v_idx])
            # A row's candidates are in id order, so a stable sort by
            # distance within the row orders them by (dist, id).
            enters = enters[np.lexsort((dists[enters], v_idx[enters]))]
            v_idx, u_idx, dists = v_idx[enters], u_idx[enters], dists[enters]
            merge_segments_batch(graph, v_idx, u_idx, dists,
                                 csr_offsets_from_sorted_ids(v_idx))
        updates = int((graph.neighbor_ids != before).sum())
        updates_history.append(updates)
        if updates < threshold:
            break

    return ConstructionReport(
        algorithm="ggraphcon-knng",
        graph=graph,
        seconds=total_seconds,
        phase_seconds=phase_seconds,
        category_seconds=category,
        n_points=n,
        details={
            "k": float(k),
            "n_iterations": float(len(updates_history)),
            "final_updates": float(updates_history[-1]
                                   if updates_history else 0),
        },
    )
