"""NN-Descent and CAGRA construction written one vertex at a time.

The differential oracle for :func:`repro.core.knng.build_knn_graph_gpu`
and :func:`repro.core.cagra.build_cagra_gpu`: every stage is a plain
Python loop over the vertex set that calls the per-row
:class:`~repro.graphs.adjacency.ProximityGraph` methods (``set_row``,
``merge_row``) and the per-vertex metric calls (``one_to_many``,
``pairwise``), and the join evaluates every one of the ``4k²`` candidate
slots of every vertex, duplicates included.  The library runs the same
stages over the whole frontier at once and evaluates one distance per
distinct ``(vertex, candidate)`` pair.

Contract: ``neighbor_ids``, ``neighbor_dists`` and ``degrees`` are
*array-equal*, and ``details``, ``seconds``, ``phase_seconds`` and
``category_seconds`` are equal — the simulated device is charged per
slot in both.
"""

import math
from typing import Dict, List, Optional

import numpy as np

from repro.core.params import BuildParams
from repro.core.results import ConstructionReport
from repro.graphs.adjacency import PAD_DIST, PAD_ID, ProximityGraph
from repro.gpusim.costs import DEFAULT_COSTS
from repro.gpusim.device import QUADRO_P5000
from repro.gpusim.kernel import KernelLaunch
from repro.gpusim.tracker import PhaseCategory
from repro.metrics.distance import get_metric
from tests.oracles.merge_row import merge_row


def _unit(matrix):
    norms = np.linalg.norm(matrix, axis=-1, keepdims=True)
    return matrix / np.where(norms > 0.0, norms, 1.0)


def build_knn_graph_oracle(points: np.ndarray, k: int,
                           params: BuildParams = BuildParams(),
                           metric: str = "euclidean",
                           max_iterations: int = 12
                           ) -> ConstructionReport:
    """Batched NN-Descent, one vertex and one candidate slot at a time."""
    points = np.asarray(points)
    n, n_dims = points.shape
    metric_obj = get_metric(metric)
    rng = np.random.default_rng(params.seed)
    n_t = params.n_threads
    kernel = KernelLaunch(QUADRO_P5000, n_t)
    costs = DEFAULT_COSTS

    # Random initialisation: k distinct others per vertex.
    graph = ProximityGraph(n, k, metric)
    for v in range(n):
        choices = rng.choice(n - 1, size=k, replace=False)
        choices[choices >= v] += 1
        dists = metric_obj.one_to_many(points[v], points[choices])
        order = np.lexsort((choices, dists))
        graph.set_row(v, choices[order], dists[order])

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
        rows = graph.neighbor_ids[:, :k]
        # Bounded reverse table: the first k sources in (v, slot) order.
        rev = np.full((n, k), -1, dtype=np.int64)
        rev_counts = np.zeros(n, dtype=np.int64)
        for v in range(n):
            for u in rows[v]:
                u = int(u)
                if u >= 0 and rev_counts[u] < k:
                    rev[u, rev_counts[u]] = v
                    rev_counts[u] += 1
        both = np.concatenate([rows, rev], axis=1)  # (n, 2k)

        # Every neighbor b of v proposes every neighbor of b: 4k² slots.
        cand = np.full((n, 4 * k * k), -1, dtype=np.int64)
        for v in range(n):
            for slot, b in enumerate(both[v]):
                if b >= 0:
                    cand[v, slot * 2 * k:(slot + 1) * 2 * k] = both[b]
        invalid = (cand == np.arange(n)[:, None]) | (cand < 0)

        # One distance per slot (padding slots read vertex 0, then inf).
        dists = np.empty(cand.shape)
        if metric == "cosine":
            unit_points = _unit(points.astype(np.float64))
        for v in range(n):
            block = np.where(invalid[v], 0, cand[v])[None, :]
            if metric == "euclidean":
                diff = (points[block].astype(np.float64)
                        - points[v:v + 1, None, :])
                dists[v] = np.einsum("nkd,nkd->nk", diff, diff)[0]
            else:
                dists[v] = 1.0 - np.einsum(
                    "nkd,nd->nk", unit_points[block],
                    unit_points[v:v + 1])[0]
        dists[invalid] = np.inf

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

        # Adjacency update: one bounded merge per vertex.
        updates = 0
        for v in range(n):
            live = ~invalid[v]
            if not live.any():
                continue
            before = graph.neighbor_ids[v, :k].copy()
            merge_row(graph, v, cand[v][live], dists[v][live])
            updates += int((graph.neighbor_ids[v, :k] != before).sum())
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


def rank_prune_oracle(cand_ids, cand_dists, points, degree,
                      metric="euclidean"):
    """One vertex's candidates -> its ``degree`` least-detourable edges."""
    cand_ids = np.asarray(cand_ids, dtype=np.int64)
    cand_dists = np.asarray(cand_dists, dtype=np.float64)
    valid = cand_ids >= 0
    cand_ids = cand_ids[valid]
    cand_dists = cand_dists[valid]
    if len(cand_ids) == 0:
        return cand_ids, cand_dists
    # Canonical rank order, duplicates collapsed to their first rank.
    order = np.lexsort((cand_ids, cand_dists))
    cand_ids = cand_ids[order]
    cand_dists = cand_dists[order]
    _, first = np.unique(cand_ids, return_index=True)
    first.sort()
    cand_ids = cand_ids[first]
    cand_dists = cand_dists[first]
    m = len(cand_ids)
    if m <= degree:
        return cand_ids, cand_dists

    gathered = np.asarray(points, dtype=np.float64)[cand_ids]
    pair = get_metric(metric).pairwise(gathered, gathered)
    # detours[j] = |{ i < j : d(c_i, c_j) < d(u, c_j) }|
    detours = np.zeros(m, dtype=np.int64)
    for j in range(m):
        detours[j] = int((pair[:j, j] < cand_dists[j]).sum())
    selected = np.lexsort((np.arange(m), detours))[:degree]
    selected.sort()  # back to rank order == (dist, id) order
    return cand_ids[selected], cand_dists[selected]


def reverse_merge_oracle(forward_ids, forward_dists, degree):
    """Pinned forward half + closest reverse edges, vertex by vertex."""
    forward_ids = np.asarray(forward_ids, dtype=np.int64)
    forward_dists = np.asarray(forward_dists, dtype=np.float64)
    n = len(forward_ids)
    pinned = max(1, math.ceil(degree / 2))

    incoming = [[] for _ in range(n)]  # (dist, src) per destination
    for v in range(n):
        for u, dist in zip(forward_ids[v], forward_dists[v]):
            if u >= 0:
                incoming[int(u)].append((float(dist), v))

    out_ids = np.full((n, degree), PAD_ID, dtype=np.int64)
    out_dists = np.full((n, degree), PAD_DIST, dtype=np.float64)
    for v in range(n):
        f_deg = int((forward_ids[v] >= 0).sum())
        n_pinned = min(pinned, f_deg)
        keep = [(float(forward_dists[v, j]), int(forward_ids[v, j]))
                for j in range(n_pinned)]
        kept = {u for _, u in keep}
        # Candidate pool: reverse edges and forward leftovers, all
        # competing by (dist, id).
        pool = incoming[v] + [
            (float(forward_dists[v, j]), int(forward_ids[v, j]))
            for j in range(n_pinned, f_deg)]
        for dist, u in sorted(pool):
            if len(keep) == degree:
                break
            if u in kept or u == v:
                continue
            kept.add(u)
            keep.append((dist, u))
        keep.sort()
        out_ids[v, :len(keep)] = [u for _, u in keep]
        out_dists[v, :len(keep)] = [dist for dist, _ in keep]
    return out_ids, out_dists


def build_cagra_oracle(points: np.ndarray,
                       params: BuildParams = BuildParams(),
                       metric: str = "euclidean",
                       graph_degree: Optional[int] = None,
                       intermediate_degree: Optional[int] = None,
                       knn_iterations: int = 8
                       ) -> ConstructionReport:
    """KNN initialisation, then prune and merge one vertex at a time."""
    points = np.asarray(points)
    n, n_dims = points.shape
    degree = min(graph_degree if graph_degree is not None else params.d_max,
                 n - 1)
    if intermediate_degree is None:
        intermediate_degree = max(degree + 4, (degree * 3) // 2)
    intermediate = min(int(intermediate_degree), n - 1)
    n_t = params.n_threads
    kernel = KernelLaunch(QUADRO_P5000, n_t)
    costs = DEFAULT_COSTS

    knn_report = build_knn_graph_oracle(points, intermediate, params,
                                        metric=metric,
                                        max_iterations=knn_iterations)
    knn = knn_report.graph
    total_seconds = knn_report.seconds
    phase_seconds: Dict[str, float] = {"knn_init": knn_report.seconds}
    category = dict(knn_report.category_seconds)

    pruned_ids = np.full((n, degree), PAD_ID, dtype=np.int64)
    pruned_dists = np.full((n, degree), PAD_DIST, dtype=np.float64)
    for v in range(n):
        d_v = int(knn.degrees[v])
        kept_ids, kept_dists = rank_prune_oracle(
            knn.neighbor_ids[v, :d_v], knn.neighbor_dists[v, :d_v],
            points, degree, metric=metric)
        pruned_ids[v, :len(kept_ids)] = kept_ids
        pruned_dists[v, :len(kept_ids)] = kept_dists

    m = intermediate
    prune_distance = (m * costs.vector_load_cycles(n_dims, n_t)
                      + (m * (m - 1) // 2)
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

    merged_ids, merged_dists = reverse_merge_oracle(pruned_ids,
                                                    pruned_dists, degree)
    merge_cycles = (costs.prefix_sum_cycles(degree, n_t)
                    + costs.adjacency_merge_cycles(degree, degree, n_t))
    launch = kernel.run(merge_cycles, n_blocks=n)
    total_seconds += launch.seconds
    phase_seconds["reverse_merge"] = launch.seconds
    category[PhaseCategory.STRUCTURE] += launch.seconds

    graph = ProximityGraph(n, degree, metric)
    for v in range(n):
        live = merged_ids[v] >= 0
        graph.set_row(v, merged_ids[v][live], merged_dists[v][live])
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
