"""The straightforward GPU construction schemes of Section IV-A.

Both exist to be beaten:

- :func:`build_nsw_serial_gpu` (GSerial) — strictly sequential insertion
  with a GPU search kernel.  Only one block ever has work, so the device's
  inter-block parallelism is wasted; the paper reports 3810 s on SIFT1M
  against GGraphCon's 8.5 s.
- :func:`build_nsw_naive_parallel` (GNaiveParallel) — points are processed
  in batches; every point of a batch searches the *current* graph in
  parallel and the edges are applied together afterwards.  Fast (Figure 11
  shows it slightly ahead of GGraphCon_SONG) but the points of a batch
  ignore each other, so graph quality collapses (Figure 12).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

import numpy as np

from repro.baselines.beam import beam_search_lanes
from repro.core.construction import build_nsw_gpu, validated_points
from repro.core.construction_costs import GpuClock, report_from_clock
from repro.core.params import BuildParams, as_count
from repro.core.results import ConstructionReport
from repro.errors import ConstructionError
from repro.graphs.adjacency import ProximityGraph
from repro.gpusim.costs import DEFAULT_COSTS
from repro.gpusim.device import DeviceSpec, QUADRO_P5000
from repro.metrics.distance import get_metric


def build_nsw_serial_gpu(points: np.ndarray, params: BuildParams,
                         search_kernel: str = "song",
                         metric: str = "euclidean",
                         device: DeviceSpec = QUADRO_P5000
                         ) -> ConstructionReport:
    """GSerial: sequential insertion, one active block at a time.

    This is GGraphCon with a single group: Phase 1 inserts every point
    sequentially inside one block and there is nothing to merge.  It
    produces exactly the graph of the CPU sequential construction (same
    traversals), but the elapsed time is the *sum* of all insertion
    kernels — no inter-block overlap whatsoever.
    """
    report = build_nsw_gpu(points, params.with_overrides(n_blocks=1),
                           search_kernel=search_kernel, metric=metric,
                           device=device)
    return dataclasses.replace(
        report, algorithm=f"gserial-{search_kernel}",
        phase_seconds={"serial_insertion": report.seconds},
        details={"d_min": float(params.d_min),
                 "d_max": float(params.d_max)})


def build_nsw_naive_parallel(points: np.ndarray, params: BuildParams,
                             search_kernel: str = "song",
                             metric: str = "euclidean",
                             batch_size: Optional[int] = None,
                             device: DeviceSpec = QUADRO_P5000
                             ) -> ConstructionReport:
    """GNaiveParallel: batch-parallel insertion that ignores in-batch links.

    Args:
        points: ``(n, d)`` float matrix.
        params: Build parameters.
        search_kernel: ``"ganns"`` or ``"song"``.
        metric: Metric name.
        batch_size: Points per parallel batch; defaults to
            ``params.blocks_for(n)`` (one block per point).
        device: Simulated device.

    Returns:
        A :class:`ConstructionReport`; expect the graph's search quality to
        be visibly worse than GGraphCon's (that is the point).
    """
    points = validated_points(points)
    n = len(points)
    n_dims = points.shape[1]
    metric_obj = get_metric(metric)
    d_min = params.d_min
    ef = params.effective_ef
    n_t = params.n_threads
    if batch_size is None:
        batch_size = params.blocks_for(n)
    batch_size = as_count(batch_size, "batch_size", 1, ConstructionError)
    clock = GpuClock(params, search_kernel, n_dims, device)

    graph = ProximityGraph(n, params.d_max, metric)
    insert_cost = DEFAULT_COSTS.backward_insert_cycles(params.d_max, n_t)

    # Bootstrap: the first d_min + 1 points insert sequentially (a batch
    # against an empty graph has nothing to search).
    bootstrap = min(d_min + 1, n)
    boot_structure = 0.0
    boot_distance = 0.0
    for vertex in range(1, bootstrap):
        dists = metric_obj.one_to_many(points[vertex], points[:vertex])
        boot_distance += vertex * DEFAULT_COSTS.single_distance_cycles(
            n_dims, n_t)
        for u in range(vertex):
            graph.insert_edge(vertex, u, float(dists[u]))
            graph.insert_edge(u, vertex, float(dists[u]))
            boot_structure += 2 * insert_cost
    seconds = clock.kernel.cycles_to_seconds(boot_distance + boot_structure)
    clock.add("bootstrap", seconds, boot_distance, boot_structure)

    start = bootstrap
    while start < n:
        stop = min(start + batch_size, n)
        batch = np.arange(start, stop)
        clock.units(len(batch))
        lanes = beam_search_lanes(graph, points, points[batch], k=d_min,
                                  ef=ef, entries=0, metric=metric_obj)
        clock.search(np.arange(len(batch)), lanes)
        found = lanes.ids >= 0
        batch_edges = [(int(v), ids[keep], dists[keep]) for v, ids, dists,
                       keep in zip(batch, lanes.ids, lanes.dists, found)]
        clock.launch("batch_search")

        # Aggregate edge application after the batch completes.  Points
        # of the batch never link to each other, and — the scheme's
        # second flaw — the backward updates race: all blocks write the
        # target rows concurrently with no concurrency control ("it
        # might lead to inconsistent results", Section IV-B), so when
        # several blocks insert into the same row, only one write
        # survives (lost update; the survivor is arbitrary — we pick the
        # highest-id writer deterministically).
        update_cycles = 0.0
        backward: Dict[int, tuple] = {}
        for v, ids, dists in batch_edges:
            for u, dist in zip(ids, dists):
                graph.insert_edge(v, int(u), float(dist))
                update_cycles += insert_cost
                backward[int(u)] = (v, float(dist))
        for u, (v, dist) in backward.items():
            graph.insert_edge(u, v, dist)
            update_cycles += insert_cost
        n_update_blocks = max(len(batch_edges), 1)
        launch = clock.kernel.run(update_cycles / n_update_blocks,
                                  n_blocks=n_update_blocks)
        clock.add("batch_update", launch.seconds, 0.0, update_cycles)
        start = stop

    return report_from_clock(
        clock, f"gnaiveparallel-{search_kernel}", graph, n,
        details={"batch_size": float(batch_size), "d_min": float(d_min),
                 "d_max": float(params.d_max)})
