"""GGraphCon extension: HNSW construction on the simulated GPU.

Section IV-D builds HNSW level-by-level so every layer's searches can use
the structure already built, and solves the layer-addressing problem with
the ID shuffle: order vertices by descending level (random within a
level), and layer ``i`` is exactly the id prefix ``0 .. size_i - 1`` — no
per-layer index needed; the original ids are recovered from the recorded
mapping afterwards.

Each layer is an NSW graph built with :func:`repro.core.construction.
build_nsw_gpu`; the layers' simulated times sum into the Table III figure.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.baselines.hnsw_cpu import (
    draw_levels,
    layer_sizes_from_levels,
    shuffled_order_from_levels,
)
from repro.core.construction import build_nsw_gpu, validated_points
from repro.core.params import BuildParams
from repro.core.results import ConstructionReport
from repro.graphs.adjacency import HierarchicalGraph, ProximityGraph
from repro.gpusim.costs import CostTable, DEFAULT_COSTS
from repro.gpusim.device import DeviceSpec, QUADRO_P5000
from repro.gpusim.tracker import PhaseCategory


def build_hnsw_gpu(points: np.ndarray, params: BuildParams,
                   search_kernel: str = "ganns",
                   metric: str = "euclidean",
                   device: DeviceSpec = QUADRO_P5000,
                   costs: CostTable = DEFAULT_COSTS) -> ConstructionReport:
    """Build an HNSW graph level-by-level with GGraphCon per layer.

    Args:
        points: ``(n, d)`` float matrix (original ids).
        params: Build parameters; ``params.seed`` drives the level draw
            and the ID shuffle.
        search_kernel: ``"ganns"`` or ``"song"``.
        metric: Metric name.
        device: Simulated device.
        costs: Cycle cost table.

    Returns:
        A :class:`ConstructionReport` whose ``graph`` is a
        :class:`repro.graphs.adjacency.HierarchicalGraph` over *shuffled*
        ids; ``details["order"]`` is stored on the report as the
        ``order`` attribute mapping ``shuffled id -> original id``
        (``report.details`` keeps scalar metadata only).
    """
    points = validated_points(points)
    n = len(points)

    levels = draw_levels(n, params.d_min, seed=params.seed)
    order = shuffled_order_from_levels(levels, seed=params.seed)
    shuffled_points = points[order]
    sizes = layer_sizes_from_levels(levels)

    total_seconds = 0.0
    phase_seconds: Dict[str, float] = {}
    category_seconds: Dict[PhaseCategory, float] = {
        PhaseCategory.DISTANCE: 0.0,
        PhaseCategory.STRUCTURE: 0.0,
    }
    layers: List[ProximityGraph] = []
    for layer, size in enumerate(sizes):
        # Keep the local-graph group size constant across layers: a layer
        # holding a fraction of the points gets the same fraction of the
        # blocks, so merge launches stay as wide as the bottom layer's.
        layer_blocks = max((size * params.n_blocks) // n, 1)
        layer_params = params.with_overrides(
            n_blocks=min(layer_blocks, size))
        report = build_nsw_gpu(shuffled_points[:size], layer_params,
                               search_kernel=search_kernel, metric=metric,
                               device=device, costs=costs)
        total_seconds += report.seconds
        for phase, value in report.phase_seconds.items():
            key = f"layer{layer}:{phase}"
            phase_seconds[key] = value
        for category, value in report.category_seconds.items():
            category_seconds[category] = (
                category_seconds.get(category, 0.0) + value)
        layers.append(report.graph)

    hierarchical = HierarchicalGraph.from_prefix_layers(layers)
    result = ConstructionReport(
        algorithm=f"ggraphcon-hnsw-{search_kernel}",
        graph=hierarchical,
        seconds=total_seconds,
        phase_seconds=phase_seconds,
        category_seconds=category_seconds,
        n_points=n,
        details={
            "n_layers": float(len(sizes)),
            "top_layer_size": float(sizes[-1]),
            "d_min": float(params.d_min),
            "d_max": float(params.d_max),
        },
    )
    # The shuffled-id mapping rides along for callers that need to recover
    # original ids ("vertex IDs are recovered based on the stored mapping
    # after construction").
    result.order = order
    return result


def recover_original_ids(ids: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Map shuffled-id search results back to original ids.

    Args:
        ids: Any-shape int array of shuffled ids (``-1`` padding allowed).
        order: The ``order`` mapping from :func:`build_hnsw_gpu`
            (``order[shuffled_id] = original_id``).

    Returns:
        Array of the same shape with original ids (padding preserved).
    """
    ids = np.asarray(ids)
    out = np.where(ids >= 0, order[np.clip(ids, 0, None)], -1)
    return out.astype(np.int64)
