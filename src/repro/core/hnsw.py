"""GGraphCon extension: HNSW construction on the simulated GPU.

Section IV-D builds HNSW level-by-level so every layer's searches can use
the structure already built, and solves the layer-addressing problem with
the ID shuffle: order vertices by descending level (random within a
level), and layer ``i`` is exactly the id prefix ``0 .. size_i - 1`` — no
per-layer index needed; the original ids are recovered from the recorded
mapping afterwards.

- :func:`draw_levels` — the standard exponential level draw
  (``level = floor(-ln(U) * mL)``).
- :func:`shuffled_order_from_levels` — the ID shuffle.
- :func:`build_hierarchy` — level draw, shuffle, one NSW graph per layer
  from a caller-supplied layer builder, stacked into a
  :class:`~repro.graphs.adjacency.HierarchicalGraph`.  Both HNSW builders
  run it: :func:`build_hnsw_gpu` (each layer built with
  :func:`repro.core.construction.build_nsw_gpu`, the layers' simulated
  times summing into the Table III figure) and
  :func:`repro.baselines.hnsw_cpu.build_hnsw_cpu`.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.core.construction import build_nsw_gpu, validated_points
from repro.core.params import BuildParams
from repro.core.results import ConstructionReport
from repro.errors import ConstructionError
from repro.graphs.adjacency import HierarchicalGraph, ProximityGraph
from repro.gpusim.device import DeviceSpec, QUADRO_P5000
from repro.gpusim.tracker import PhaseCategory


def draw_levels(n_points: int, d_min: int, seed: int = 0) -> np.ndarray:
    """Draw an HNSW level for each point.

    Uses the standard exponential rule ``level = floor(-ln(U) * mL)`` with
    ``mL = 1 / ln(d_min)``, capped at 15 (16 levels).

    Returns:
        ``(n_points,)`` int array of levels (0 = bottom only).
    """
    if n_points <= 0:
        raise ConstructionError(f"n_points must be positive, got {n_points}")
    if d_min < 2:
        raise ConstructionError(f"d_min must be >= 2 for HNSW, got {d_min}")
    rng = np.random.default_rng(seed)
    m_l = 1.0 / math.log(d_min)
    uniforms = rng.uniform(np.finfo(np.float64).tiny, 1.0, size=n_points)
    levels = np.floor(-np.log(uniforms) * m_l).astype(np.int64)
    return np.minimum(levels, 15)


def shuffled_order_from_levels(levels: np.ndarray,
                               seed: int = 0) -> np.ndarray:
    """Permutation placing high-level vertices first (the ID shuffle).

    Section IV-D: "we shuffle IDs of vertices and record the mapping ...
    vertices with smaller IDs can reach higher levels".  Within one level
    the order is random.

    Returns:
        ``order`` such that ``order[new_id] = original_id`` and levels are
        non-increasing along ``new_id``.
    """
    rng = np.random.default_rng(seed)
    jitter = rng.random(len(levels))
    # Sort by (-level, jitter): descending level, random within level.
    return np.lexsort((jitter, -levels)).astype(np.int64)


def layer_sizes_from_levels(levels: np.ndarray) -> List[int]:
    """Vertices per layer: ``size[i] = #{v : level_v >= i}``."""
    top = int(levels.max())
    return [int(np.count_nonzero(levels >= layer)) for layer in range(top + 1)]


def build_hierarchy(points: np.ndarray, d_min: int, seed: int,
                    build_layer: Callable[[np.ndarray], ProximityGraph]
                    ) -> Tuple[HierarchicalGraph, np.ndarray, List[int]]:
    """Level draw → ID shuffle → one NSW graph per layer → stack.

    Args:
        points: ``(n, d)`` validated point matrix (original ids).
        d_min: Degree bound driving the level draw.
        seed: Seed of the level draw and the shuffle.
        build_layer: Builds one layer's NSW graph from its points (the
            shuffled-id prefix the layer owns), bottom layer first.

    Returns:
        ``(graph, order, sizes)``: the hierarchical graph over shuffled
        ids, ``order[shuffled_id] = original_id`` and the layer sizes.
    """
    levels = draw_levels(len(points), d_min, seed=seed)
    order = shuffled_order_from_levels(levels, seed=seed)
    shuffled_points = points[order]
    sizes = layer_sizes_from_levels(levels)
    layers = [build_layer(shuffled_points[:size]) for size in sizes]
    return HierarchicalGraph.from_prefix_layers(layers), order, sizes


def build_hnsw_gpu(points: np.ndarray, params: BuildParams,
                   search_kernel: str = "ganns",
                   metric: str = "euclidean",
                   device: DeviceSpec = QUADRO_P5000) -> ConstructionReport:
    """Build an HNSW graph level-by-level with GGraphCon per layer.

    Args:
        points: ``(n, d)`` float matrix (original ids).
        params: Build parameters; ``params.seed`` drives the level draw
            and the ID shuffle.
        search_kernel: ``"ganns"`` or ``"song"``.
        metric: Metric name.
        device: Simulated device.

    Returns:
        A :class:`ConstructionReport` whose ``graph`` is a
        :class:`repro.graphs.adjacency.HierarchicalGraph` over *shuffled*
        ids; ``report.order`` maps ``shuffled id -> original id``.
    """
    points = validated_points(points)
    n = len(points)

    reports: List[ConstructionReport] = []

    def build_layer(layer_points: np.ndarray) -> ProximityGraph:
        # Keep the local-graph group size constant across layers: a layer
        # holding a fraction of the points gets the same fraction of the
        # grid, so merge launches stay as wide as the bottom layer's.
        size = len(layer_points)
        layer_blocks = max((size * params.blocks_for(n)) // n, 1)
        layer_params = params.with_overrides(
            n_blocks=min(layer_blocks, size))
        reports.append(build_nsw_gpu(layer_points, layer_params,
                                     search_kernel=search_kernel,
                                     metric=metric, device=device))
        return reports[-1].graph

    hierarchical, order, sizes = build_hierarchy(points, params.d_min,
                                                 params.seed, build_layer)

    total_seconds = 0.0
    phase_seconds: Dict[str, float] = {}
    category_seconds: Dict[PhaseCategory, float] = {
        PhaseCategory.DISTANCE: 0.0,
        PhaseCategory.STRUCTURE: 0.0,
    }
    for layer, report in enumerate(reports):
        total_seconds += report.seconds
        for phase, value in report.phase_seconds.items():
            phase_seconds[f"layer{layer}:{phase}"] = value
        for category, value in report.category_seconds.items():
            category_seconds[category] = (
                category_seconds.get(category, 0.0) + value)

    return ConstructionReport(
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
        # "Vertex IDs are recovered based on the stored mapping after
        # construction."
        order=order,
    )


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
