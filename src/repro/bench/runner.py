"""Benchmark runner: graph caching, recall sweeps, recall-targeted lookup.

Building a stand-in graph takes tens of seconds of wall time; every
benchmark that needs "the NSW graph of dataset X at d_max 32" shares one
cached copy through :class:`GraphCache` (stored as ``.npz`` under
``.bench_cache/`` in the working directory, keyed by every parameter that
affects the build).

Recall/throughput curves are produced by sweeping the accuracy knob of
each algorithm (``(l_n, e)`` for GANNS, ``pq_bound`` for SONG) and
:func:`qps_at_recall` interpolates a curve at a recall target, which is how
"GANNS is N times faster than SONG at the same recall" is computed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.song import SongParams, song_search
from repro.core.construction import build_nsw_gpu
from repro.core.ganns import ganns_search
from repro.core.params import BuildParams, SearchParams
from repro.core.results import SearchReport
from repro.datasets.catalog import Dataset
from repro.errors import ConfigurationError
from repro.graphs.adjacency import ProximityGraph
from repro.metrics.recall import recall_at_k

DEFAULT_CACHE_DIR = os.environ.get("REPRO_BENCH_CACHE", ".bench_cache")


@dataclass(frozen=True)
class CurvePoint:
    """One operating point of a recall/throughput curve."""

    recall: float
    qps: float
    setting: Tuple[int, ...]
    report: Optional[SearchReport] = None


@dataclass(frozen=True)
class ConstructionTiming:
    """Simulated construction seconds, with the category split."""

    seconds: float
    distance_seconds: float
    structure_seconds: float


def _run_construction(dataset: Dataset, params: BuildParams,
                      algorithm: str, device) -> ConstructionTiming:
    """Execute one construction scheme and extract its timing."""
    from repro.gpusim.tracker import PhaseCategory

    def from_report(report) -> ConstructionTiming:
        return ConstructionTiming(
            seconds=report.seconds,
            distance_seconds=report.category_seconds.get(
                PhaseCategory.DISTANCE, 0.0),
            structure_seconds=report.category_seconds.get(
                PhaseCategory.STRUCTURE, 0.0),
        )

    metric_name = dataset.metric_name
    if algorithm == "ggc-ganns":
        return from_report(build_nsw_gpu(dataset.points, params,
                                         search_kernel="ganns",
                                         metric=metric_name,
                                         device=device))
    if algorithm == "ggc-song":
        return from_report(build_nsw_gpu(dataset.points, params,
                                         search_kernel="song",
                                         metric=metric_name,
                                         device=device))
    if algorithm == "naive":
        from repro.core.naive import build_nsw_naive_parallel
        return from_report(build_nsw_naive_parallel(
            dataset.points, params, search_kernel="song",
            metric=metric_name, device=device))
    if algorithm == "serial":
        from repro.core.naive import build_nsw_serial_gpu
        return from_report(build_nsw_serial_gpu(
            dataset.points, params, search_kernel="song",
            metric=metric_name, device=device))
    if algorithm == "cpu-nsw":
        from repro.baselines.nsw_cpu import build_nsw_cpu
        return from_report(build_nsw_cpu(
            dataset.points, params.d_min, params.d_max, metric=metric_name,
            ef_construction=params.effective_ef))
    if algorithm in ("hnsw-ganns", "hnsw-song"):
        from repro.core.hnsw import build_hnsw_gpu
        kernel = algorithm.split("-")[1]
        return from_report(build_hnsw_gpu(dataset.points, params,
                                          search_kernel=kernel,
                                          metric=metric_name,
                                          device=device))
    if algorithm == "cpu-hnsw":
        from repro.baselines.hnsw_cpu import build_hnsw_cpu
        return from_report(build_hnsw_cpu(
            dataset.points, params.d_min, params.d_max, metric=metric_name,
            ef_construction=params.effective_ef, seed=params.seed))
    raise ConfigurationError(
        f"unknown construction algorithm {algorithm!r}"
    )


class GraphCache:
    """Build-once cache of NSW graphs keyed by dataset and parameters."""

    def __init__(self, cache_dir: str = DEFAULT_CACHE_DIR):
        self.cache_dir = cache_dir

    def _path(self, key: str) -> str:
        return os.path.join(self.cache_dir, f"{key}.npz")

    @staticmethod
    def _key(dataset: Dataset, params: BuildParams, builder: str) -> str:
        blocks = params.blocks_for(dataset.n_points)
        return (f"{dataset.name}-n{dataset.n_points}-d{dataset.n_dims}"
                f"-dmin{params.d_min}-dmax{params.d_max}"
                f"-ef{params.effective_ef}-b{blocks}-{builder}")

    def nsw_graph(self, dataset: Dataset, params: BuildParams,
                  builder: str = "ggraphcon") -> ProximityGraph:
        """Return the cached NSW graph, building it on a miss.

        Args:
            dataset: Materialised dataset.
            params: Build parameters.
            builder: ``"ggraphcon"`` (the paper's construction) or
                ``"cpu"`` (sequential insertion — used where the paper
                searches on the baseline-built graph).
        """
        key = self._key(dataset, params, builder)
        path = self._path(key)
        if os.path.exists(path):
            try:
                with np.load(path, allow_pickle=False) as archive:
                    return ProximityGraph.from_arrays(
                        archive["ids"], archive["dists"], archive["degrees"],
                        dataset.metric_name)
            except (OSError, ValueError, KeyError):
                # Corrupted or stale cache entry: drop it and rebuild.
                os.remove(path)
        if builder == "ggraphcon":
            report = build_nsw_gpu(dataset.points, params,
                                   metric=dataset.metric_name)
            graph = report.graph
        elif builder == "cpu":
            from repro.baselines.nsw_cpu import build_nsw_cpu
            report = build_nsw_cpu(dataset.points, params.d_min,
                                   params.d_max,
                                   metric=dataset.metric_name,
                                   ef_construction=params.effective_ef)
            graph = report.graph
        else:
            raise ConfigurationError(
                f"unknown builder {builder!r}; valid: ggraphcon, cpu"
            )
        os.makedirs(self.cache_dir, exist_ok=True)
        np.savez_compressed(path, ids=graph.neighbor_ids,
                            dists=graph.neighbor_dists,
                            degrees=graph.degrees)
        return graph

    def construction_timing(self, dataset: Dataset, params: BuildParams,
                            algorithm: str,
                            device=None) -> "ConstructionTiming":
        """Cached simulated construction timing for one scheme.

        Args:
            dataset: Materialised dataset.
            params: Build parameters.
            algorithm: ``"ggc-ganns"``, ``"ggc-song"``, ``"naive"``,
                ``"serial"``, ``"cpu-nsw"``, ``"hnsw-ganns"``,
                ``"hnsw-song"`` or ``"cpu-hnsw"``.

        Returns:
            A :class:`ConstructionTiming` (seconds plus the
            distance/structure split when the scheme reports one).
        """
        if device is None:
            from repro.gpusim.device import QUADRO_P5000
            device = QUADRO_P5000
        device_tag = f"c{device.num_sms}x{device.max_blocks_per_sm}"
        key = self._key(dataset, params, f"time-{algorithm}-{device_tag}")
        path = self._path(key)
        if os.path.exists(path):
            try:
                with np.load(path, allow_pickle=False) as archive:
                    return ConstructionTiming(
                        seconds=float(archive["seconds"]),
                        distance_seconds=float(
                            archive["distance_seconds"]),
                        structure_seconds=float(
                            archive["structure_seconds"]),
                    )
            except (OSError, ValueError, KeyError):
                os.remove(path)
        timing = _run_construction(dataset, params, algorithm, device)
        os.makedirs(self.cache_dir, exist_ok=True)
        np.savez_compressed(path, seconds=timing.seconds,
                            distance_seconds=timing.distance_seconds,
                            structure_seconds=timing.structure_seconds)
        return timing


def sweep_ganns(graph: ProximityGraph, dataset: Dataset, k: int,
                settings: Iterable[Tuple[int, int]],
                keep_reports: bool = False) -> List[CurvePoint]:
    """GANNS recall/throughput curve over ``(l_n, e)`` settings."""
    ground_truth = dataset.ground_truth(k)
    curve = []
    for l_n, e in settings:
        params = SearchParams(k=k, l_n=l_n, e=min(e, l_n))
        report = ganns_search(graph, dataset.points, dataset.queries, params)
        curve.append(CurvePoint(
            recall=recall_at_k(report.ids, ground_truth),
            qps=report.queries_per_second(),
            setting=(l_n, e),
            report=report if keep_reports else None,
        ))
    return curve


def sweep_song(graph: ProximityGraph, dataset: Dataset, k: int,
               settings: Iterable[int],
               keep_reports: bool = False) -> List[CurvePoint]:
    """SONG recall/throughput curve over ``pq_bound`` settings."""
    ground_truth = dataset.ground_truth(k)
    curve = []
    for pq_bound in settings:
        params = SongParams(k=k, pq_bound=max(pq_bound, k))
        report = song_search(graph, dataset.points, dataset.queries, params)
        curve.append(CurvePoint(
            recall=recall_at_k(report.ids, ground_truth),
            qps=report.queries_per_second(),
            setting=(pq_bound,),
            report=report if keep_reports else None,
        ))
    return curve


def qps_at_recall(curve: Sequence[CurvePoint], target: float) -> float:
    """Interpolated throughput of a curve at a recall target.

    Curves are monotone in the accuracy knob (higher knob: higher recall,
    lower throughput).  Interpolation is linear in recall against
    log-throughput, the standard presentation of ANN benchmark plots.
    Falls back to the nearest endpoint when the target is outside the
    measured range.
    """
    if not curve:
        raise ConfigurationError("cannot interpolate an empty curve")
    points = sorted(curve, key=lambda p: p.recall)
    if target <= points[0].recall:
        return points[0].qps
    if target >= points[-1].recall:
        return points[-1].qps
    for lo, hi in zip(points, points[1:]):
        if lo.recall <= target <= hi.recall:
            if hi.recall == lo.recall:
                return max(lo.qps, hi.qps)
            frac = (target - lo.recall) / (hi.recall - lo.recall)
            log_qps = (np.log(max(lo.qps, 1e-12)) * (1 - frac)
                       + np.log(max(hi.qps, 1e-12)) * frac)
            return float(np.exp(log_qps))
    return points[-1].qps


def closest_point(curve: Sequence[CurvePoint], target: float) -> CurvePoint:
    """The measured operating point whose recall is nearest the target."""
    if not curve:
        raise ConfigurationError("cannot search an empty curve")
    return min(curve, key=lambda p: abs(p.recall - target))
