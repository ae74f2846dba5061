"""Benchmark runner: construction by scheme name, recall sweeps, lookup.

:func:`build` runs one construction scheme of the evaluation by its
:data:`BUILDERS` name and returns the builder's own report.  Nothing is
kept between calls (the paper benchmarks memoise it for one session in
``benchmarks/conftest.py``), so every table comes from the tree under
test.  :func:`sweep` scores each setting of an algorithm's accuracy knob
with the tuner's one evaluator, :func:`repro.core.tuner.operating_point`;
:func:`qps_at_recall` interpolates the curve at a recall target, which is
how "GANNS is N times faster than SONG at the same recall" is computed.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.baselines.hnsw_cpu import build_hnsw_cpu
from repro.baselines.nsw_cpu import build_nsw_cpu
from repro.core.construction import build_nsw_gpu
from repro.core.hnsw import build_hnsw_gpu
from repro.core.naive import build_nsw_naive_parallel, build_nsw_serial_gpu
from repro.core.params import BuildParams
from repro.core.results import ConstructionReport
from repro.core.tuner import CurvePoint, operating_point
from repro.datasets.catalog import Dataset
from repro.errors import ConfigurationError
from repro.gpusim.device import DeviceSpec, QUADRO_P5000
from repro.graphs.adjacency import ProximityGraph

#: Construction schemes by name: ``(points, params, metric, device)`` ->
#: the builder's report.  The CPU baselines price on one CPU core and
#: ignore the device.
BUILDERS: Dict[str, Callable[..., ConstructionReport]] = {
    "ggc-ganns": lambda points, params, metric, device: build_nsw_gpu(
        points, params, "ganns", metric, device=device),
    "ggc-song": lambda points, params, metric, device: build_nsw_gpu(
        points, params, "song", metric, device=device),
    "naive": lambda points, params, metric, device: build_nsw_naive_parallel(
        points, params, "song", metric, device=device),
    "serial": lambda points, params, metric, device: build_nsw_serial_gpu(
        points, params, "song", metric, device=device),
    "cpu-nsw": lambda points, params, metric, device: build_nsw_cpu(
        points, params.d_min, params.d_max, metric, params.effective_ef),
    "hnsw-ganns": lambda points, params, metric, device: build_hnsw_gpu(
        points, params, "ganns", metric, device),
    "hnsw-song": lambda points, params, metric, device: build_hnsw_gpu(
        points, params, "song", metric, device),
    "cpu-hnsw": lambda points, params, metric, device: build_hnsw_cpu(
        points, params.d_min, params.d_max, metric, params.effective_ef,
        params.seed),
}


def build(dataset: Dataset, params: BuildParams,
          algorithm: str = "ggc-ganns",
          device: DeviceSpec = QUADRO_P5000) -> ConstructionReport:
    """Run one construction scheme of the evaluation on a dataset.

    Args:
        dataset: Materialised dataset (its metric is used).
        params: Build parameters.
        algorithm: A :data:`BUILDERS` name.
        device: Simulated device the GPU schemes are priced on.

    Returns:
        The builder's :class:`ConstructionReport`, graph included.

    Raises:
        ConfigurationError: On an unknown scheme name.
    """
    builder = BUILDERS.get(algorithm)
    if builder is None:
        raise ConfigurationError(
            f"unknown construction algorithm {algorithm!r}; valid: "
            f"{', '.join(BUILDERS)}"
        )
    return builder(dataset.points, params, dataset.metric_name, device)


def sweep(graph: ProximityGraph, dataset: Dataset, k: int, algorithm: str,
          settings: Iterable[Tuple[int, ...]]) -> List[CurvePoint]:
    """Recall/throughput curve of ``algorithm`` over its knob settings.

    Each point is :func:`repro.core.tuner.operating_point` over the
    dataset's queries and carries its search report.
    """
    ground_truth = dataset.ground_truth(k)
    return [operating_point(graph, dataset.points, dataset.queries,
                            ground_truth, k, algorithm, setting)
            for setting in settings]


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
