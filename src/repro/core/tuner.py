"""Parameter auto-tuning: hit a recall target at maximum throughput.

The paper exposes two accuracy knobs (``l_n`` and ``e`` for GANNS, the
queue bound for SONG) and its evaluation hand-picks operating points.  A
deployed service instead states an SLO — "recall at least 0.9" — and
wants the fastest configuration that clears it.  :func:`tune_search`
automates that: it evaluates candidate settings on a validation query
set (ground truth computed by brute force once) and returns the
highest-throughput setting meeting the target, using the monotone
recall-vs-budget structure to prune.  :func:`operating_point` is the
one evaluator of a setting; the paper benchmarks' recall/throughput
curves (:func:`repro.bench.runner.sweep`) are built from it too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.song import SongParams, song_search
from repro.core.ganns import ganns_search
from repro.core.params import SearchParams
from repro.core.results import SearchReport
from repro.datasets.ground_truth import exact_knn
from repro.errors import ConfigurationError, SearchError
from repro.graphs.adjacency import ProximityGraph
from repro.metrics.recall import recall_at_k

#: Default GANNS (l_n, e) grid, ordered by increasing budget.
DEFAULT_GANNS_GRID: Tuple[Tuple[int, int], ...] = (
    (32, 8), (32, 16), (32, 32), (64, 32), (64, 48), (64, 64),
    (128, 80), (128, 96), (128, 128), (256, 160), (256, 192), (256, 256),
    (512, 384), (512, 512),
)

#: Default SONG queue-bound grid.
DEFAULT_SONG_GRID: Tuple[int, ...] = (16, 24, 32, 48, 64, 96, 128, 192,
                                      256, 384, 512)


@dataclass(frozen=True)
class CurvePoint:
    """One operating point of a recall/throughput curve."""

    recall: float
    qps: float
    setting: Tuple[int, ...]
    report: Optional[SearchReport] = None


@dataclass(frozen=True)
class TuningResult:
    """Outcome of one tuning run.

    Attributes:
        algorithm: ``"ganns"`` or ``"song"``.
        setting: The chosen knob values (``(l_n, e)`` or ``(pq_bound,)``).
        recall: Validation recall of the chosen setting.
        qps: Simulated throughput of the chosen setting.
        evaluations: Settings actually evaluated (with their recalls), in
            evaluation order — the tuner's audit trail.
        target_met: Whether any setting reached the target.
    """

    algorithm: str
    setting: Tuple[int, ...]
    recall: float
    qps: float
    evaluations: List[Tuple[Tuple[int, ...], float, float]]
    target_met: bool


def _check_algorithm(algorithm: str) -> None:
    if algorithm not in ("ganns", "song"):
        raise SearchError(
            f"unknown algorithm {algorithm!r}; valid: ganns, song"
        )


def operating_point(graph: ProximityGraph, points: np.ndarray,
                    queries: np.ndarray, ground_truth: np.ndarray, k: int,
                    algorithm: str, setting: Tuple[int, ...]) -> CurvePoint:
    """Search once at one setting and score it against the truth.

    Args:
        graph: Proximity graph over ``points``.
        points: ``(n, d)`` data matrix.
        queries: ``(m, d)`` queries.
        ground_truth: ``(m, >= k)`` exact ids of ``queries``.
        k: Neighbors per query.
        algorithm: ``"ganns"`` (``setting = (l_n, e)``; ``e`` is capped
            at ``l_n``) or ``"song"`` (``setting = (pq_bound,)``; the
            bound is raised to ``k``).
        setting: The knob values.

    Returns:
        A :class:`CurvePoint` carrying the search report.
    """
    _check_algorithm(algorithm)
    setting = tuple(setting)
    if algorithm == "ganns":
        l_n, e = setting
        report = ganns_search(graph, points, queries,
                              SearchParams(k=k, l_n=l_n, e=min(e, l_n)))
    else:
        (pq_bound,) = setting
        report = song_search(graph, points, queries,
                             SongParams(k=k, pq_bound=max(pq_bound, k)))
    return CurvePoint(recall=recall_at_k(report.ids, ground_truth),
                      qps=report.queries_per_second(), setting=setting,
                      report=report)


def tune_search(graph: ProximityGraph, points: np.ndarray,
                validation_queries: np.ndarray, target_recall: float,
                k: int = 10, algorithm: str = "ganns",
                grid: Optional[Sequence[Tuple[int, ...]]] = None,
                ground_truth: Optional[np.ndarray] = None) -> TuningResult:
    """Find the fastest setting meeting a recall target.

    Uses binary search over the budget-ordered grid: recall is (weakly)
    monotone in the search budget, so the cheapest qualifying setting is
    located with ``O(log |grid|)`` evaluations instead of a full sweep.

    Args:
        graph: Proximity graph over ``points``.
        points: ``(n, d)`` data matrix.
        validation_queries: ``(m, d)`` held-out queries (a few hundred
            suffice).
        target_recall: The SLO in ``[0, 1]``.
        k: Neighbors per query.
        algorithm: ``"ganns"`` or ``"song"``.
        grid: Candidate settings ordered by increasing budget; defaults
            to :data:`DEFAULT_GANNS_GRID` / :data:`DEFAULT_SONG_GRID`.
        ground_truth: Pre-computed exact ids, if the caller has them.

    Returns:
        A :class:`TuningResult`; if no setting reaches the target, the
        highest-recall setting is returned with ``target_met=False``.
    """
    if not 0.0 < target_recall <= 1.0:
        raise ConfigurationError(
            f"target_recall must lie in (0, 1], got {target_recall}"
        )
    _check_algorithm(algorithm)
    if grid is None:
        grid = (DEFAULT_GANNS_GRID if algorithm == "ganns"
                else tuple((pq,) for pq in DEFAULT_SONG_GRID))
    grid = [tuple(setting) for setting in grid]
    if not grid:
        raise ConfigurationError("the tuning grid must not be empty")
    if ground_truth is None:
        ground_truth = exact_knn(points, validation_queries, k,
                                 graph.metric)

    # Binary search for the first qualifying index.
    evaluations: List[CurvePoint] = []
    best: Optional[CurvePoint] = None
    lo, hi = 0, len(grid) - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        point = operating_point(graph, points, validation_queries,
                                ground_truth, k, algorithm, grid[mid])
        evaluations.append(point)
        if point.recall >= target_recall:
            best, hi = point, mid - 1
        else:
            lo = mid + 1
    target_met = best is not None
    if best is None:
        # Nothing qualified: report the best achievable point (the
        # largest budget, which the binary search has already evaluated).
        best = max(evaluations, key=lambda point: point.recall)
    return TuningResult(
        algorithm=algorithm, setting=best.setting, recall=best.recall,
        qps=best.qps, target_met=target_met,
        evaluations=[(p.setting, p.recall, p.qps) for p in evaluations])
