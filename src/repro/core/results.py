"""Search and construction reports: results plus simulated timing.

A :class:`SearchReport` bundles the neighbor ids/distances (real
computation) with a :class:`repro.gpusim.tracker.CycleTracker` whose lanes
are queries (simulated clock).  Converting to throughput or to a Figure 7
style breakdown is a method call, so benchmark code never re-derives
timing rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

import numpy as np

from repro.errors import SearchError
from repro.gpusim.device import QUADRO_P5000
from repro.gpusim.kernel import KernelLaunch, LaunchResult
from repro.gpusim.tracker import CycleTracker, PhaseCategory


@dataclass
class SearchReport:
    """Outcome of one batched search invocation.

    Attributes:
        algorithm: ``"ganns"`` or ``"song"``.
        ids: ``(n_queries, k)`` neighbor ids, closest first; ``-1`` pads.
        dists: Matching distances (``inf`` on padding).
        tracker: Per-query, per-phase cycle accounting.
        n_threads: Threads per block used (and charged).
        shared_mem_bytes: Shared memory per block, for occupancy.
        iterations: ``(n_queries,)`` search iterations per query.
        n_distance_computations: Total point distances evaluated — the
            quantity lazy check trades for structure-op savings.
        lane_distance_computations: The same count per query,
            ``(n_queries,)``; ``None`` on reports whose producer keeps
            only the total (the baselines), which cannot be sliced.
        lane_distance_evaluations: Distances the *host* evaluated per
            query — one per distinct (query, vertex) pair under the
            lazy check, however often the kernel is charged for it
            (``docs/performance.md``, "Charged vs evaluated
            distances").  Host-side observability only:
            in no digest, canonical bytes or golden.
    """

    algorithm: str
    ids: np.ndarray
    dists: np.ndarray
    tracker: CycleTracker
    n_threads: int
    shared_mem_bytes: int
    iterations: np.ndarray
    n_distance_computations: int
    lane_distance_computations: Optional[np.ndarray] = None
    lane_distance_evaluations: Optional[np.ndarray] = None

    @property
    def n_queries(self) -> int:
        """Queries answered by this report."""
        return len(self.ids)

    def take(self, lanes: np.ndarray) -> "SearchReport":
        """The report of the selected queries alone, in ``lanes`` order.

        A query's traversal depends only on (graph, points, params,
        entry, query), never on its batch mates, so the slice equals —
        field for field — the report of a search over just those
        queries.  ``lanes`` is an integer index array; a lane may
        repeat.
        """
        if self.lane_distance_computations is None:
            raise SearchError(
                f"a {self.algorithm!r} report without per-query distance "
                f"counts cannot be sliced by lane"
            )
        lanes = np.asarray(lanes, dtype=np.int64)
        per_lane = self.lane_distance_computations[lanes]
        evaluated = self.lane_distance_evaluations
        return replace(
            self, ids=self.ids[lanes], dists=self.dists[lanes],
            tracker=self.tracker.take(lanes),
            iterations=self.iterations[lanes],
            n_distance_computations=int(per_lane.sum()),
            lane_distance_computations=per_lane,
            lane_distance_evaluations=(None if evaluated is None
                                       else evaluated[lanes]))

    def launch(self) -> LaunchResult:
        """Schedule the one-block-per-query grid on the paper's device."""
        kernel = KernelLaunch(QUADRO_P5000, self.n_threads,
                              self.shared_mem_bytes)
        return kernel.run(self.tracker.lane_cycles())

    def queries_per_second(self) -> float:
        """Simulated throughput on the default device and cost table —
        the y-axis of Figures 6/8/9."""
        result = self.launch()
        if result.seconds <= 0:
            return float("inf")
        return self.n_queries / result.seconds

    def category_seconds(self) -> Dict[PhaseCategory, float]:
        """Elapsed seconds attributed to each phase category.

        Total launch time on the default device and cost table is split
        in proportion to the categories' cycle shares — the Figure 7
        breakdown and the Figure 10 per-stage times.
        """
        result = self.launch()
        totals = self.tracker.category_totals()
        grand = sum(totals.values())
        if grand <= 0:
            return {category: 0.0 for category in totals}
        return {category: result.seconds * share / grand
                for category, share in totals.items()}

    def breakdown(self) -> Dict[str, float]:
        """Fractional cycle share per phase name."""
        return self.tracker.breakdown()

    def structure_fraction(self) -> float:
        """Share of cycles spent on data-structure operations."""
        totals = self.tracker.category_totals()
        grand = sum(totals.values())
        if grand <= 0:
            return 0.0
        return totals.get(PhaseCategory.STRUCTURE, 0.0) / grand


@dataclass
class ConstructionReport:
    """Outcome of one (simulated-GPU) graph construction.

    Attributes:
        algorithm: Construction scheme name, e.g. ``"ggraphcon-ganns"``.
        graph: The built graph (a :class:`ProximityGraph`, or a
            :class:`HierarchicalGraph` for HNSW).
        seconds: Simulated elapsed construction time.
        phase_seconds: Elapsed time per construction phase.
        category_seconds: Elapsed time per phase category (distance vs
            structure — Figure 14's two series).
        n_points: Points inserted.
        details: Free-form extras (group count, merge iterations, ...).
        order: HNSW only: ``order[shuffled_id] = original_id``, the ID
            shuffle's mapping (the graph is over shuffled ids).
    """

    algorithm: str
    graph: object
    seconds: float
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    category_seconds: Dict[PhaseCategory, float] = field(default_factory=dict)
    n_points: int = 0
    details: Dict[str, float] = field(default_factory=dict)
    order: Optional[np.ndarray] = None
