"""Per-phase cycle accounting for simulated kernels.

A :class:`CycleTracker` accumulates cycles charged by algorithm code.  It is
vectorised over *lanes* so that a batched search — where each thread block
(query) progresses through its own number of iterations — can charge each
query independently: pass an index array or boolean mask to
:meth:`CycleTracker.charge` and only the active lanes are billed.

Every phase the search kernels charge has one :class:`PhaseCategory` in
one table, so the Figure 7 breakdown (distance computation vs
data-structure operations) falls straight out of the accounting.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, Optional, Union

import numpy as np

from repro.errors import ConfigurationError


class PhaseCategory(enum.Enum):
    """Coarse classification of kernel phases, used for time breakdowns."""

    DISTANCE = "distance"
    STRUCTURE = "structure"
    OTHER = "other"


#: Category of every phase GANNS (Section III-B) and SONG charge; any
#: other phase is :attr:`PhaseCategory.OTHER`.
_PHASE_CATEGORIES: Dict[str, PhaseCategory] = {
    "candidate_locating": PhaseCategory.STRUCTURE,
    "neighborhood_exploration": PhaseCategory.STRUCTURE,
    "bulk_distance": PhaseCategory.DISTANCE,
    "lazy_check": PhaseCategory.STRUCTURE,
    "sorting": PhaseCategory.STRUCTURE,
    "candidate_update": PhaseCategory.STRUCTURE,
    "candidates_locating": PhaseCategory.STRUCTURE,
    "structures_updating": PhaseCategory.STRUCTURE,
}

LaneSelector = Union[None, np.ndarray]


class CycleTracker:
    """Accumulates simulated cycles per phase across a set of lanes.

    Args:
        n_lanes: Number of independent lanes (e.g. queries, one thread block
            each).  ``1`` gives scalar accounting.
    """

    def __init__(self, n_lanes: int = 1):
        if n_lanes <= 0:
            raise ConfigurationError(
                f"CycleTracker n_lanes must be positive, got {n_lanes}"
            )
        self._n_lanes = int(n_lanes)
        self._phases: Dict[str, np.ndarray] = {}

    @property
    def phase_names(self) -> Iterable[str]:
        """Names of all phases that have been charged at least once."""
        return tuple(self._phases)

    def category_of(self, phase: str) -> PhaseCategory:
        """Category of ``phase`` (:attr:`PhaseCategory.OTHER` if unknown)."""
        return _PHASE_CATEGORIES.get(phase, PhaseCategory.OTHER)

    def charge(self, phase: str, cycles: Union[float, np.ndarray],
               lanes: LaneSelector = None) -> None:
        """Add ``cycles`` to ``phase``.

        Args:
            phase: Phase name (free-form; the phases in the category
                table get their category in breakdowns).
            cycles: Scalar, or an array matching the selected lanes.
            lanes: ``None`` to charge every lane; a boolean mask of length
                ``n_lanes``; or an integer index array.
        """
        bucket = self._phases.get(phase)
        if bucket is None:
            bucket = np.zeros(self._n_lanes, dtype=np.float64)
            self._phases[phase] = bucket
        if lanes is None:
            bucket += cycles
            return
        lanes = np.asarray(lanes)
        if lanes.dtype == bool and lanes.shape != (self._n_lanes,):
            raise ConfigurationError(
                f"boolean lane mask must have shape ({self._n_lanes},), "
                f"got {lanes.shape}"
            )
        bucket[lanes] += cycles

    # ------------------------------------------------------------------
    # Readout
    # ------------------------------------------------------------------

    def lane_cycles(self, phase: Optional[str] = None) -> np.ndarray:
        """Per-lane cycle totals for one phase (or all phases summed)."""
        if phase is not None:
            bucket = self._phases.get(phase)
            if bucket is None:
                return np.zeros(self._n_lanes, dtype=np.float64)
            return bucket.copy()
        total = np.zeros(self._n_lanes, dtype=np.float64)
        for bucket in self._phases.values():
            total += bucket
        return total

    def total_cycles(self, phase: Optional[str] = None) -> float:
        """Sum of cycles across all lanes for one phase (or all)."""
        return float(self.lane_cycles(phase).sum())

    def phase_totals(self) -> Dict[str, float]:
        """Mapping of phase name to total cycles across lanes."""
        return {name: float(bucket.sum())
                for name, bucket in self._phases.items()}

    def category_totals(self) -> Dict[PhaseCategory, float]:
        """Total cycles per :class:`PhaseCategory` across lanes."""
        totals: Dict[PhaseCategory, float] = {}
        for name, bucket in self._phases.items():
            category = self.category_of(name)
            totals[category] = totals.get(category, 0.0) + float(bucket.sum())
        return totals

    def breakdown(self) -> Dict[str, float]:
        """Fractional share of total cycles per phase (sums to 1.0)."""
        totals = self.phase_totals()
        grand = sum(totals.values())
        if grand <= 0.0:
            return {name: 0.0 for name in totals}
        return {name: value / grand for name, value in totals.items()}

    def take(self, lanes: np.ndarray) -> "CycleTracker":
        """A tracker over the selected lanes only, in ``lanes`` order.

        Phases keep their order, so every readout of the result equals
        that of a tracker the same lanes had been charged on alone.
        ``lanes`` is an integer index array; a lane may repeat.
        """
        lanes = np.asarray(lanes, dtype=np.int64)
        taken = CycleTracker(len(lanes))
        taken._phases = {name: bucket[lanes]
                         for name, bucket in self._phases.items()}
        return taken
