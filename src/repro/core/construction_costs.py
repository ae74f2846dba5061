"""The two clocks that price Algorithm 2.

``repro.core.construction`` is the only executable statement of
GGraphCon.  It never computes a time itself: it reports its work to a
*clock* — beam traversals (:meth:`search`), brute-force scans of ``n``
candidates (:meth:`scan`), bidirectional links (:meth:`link`), the
forward ``N ∪ N'`` merges of a group (:meth:`forward_merge`), "the open
working units ran in parallel" (:meth:`launch`) and the backward-edge
sort + scan + per-segment row merges (:meth:`backward_merge`).  The
working units are opened with :meth:`units`: one per local graph in
Phase 1, one per vertex in a Phase-2 merge iteration — the Section IV-B
portability remark ("each working unit can be individually responsible
for the construction of one local graph and the search of nearest
neighbors of one point").  :meth:`search`, :meth:`scan` and :meth:`link`
take the work of many distinct units in one call (a lock-step step's
lanes), priced unit by unit with the same arithmetic, so each unit
accumulates exactly what one call per unit would give it.  Two pricing
models exist, so two clocks do:

**:class:`GpuClock`** — a working unit is a thread block; time is cycles.

- A traversal is priced by :func:`price_search` under the chosen search
  kernel.  The two kernels traverse the graph the same way (the paper
  shows GANNS follows the same search path), so the traversal runs once
  (the counted CPU beam search, exact about iterations, neighbor scans
  and fresh-candidate counts) and only its price differs: GANNS computes
  a distance for *every* scanned neighbor (lazy check) but runs all
  structure phases in parallel; SONG computes distances only for
  *unvisited* neighbors (hash check) but serialises stages 1 and 3 on
  the host thread.
- A scan of ``n`` candidates is a traversal of ``n`` iterations that
  scans and computes ``n`` neighbors; a link is two sorted adjacency
  inserts; a forward merge is one bitonic merge of two ``d_min`` runs.
- Parallel units are blocks of one launch: elapsed time is the LPT
  makespan over the device's resident-block concurrency.  The backward
  edges cost a grid-wide bitonic sort + prefix sum, then one block per
  CSR segment.
- Seconds split into distance / structure by each launch's cycle mix
  (Figure 14's two series).

**:class:`CpuClock`** — a working unit is a job on one of ``n_cores``
cores; time is :meth:`repro.baselines.cpu_cost.CpuModel.seconds` of the
unit's :class:`~repro.baselines.cpu_cost.CpuOpCounters`.

- One core running one group *is* the sequential baseline
  (:func:`repro.baselines.nsw_cpu.build_nsw_cpu`, Table II's
  GraphCon_NSW), priced by the classical CPU rule: a traversal costs
  its distance computations, heap operations and hash probes; a scan of
  ``n`` candidates costs ``n`` distances and no probes; a link costs the
  recomputed link distance plus two adjacency inserts; a forward merge
  and a backward-edge merge cost one adjacency insert per record.
- Parallel units spread over the cores by the same LPT makespan; the
  backward-edge sort + scan + merges run on one core (a sliver of the
  phase — parallelising them would not change its shape).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.baselines.beam import BeamLanes
from repro.baselines.cpu_cost import CpuModel, CpuOpCounters
from repro.core.params import BuildParams
from repro.core.results import ConstructionReport
from repro.errors import ConfigurationError
from repro.gpusim.costs import DEFAULT_COSTS
from repro.gpusim.device import DeviceSpec
from repro.gpusim.kernel import KernelLaunch, _makespan
from repro.gpusim.tracker import PhaseCategory


VALID_KERNELS = ("ganns", "song")


@dataclass(frozen=True)
class SearchCycleCharge:
    """Cycles of one construction-time search, split by category."""

    distance_cycles: float
    structure_cycles: float


def price_search(kernel: str, result: BeamLanes,
                 l_n: int, l_t: int, n_dims: int, n_threads: int,
                 pq_bound: int) -> SearchCycleCharge:
    """Price traversals under a search kernel's cost model.

    Args:
        kernel: ``"ganns"`` or ``"song"``.
        result: Counted traversals, one per lane (iterations, scans,
            fresh candidates), priced lane by lane into arrays; scalar
            counters price one traversal.
        l_n: GANNS pool length used during construction searches.
        l_t: Neighbor-buffer length (the graph's ``d_max``).
        n_dims: Point dimensionality.
        n_threads: Threads per block.
        pq_bound: SONG's queue bound (the construction ``ef``).

    Returns:
        A :class:`SearchCycleCharge`.
    """
    if kernel not in VALID_KERNELS:
        raise ConfigurationError(
            f"unknown search kernel {kernel!r}; valid kernels: "
            f"{', '.join(VALID_KERNELS)}"
        )
    costs = DEFAULT_COSTS
    per_vector = costs.single_distance_cycles(n_dims, n_threads)
    n_scanned = result.n_hash_probes
    n_fresh = result.n_distance_computations
    n_iter = np.maximum(result.n_iterations, 1)

    if kernel == "ganns":
        structure = n_iter * costs.ganns_structure_cycles(l_n, l_t,
                                                          n_threads)
        distance = n_scanned * per_vector + per_vector  # + entry vertex
        return SearchCycleCharge(distance_cycles=distance,
                                 structure_cycles=structure)

    # SONG: host-thread serialized locate + update, hash-filtered distance.
    log_bound = math.ceil(math.log2(max(pq_bound, 2)))
    locate = (n_iter * costs.heap_op_cycles * log_bound
              + n_scanned * (costs.hash_probe_cycles + costs.alu_cycles))
    update = n_fresh * (costs.host_insert_cycles * log_bound
                        + costs.hash_probe_cycles)
    distance = n_fresh * per_vector + per_vector
    return SearchCycleCharge(distance_cycles=distance,
                             structure_cycles=locate + update)


class GpuClock:
    """Algorithm 2's work priced in simulated-GPU cycles (module docstring).

    Args:
        params: Build parameters (degree bounds, beam widths, threads).
        search_kernel: ``"ganns"`` or ``"song"``.
        n_dims: Point dimensionality.
        device: Simulated device.
    """

    def __init__(self, params: BuildParams, search_kernel: str, n_dims: int,
                 device: DeviceSpec) -> None:
        n_t = params.n_threads
        self.kernel = KernelLaunch(device, n_t)
        self.phase_seconds: Dict[str, float] = {}
        self.category_seconds: Dict[PhaseCategory, float] = {
            PhaseCategory.DISTANCE: 0.0,
            PhaseCategory.STRUCTURE: 0.0,
        }
        self.seconds = 0.0
        self._d_max = params.d_max
        self._search_kernel = search_kernel
        self._search_shape = (params.effective_search_l_n, params.d_max,
                              n_dims, n_t, params.effective_ef)
        self._insert_cycles = DEFAULT_COSTS.backward_insert_cycles(
            params.d_max, n_t)
        self._forward_merge_cycles = DEFAULT_COSTS.ganns_merge_cycles(
            params.d_min, params.d_min, n_t)
        self._merge_cycles = np.empty(0)

    def add(self, phase: str, seconds: float, distance_cycles: float,
            structure_cycles: float) -> None:
        """Record a launch, splitting its time by the cycle mix."""
        self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + seconds
        self.seconds += seconds
        mix = distance_cycles + structure_cycles
        if mix > 0:
            self.category_seconds[PhaseCategory.DISTANCE] += (
                seconds * distance_cycles / mix)
            self.category_seconds[PhaseCategory.STRUCTURE] += (
                seconds * structure_cycles / mix)
        else:
            self.category_seconds[PhaseCategory.STRUCTURE] += seconds

    def units(self, n_units: int) -> None:
        """Open ``n_units`` parallel working units (thread blocks)."""
        self._distance = np.zeros(n_units)
        self._structure = np.zeros(n_units)

    def search(self, units: np.ndarray, traversals: BeamLanes) -> None:
        """Distinct ``units[i]`` ran lane ``i``'s beam traversal (one
        traversal's counters apply to every unit)."""
        charge = price_search(self._search_kernel, traversals,
                              *self._search_shape)
        self._distance[units] += charge.distance_cycles
        self._structure[units] += charge.structure_cycles

    def scan(self, units: np.ndarray, n_candidates) -> None:
        """Each of ``units`` scanned ``n_candidates`` points (one count,
        or one per unit) by brute force."""
        self.search(units, BeamLanes(
            ids=np.empty((0, 0), dtype=np.int64), dists=np.empty((0, 0)),
            n_iterations=np.maximum(n_candidates, 1),
            n_distance_computations=n_candidates,
            n_heap_ops=0, n_hash_probes=n_candidates))

    def link(self, units: np.ndarray, counts: np.ndarray) -> None:
        """Distinct ``units[i]`` linked a vertex to ``counts[i]``
        neighbors, both ways."""
        # insert_cycles is integral, so the product is exact.
        self._structure[units] += counts * 2 * self._insert_cycles

    def forward_merge(self, counts: np.ndarray) -> None:
        """Every unit merged its search result with ``v.N'``."""
        self._structure += self._forward_merge_cycles

    def launch(self, phase: str) -> None:
        """The open units ran in parallel: one launch, one block each."""
        launch = self.kernel.run(self._distance + self._structure)
        self.add(phase, launch.seconds, float(self._distance.sum()),
                 float(self._structure.sum()))

    def backward_merge(self, segment_lengths: np.ndarray,
                       grid_blocks: int) -> None:
        """``E`` was sorted and scanned into CSR segments over a grid of
        ``grid_blocks`` blocks, then one block per segment merged it
        into its adjacency row."""
        costs, n_t = DEFAULT_COSTS, self.kernel.n_threads
        n_edges = int(segment_lengths.sum())
        grid_threads = grid_blocks * n_t
        cycles = (costs.bitonic_sort_cycles(n_edges, grid_threads)
                  + costs.prefix_sum_cycles(n_edges, grid_threads))
        self.add("merge_gather_scatter",
                 self.kernel.cycles_to_seconds(cycles), 0.0, cycles)
        longest = int(segment_lengths.max())
        if longest >= len(self._merge_cycles):
            # Each segment length is priced once per clock.
            self._merge_cycles = np.array([
                costs.adjacency_merge_cycles(self._d_max, length, n_t)
                for length in range(longest + 1)])
        segment_cycles = self._merge_cycles[segment_lengths]
        launch = self.kernel.run(segment_cycles)
        self.add("merge_update", launch.seconds, 0.0,
                 float(segment_cycles.sum()))


class CpuClock:
    """Algorithm 2's work priced on ``n_cores`` CPU cores (module docstring).

    Args:
        n_cores: Worker cores the parallel units spread over.
        cpu: Per-core timing model.
        flops_per_distance: FLOPs of one distance at the workload's
            dimensionality.
    """

    def __init__(self, n_cores: int, cpu: CpuModel,
                 flops_per_distance: int) -> None:
        self.phase_seconds: Dict[str, float] = {"local_construction": 0.0,
                                                "merge": 0.0}
        self.category_seconds: Dict[PhaseCategory, float] = {}
        self._n_cores = n_cores
        self._cpu = cpu
        self._flops = flops_per_distance

    @property
    def seconds(self) -> float:
        """Total elapsed seconds."""
        return sum(self.phase_seconds.values())

    def _add(self, phase: str, seconds: float) -> None:
        # The three merge steps of the body are one CPU phase.
        key = phase if phase in self.phase_seconds else "merge"
        self.phase_seconds[key] += seconds

    def units(self, n_units: int) -> None:
        """Open ``n_units`` parallel working units (jobs for the cores);
        their counters are arrays indexed by unit."""
        self._units = CpuOpCounters(
            *(np.zeros(n_units, dtype=np.int64) for _ in range(4)))

    def search(self, units: np.ndarray, traversals: BeamLanes) -> None:
        """Distinct ``units[i]`` ran lane ``i``'s beam traversal."""
        counters = self._units
        counters.n_distances[units] += traversals.n_distance_computations
        counters.n_heap_ops[units] += traversals.n_heap_ops
        counters.n_hash_probes[units] += traversals.n_hash_probes

    def scan(self, units: np.ndarray, n_candidates) -> None:
        """Each of ``units`` scanned ``n_candidates`` points (one count,
        or one per unit) by brute force."""
        self._units.n_distances[units] += n_candidates

    def link(self, units: np.ndarray, counts: np.ndarray) -> None:
        """Distinct ``units[i]`` linked a vertex to ``counts[i]``
        neighbors, both ways."""
        counters = self._units
        counters.n_distances[units] += counts
        counters.n_adjacency_inserts[units] += 2 * counts

    def forward_merge(self, counts: np.ndarray) -> None:
        """Every unit merged its search result with ``v.N'`` into a row
        of ``counts[unit]`` records."""
        self._units.n_adjacency_inserts += counts

    def launch(self, phase: str) -> None:
        """The open units ran in parallel: LPT over the cores."""
        # CpuModel.seconds is elementwise arithmetic: over unit arrays it
        # prices every unit exactly as it prices one.
        seconds = self._cpu.seconds(self._units, self._flops)
        self._add(phase, _makespan(seconds, self._n_cores))

    def backward_merge(self, segment_lengths: np.ndarray,
                       grid_blocks: int) -> None:
        """One core merged every backward edge into its row."""
        merges = CpuOpCounters(
            n_adjacency_inserts=int(segment_lengths.sum()))
        self._add("merge_update",
                  self._cpu.seconds(merges, flops_per_distance=0))


def report_from_clock(clock, algorithm: str, graph, n_points: int,
                      details: Dict[str, float]) -> ConstructionReport:
    """A :class:`ConstructionReport` carrying ``clock``'s elapsed times."""
    return ConstructionReport(
        algorithm=algorithm, graph=graph, seconds=clock.seconds,
        phase_seconds=clock.phase_seconds,
        category_seconds=clock.category_seconds, n_points=n_points,
        details=details)
