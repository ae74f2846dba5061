"""Visited-vertex marking strategies (the Section III-A design space).

Before settling on *lazy check*, the paper weighs the ways a GPU search
can remember which vertices it has seen:

- an **open-addressing hash table** — what SONG ships; compact, but its
  probes serialise on the host thread;
- a **bloom filter** — SONG's alternative for low memory; false
  positives silently *drop* candidates;
- a **bitmap** — trivially parallel, "but this is not efficient on the
  GPU because of the high latency of the random memory accesses involved
  in the warp threads and the limited on-chip memory": one bit per
  vertex cannot fit in shared memory for million-point datasets.

:mod:`repro.baselines.song` prices SONG's hash by formula.  This module
builds the alternatives (and SONG's hash under visited deletion) with
per-operation cycle charges, and :func:`song_visited_ablation` runs
SONG's search under them, so the ablation benchmark can reproduce the
paper's argument quantitatively.
"""

from __future__ import annotations

import abc
from bisect import insort
from typing import List, Optional, Tuple

import numpy as np

from repro.baselines.song import SongParams
from repro.core.ganns import check_queries
from repro.core.results import SearchReport
from repro.errors import ConfigurationError
from repro.graphs.adjacency import ProximityGraph
from repro.gpusim.costs import DEFAULT_COSTS
from repro.gpusim.memory import SharedMemoryBudget
from repro.gpusim.tracker import CycleTracker


class VisitedSet(abc.ABC):
    """Interface: mark vertices as visited and query membership.

    Implementations accumulate the simulated cycle cost of their own
    operations in :attr:`cycles`; membership answers are exact or
    one-sided approximate depending on the structure.
    """

    def __init__(self):
        #: Accumulated simulated cycles of all probe/insert operations.
        self.cycles = 0.0

    @abc.abstractmethod
    def add(self, vertex: int) -> None:
        """Mark ``vertex`` visited."""

    @abc.abstractmethod
    def __contains__(self, vertex: int) -> bool:
        """Whether ``vertex`` is (believed to be) visited."""

    @abc.abstractmethod
    def memory_bytes(self) -> int:
        """On-chip memory footprint of the structure."""


class BloomFilter(VisitedSet):
    """A counting-free bloom filter over vertex ids.

    One-sided error: a membership answer of True may be wrong (false
    positive), which makes the *search* silently skip a genuinely new
    candidate — the accuracy hazard the paper notes.
    """

    def __init__(self, n_bits: int, n_hashes: int = 3):
        super().__init__()
        if n_bits <= 0:
            raise ConfigurationError(
                f"bloom filter size must be positive, got {n_bits}"
            )
        if n_hashes <= 0:
            raise ConfigurationError(
                f"bloom filter needs at least one hash, got {n_hashes}"
            )
        self._bits = np.zeros(n_bits, dtype=bool)
        self._n_hashes = n_hashes

    def _positions(self, vertex: int) -> np.ndarray:
        positions = np.empty(self._n_hashes, dtype=np.int64)
        h = np.int64(vertex)
        for i in range(self._n_hashes):
            h = np.int64((int(h) * 0x9E3779B1 + i * 0x85EBCA77)
                         & 0x7FFFFFFF)
            positions[i] = int(h) % len(self._bits)
        return positions

    def add(self, vertex: int) -> None:
        self._bits[self._positions(vertex)] = True
        self.cycles += self._n_hashes * DEFAULT_COSTS.hash_probe_cycles

    def __contains__(self, vertex: int) -> bool:
        self.cycles += self._n_hashes * DEFAULT_COSTS.hash_probe_cycles
        return bool(self._bits[self._positions(vertex)].all())

    def memory_bytes(self) -> int:
        # One bit per entry; the numpy bool array is the simulation's
        # stand-in for the packed words.
        return (len(self._bits) + 7) // 8


class Bitmap(VisitedSet):
    """One bit per vertex in (simulated) off-chip memory.

    Parallel and exact, but each touch is a random global-memory access
    (charged at full latency) and the footprint is ``n/8`` bytes — the
    two reasons Section III-A rejects it.
    """

    #: Cycles of one random global-memory access (uncoalesced).
    RANDOM_ACCESS_CYCLES = 380.0

    def __init__(self, n_vertices: int):
        super().__init__()
        if n_vertices <= 0:
            raise ConfigurationError(
                f"bitmap needs a positive vertex count, got {n_vertices}"
            )
        self._bits = np.zeros(n_vertices, dtype=bool)

    def add(self, vertex: int) -> None:
        self._bits[vertex] = True
        self.cycles += self.RANDOM_ACCESS_CYCLES

    def __contains__(self, vertex: int) -> bool:
        self.cycles += self.RANDOM_ACCESS_CYCLES
        return bool(self._bits[vertex])

    def memory_bytes(self) -> int:
        return (len(self._bits) + 7) // 8


class _DeletingHash(VisitedSet):
    """SONG's hash under visited deletion, holding exactly ``N ∪ C``:
    one probe per access, as the stage formulas charge."""

    def __init__(self):
        super().__init__()
        self._members = set()

    def add(self, vertex: int) -> None:
        self._members.add(vertex)
        self.cycles += DEFAULT_COSTS.hash_probe_cycles

    def discard(self, vertex: int) -> None:
        self._members.discard(vertex)

    def __contains__(self, vertex: int) -> bool:
        self.cycles += DEFAULT_COSTS.hash_probe_cycles
        return vertex in self._members

    def memory_bytes(self) -> int:
        return 4 * len(self._members)


def make_visited_set(strategy: str, n_vertices: int,
                     budget: int) -> VisitedSet:
    """Factory over the visited markings SONG's ablation runs under.

    Args:
        strategy: ``"bloom"``, ``"bitmap"`` or ``"deletion"`` (SONG's
            hash under visited deletion).
        n_vertices: Total vertices in the graph (bitmap sizing).
        budget: Expected number of visited vertices (bloom sizing).

    The Bloom filter gets ``8 * budget`` bits (at least 64).
    """
    if strategy == "bloom":
        return BloomFilter(n_bits=max(8 * budget, 64))
    if strategy == "bitmap":
        return Bitmap(n_vertices=n_vertices)
    if strategy == "deletion":
        return _DeletingHash()
    raise ConfigurationError(
        f"unknown visited strategy {strategy!r}; valid: bloom, bitmap, "
        f"deletion"
    )


def _push_bounded(queue: List[Tuple[float, int]], key: Tuple[float, int],
                  bound: int) -> Tuple[bool, Optional[Tuple[float, int]]]:
    """Insert ``key`` into SONG's ``C``, an ascending ``queue`` of at most
    ``bound`` keys: a full one rejects a key no better than its worst,
    else evicts it.  Returns whether ``key`` went in, and the evicted."""
    evicted = None
    if len(queue) >= bound:
        if key >= queue[-1]:
            return False, None
        evicted = queue.pop()
    insort(queue, key)
    return True, evicted


def song_visited_ablation(graph: ProximityGraph, points: np.ndarray,
                          queries: np.ndarray, params: SongParams,
                          marking: str) -> SearchReport:
    """SONG's three-stage search from vertex 0 with ``H`` a
    :func:`make_visited_set` ``marking`` — the Section III-A ablation.

    SONG's per-query loop over ascending ``(dist, id)`` lists ``C`` and
    ``N`` bounded at ``pq_bound``: stage 1 pays an extract and compare
    plus an ALU step per neighbor, stage 3 a sift per insert, and ``H``
    its own accesses.  Bloom false positives drop candidates, the exact
    bitmap walks Algorithm 1's path, and deletion revisits what the
    bounded queues reject or evict."""
    points, queries = np.asarray(points), np.asarray(queries)
    check_queries(points, queries, graph, 0, params.k)
    n_queries, n_dims = queries.shape
    metric, bound, costs = graph.metric, params.pq_bound, DEFAULT_COSTS
    deleting = marking == "deletion"
    tracker = CycleTracker(n_queries)
    ids_out = np.full((n_queries, params.k), -1, dtype=np.int64)
    dists_out = np.full((n_queries, params.k), np.inf)
    iterations = np.zeros(n_queries, dtype=np.int64)
    n_distance_computations = n_queries
    per_vector_cost = costs.single_distance_cycles(n_dims, params.n_threads)
    sift = costs.song_update_cycles(1, bound) - costs.hash_probe_cycles

    for row in range(n_queries):
        query = queries[row]
        visited = make_visited_set(marking, graph.n_vertices, 4 * bound)
        visited.add(0)
        candidates = [(float(metric.one_to_many(query, points[:1])[0]), 0)]
        results = []
        locate_cycles = update_cycles = 0.0
        distance_cycles = per_vector_cost
        while candidates:
            iterations[row] += 1
            # Stage 1 — candidates locating (host thread).
            cand_dist, cand_id = candidates.pop(0)
            if len(results) == bound and cand_dist > results[-1][0]:
                locate_cycles += costs.song_locate_cycles(0, bound)
                break
            insort(results, (cand_dist, cand_id))
            if len(results) > bound:
                dropped = results.pop()[1]
                if deleting:
                    visited.discard(dropped)
            degree = int(graph.degrees[cand_id])
            before = visited.cycles
            fresh = [int(u) for u in graph.neighbor_ids[cand_id, :degree]
                     if int(u) not in visited]
            locate_cycles += (costs.song_locate_cycles(0, bound)
                              + degree * costs.alu_cycles
                              + visited.cycles - before)
            if not fresh:
                continue
            # Stage 2 — bulk distance computation (parallel threads).
            dists = metric.one_to_many(query, points[np.asarray(fresh)])
            distance_cycles += len(fresh) * per_vector_cost
            n_distance_computations += len(fresh)
            # Stage 3 — data structures updating (host thread).
            before = visited.cycles
            for u, dist in zip(fresh, dists):
                visited.add(u)
                inserted, evicted = _push_bounded(
                    candidates, (float(dist), u), bound)
                if deleting and (evicted or not inserted):
                    visited.discard(evicted[1] if inserted else u)
            update_cycles += len(fresh) * sift + visited.cycles - before

        lane = np.asarray([row])
        tracker.charge("bulk_distance", distance_cycles, lane)
        tracker.charge("candidates_locating", locate_cycles, lane)
        tracker.charge("structures_updating", update_cycles, lane)
        for col, (dist, vertex) in enumerate(results[:params.k]):
            dists_out[row, col], ids_out[row, col] = dist, vertex

    return SearchReport(
        algorithm="song", ids=ids_out, dists=dists_out, tracker=tracker,
        n_threads=params.n_threads,
        shared_mem_bytes=SharedMemoryBudget(
            l_n=0, l_t=0, query_dims=n_dims,
            scratch_entries=graph.d_max).total_bytes(),
        iterations=iterations,
        n_distance_computations=n_distance_computations)
