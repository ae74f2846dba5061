"""SONG: the state-of-the-art GPU proximity-graph search (Section II-D).

SONG keeps Algorithm 1's data structures — a bounded candidate queue
``C``, a bounded result queue ``N`` and a visited hash ``H`` over
``N ∪ C`` — and decomposes each iteration into three stages:

1. *candidates locating* — the host thread pops the best candidate,
   compares it against the worst result, and walks the popped vertex's
   neighbors one by one, probing the hash to keep only unvisited ones;
2. *bulk distance computation* — the block's threads cooperate on the
   distances of the recorded candidates (the only parallel stage);
3. *data structures updating* — the host thread pushes each computed
   candidate back into the bounded queue and the hash, sequentially.

Stages 1 and 3 run on a single "host thread" per block — the execution
dependency the paper identifies as SONG's bottleneck — so their cycle
charges deliberately do not divide by ``n_t``.

Here SONG is Algorithm 1's traversal priced by SONG's host-thread clock:
:func:`song_search` is one :func:`~repro.baselines.beam.beam_search_lanes`
call at beam width ``pq_bound``, charged per lane from its counters by
the stage formulas of :mod:`repro.gpusim.costs`, which price SONG's
min-max heap and hash.  SONG's own loop (``tests/oracles/song_loop.py``)
bounds ``C`` at ``pq_bound`` and so rejects candidates Algorithm 1
keeps: without distance ties that changes at most one stopping pop,
where SONG's ``C`` runs dry first; a tie at ``N``'s worst can part the
traversals (the catalog's stand-ins have unique, non-integer rows).
The visited markings that change the traversal run in
:func:`repro.baselines.visited.song_visited_ablation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.baselines.beam import beam_search_lanes
from repro.core.ganns import check_queries
from repro.core.results import SearchReport
from repro.errors import ConfigurationError
from repro.graphs.adjacency import ProximityGraph
from repro.gpusim.costs import DEFAULT_COSTS
from repro.gpusim.memory import SharedMemoryBudget
from repro.gpusim.tracker import CycleTracker


@dataclass(frozen=True)
class SongParams:
    """Parameters of one SONG search invocation.

    Attributes:
        k: Neighbors returned per query.
        pq_bound: Bound of the candidate/result priority queues — SONG's
            accuracy/efficiency knob, the counterpart of GANNS's ``l_n``.
        n_threads: Threads per block; only the bulk-distance stage
            benefits from them.
    """

    k: int = 10
    pq_bound: int = 64
    n_threads: int = 32

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ConfigurationError(f"k must be positive, got {self.k}")
        if self.pq_bound < self.k:
            raise ConfigurationError(
                f"pq_bound ({self.pq_bound}) must be >= k ({self.k})"
            )
        if self.n_threads <= 0:
            raise ConfigurationError(
                f"n_threads must be positive, got {self.n_threads}"
            )


def song_search(graph: ProximityGraph, points: np.ndarray,
                queries: np.ndarray, params: SongParams,
                entry: Union[int, np.ndarray] = 0) -> SearchReport:
    """Run SONG's search for a batch of queries — Algorithm 1 at beam
    width ``pq_bound`` — priced on the default cost table (shared with
    GANNS).

    Per lane, with ``b = pq_bound``: each iteration is an extract and
    compare (``song_locate_cycles(0, b)``), each scanned neighbor a hash
    probe (``n_hash_probes`` counts the entry too), each distance but
    the entry's a push (``song_update_cycles(1, b)``) and each distance
    a block-wide evaluation.  The cost constants are integers, so these
    products equal SONG's per-iteration sums exactly.

    Args:
        graph: Proximity graph over ``points``.
        points: ``(n, d)`` data matrix.
        queries: ``(m, d)`` query matrix.
        params: SONG parameters.
        entry: Start vertex, or per-query ``(m,)`` id array.

    Returns:
        A :class:`repro.core.results.SearchReport` with
        ``algorithm == "song"``.
    """
    points, queries = np.asarray(points), np.asarray(queries)
    entries = check_queries(points, queries, graph, entry, params.k)
    lanes = beam_search_lanes(graph, points, queries, params.k,
                              ef=params.pq_bound, entries=entries)
    costs, bound, n_dims = DEFAULT_COSTS, params.pq_bound, queries.shape[1]
    n_distances = lanes.n_distance_computations
    tracker = CycleTracker(len(queries))
    # Stage 2 first: SONG's first charge is the entry's distance.
    tracker.charge("bulk_distance", n_distances
                   * costs.single_distance_cycles(n_dims, params.n_threads))
    tracker.charge("candidates_locating",
                   lanes.n_iterations * costs.song_locate_cycles(0, bound)
                   + (lanes.n_hash_probes - 1)
                   * (costs.hash_probe_cycles + costs.alu_cycles))
    tracker.charge("structures_updating",
                   (n_distances - 1) * costs.song_update_cycles(1, bound))

    return SearchReport(
        algorithm="song", ids=lanes.ids, dists=lanes.dists,
        tracker=tracker, n_threads=params.n_threads,
        # The query and the cand/dist arrays (Section II-D); N, C and H
        # live in local memory.
        shared_mem_bytes=SharedMemoryBudget(
            l_n=0, l_t=0, query_dims=n_dims,
            scratch_entries=graph.d_max).total_bytes(),
        iterations=lanes.n_iterations,
        n_distance_computations=int(n_distances.sum()))
