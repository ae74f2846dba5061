"""GGraphCon: divide-and-conquer GPU NSW construction (Algorithm 2).

The two straightforward schemes both fail (Section IV-A): sequential
insertion wastes all inter-block parallelism, and naive batch-parallel
insertion ignores links between points of the same batch and ruins graph
quality.  GGraphCon gets both properties at once:

- **Phase 1 — local graph construction.**  The points are partitioned into
  ``t + 1`` equal groups; each group builds its own small NSW graph inside
  one thread block (sequential within the block, all blocks in parallel).
  Each point's search results are recorded twice: in the graph ``G`` and in
  ``G'`` (``v.N'``), the *forward* neighbors among earlier points of the
  same group.

- **Phase 2 — local graph merge.**  The remaining ``t`` local graphs merge
  into ``G_0`` one after another.  For group ``P_i``: (step 1) every vertex
  searches ``d_min`` neighbors against the current ``G_0`` — one block per
  vertex, all in parallel — and merges them with its saved ``v.N'`` to form
  its final forward edges; the implied backward edges go into an edge list
  ``E``.  (Step 2) ``E`` is bitonic-sorted by starting vertex and turned
  into CSR segments with a flag + prefix-sum pass.  (Step 3) each starting
  vertex's segment is bitonic-merged into its adjacency row, best ``d_max``
  kept.

With exact neighbor search the result provably equals the sequentially
inserted NSW graph (Section IV-C); the test suite verifies that theorem,
and Figure 12's benchmark shows the approximate-search quality match.

The host runs the blocks the way the device does, side by side: each
Phase-1 step searches the next point of every group, and each Phase-2
merge iteration all of its group's points, in one
:func:`~repro.baselines.beam.beam_search_lanes` call — every lane the
exact traversal a one-query Algorithm 1 search would make.  Several
corpora ("parts") build side by side the same way, each byte-equal to
its solo build (:func:`ggraphcon`).
"""

from __future__ import annotations

from dataclasses import fields
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.beam import BeamLanes, beam_search_lanes
from repro.core.construction_costs import GpuClock, report_from_clock
from repro.core.params import BuildParams, as_count
from repro.core.results import ConstructionReport
from repro.errors import ConstructionError
from repro.graphs.adjacency import PAD_DIST, PAD_ID, ProximityGraph
from repro.gpusim.device import DeviceSpec, QUADRO_P5000
from repro.gpusim.scan import csr_offsets_from_sorted_ids
from repro.metrics.distance import Metric, get_metric
from repro.perf.construction import (
    insert_bidirectional_batch,
    merge_forward_batch,
    merge_segments_batch,
)


def validated_points(points: np.ndarray) -> np.ndarray:
    """``points`` as an array, or :class:`ConstructionError` if it is not
    a non-empty 2-D matrix of finite real values (naming the dtype, or
    the first bad row).  Integer and bool corpora are real data.

    The one corpus check every graph builder runs.
    """
    points = np.asarray(points)
    if points.dtype.kind not in "biuf":
        raise ConstructionError(
            f"points must hold real numbers, got dtype {points.dtype}")
    if points.ndim != 2 or len(points) == 0:
        raise ConstructionError(
            f"points must be a non-empty 2-D matrix, got shape {points.shape}"
        )
    row = first_non_finite_row(points)
    if row >= 0:
        raise ConstructionError(non_finite_message(row))
    return points


def first_non_finite_row(points: np.ndarray) -> int:
    """The first row of the 2-D ``points`` holding NaN or inf, or -1."""
    finite = np.isfinite(points).all(axis=1)
    return -1 if finite.all() else int(np.argmin(finite))


def non_finite_message(row: int) -> str:
    """The refusal of a corpus whose ``row`` holds NaN or inf."""
    return f"points must be finite: row {row} holds NaN or inf"


def validated_parts(parts: Sequence[np.ndarray]) -> Tuple[np.ndarray, ...]:
    """``parts`` as a tuple of checked corpora, or
    :class:`ConstructionError`.

    Every part runs :func:`validated_points` (a failure names the part
    when there are several), and the parts must share their dimension
    and dtype: a many-part build stacks them into one matrix.
    """
    parts = tuple(parts)
    if not parts:
        raise ConstructionError("at least one part of points is required")
    checked = []
    for index, part in enumerate(parts):
        try:
            checked.append(validated_points(part))
        except ConstructionError as exc:
            if len(parts) == 1:
                raise
            raise ConstructionError(f"part {index}: {exc}") from exc
    shapes = {(part.shape[1], part.dtype.name) for part in checked}
    if len(shapes) > 1:
        raise ConstructionError(
            f"parts must share their dimension and dtype, got "
            f"{sorted(shapes)}")
    return tuple(checked)


def nearest_in_prefix(points: np.ndarray, vertex: int, prefix_end: int,
                      k: int, metric: Metric
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Exact ``k`` nearest of ``points[vertex]`` among ``points[:prefix_end]``.

    Returns ``(ids, dists)`` sorted by ``(distance, id)`` — ties break by
    id, matching the library-wide rule; fewer than ``k`` when the prefix
    is shorter.
    """
    if prefix_end == 0:
        return np.empty(0, dtype=np.int64), np.empty(0)
    dists = metric.one_to_many(points[vertex], points[:prefix_end])
    k = min(k, prefix_end)
    part = (np.argpartition(dists, k - 1)[:k] if k < prefix_end
            else np.arange(prefix_end))
    ids = part[np.lexsort((part, dists[part]))].astype(np.int64)
    return ids, dists[ids]


def _build_local_graphs(points: np.ndarray, boundaries: np.ndarray,
                        params: BuildParams, metric_obj, exact: bool,
                        clock, forward_ids: np.ndarray,
                        forward_dists: np.ndarray) -> ProximityGraph:
    """Phase 1: every group's local NSW graph, all groups side by side.

    Group ``i`` is the id range ``boundaries[i] .. boundaries[i + 1]``
    and working unit ``i`` (the groups of stacked parts follow one
    another).  Contiguous groups make the local graphs the
    block-diagonal components of one scratch graph over
    ``points[boundaries[0]:boundaries[-1]]`` (local id = id −
    ``boundaries[0]``, so ties break exactly as in a graph of the group's
    own).  Step ``j`` inserts the ``j``-th point of every group that has
    one: one lock-step search of all of them (each lane enters at its
    group's first point and stays inside its group), one link call.
    Each point's forward set ``v.N'`` (global ids) goes into
    ``forward_ids`` / ``forward_dists``.

    Returns:
        The scratch graph.
    """
    d_min = params.d_min
    ef = params.effective_ef
    base = int(boundaries[0])
    local_points = points[base:boundaries[-1]]
    starts = boundaries[:-1] - base
    sizes = np.diff(boundaries)
    scratch = ProximityGraph(len(local_points), params.d_max,
                             metric_obj.name)
    for step in range(1, int(sizes.max())):
        units = np.flatnonzero(sizes > step)
        vertices = starts[units] + step
        # Each vertex's neighbors, one row per vertex, -1 past the last.
        if exact:
            neighbor_ids = np.full((len(units), d_min), -1, dtype=np.int64)
            for row, start in enumerate(starts[units]):
                ids = nearest_in_prefix(local_points[start:], step, step,
                                        d_min, metric_obj)[0]
                neighbor_ids[row, :len(ids)] = ids + start
            clock.scan(units, step)
        elif step <= d_min:
            # Fewer points than d_min in the graph: select all of them.
            neighbor_ids = starts[units, None] + np.arange(step)
            clock.scan(units, step)
        else:
            lanes = beam_search_lanes(
                scratch, local_points, local_points[vertices], k=d_min,
                ef=ef, entries=starts[units], metric=metric_obj,
                window=int(sizes.max()))
            neighbor_ids = lanes.ids
            clock.search(units, lanes)
        found = neighbor_ids >= 0
        counts = found.sum(axis=1)
        dists = np.full(neighbor_ids.shape, np.inf)
        dists[found] = metric_obj.one_to_many_runs(
            local_points[vertices], local_points[neighbor_ids[found]], counts)
        insert_bidirectional_batch(scratch, vertices, neighbor_ids, dists)
        clock.link(units, counts)
        width = neighbor_ids.shape[1]
        forward_ids[vertices + base, :width] = np.where(
            found, neighbor_ids + base, -1)
        forward_dists[vertices + base, :width] = dists
    return scratch


class _StackedClocks:
    """The clocks of parts stacked into one id space, behind one clock.

    Part ``p`` owns rows ``offsets[p] .. offsets[p + 1]`` and merges
    over a grid of ``grid_blocks[p]`` blocks.  A launch's working units
    are numbered part after part; each part's clock is handed only its
    own units, renumbered from 0, so it sees exactly the calls of the
    part's solo build, and a part with no open unit sits the launch out.
    """

    def __init__(self, clocks: Sequence, offsets: np.ndarray,
                 grid_blocks: Sequence[int]) -> None:
        self._clocks = clocks
        self._offsets = offsets
        self._grid_blocks = grid_blocks

    def units(self, firsts: np.ndarray) -> None:
        """Open one working unit per entry of ``firsts``, the ascending
        first row of each unit (a Phase-1 group, a Phase-2 vertex)."""
        self._cuts = np.searchsorted(firsts, self._offsets)
        self._open = np.flatnonzero(np.diff(self._cuts)).tolist()
        for part in self._open:
            self._clocks[part].units(
                int(self._cuts[part + 1] - self._cuts[part]))

    def first_rows(self, group: np.ndarray):
        """Each vertex's part's first row, and the widest part: a lane
        entered there stays inside that window.  One part starts at row
        0 and spans the graph: no window, so a search may enter anywhere
        (a streaming insert's ``entry``)."""
        if len(self._clocks) == 1:
            return 0, None
        part = np.searchsorted(self._offsets, group, side="right") - 1
        return self._offsets[part], int(np.diff(self._offsets).max())

    def _route(self, rows_of, ids: np.ndarray):
        """``(clock, slice of ids, part)`` for every open part holding
        some of the ascending ``ids``; ``rows_of`` are the parts' edges
        in the ids' numbering."""
        cuts = np.searchsorted(ids, rows_of)
        for part in self._open:
            if cuts[part] < cuts[part + 1]:
                yield (self._clocks[part], slice(cuts[part], cuts[part + 1]),
                       part)

    def search(self, units: np.ndarray, traversals: BeamLanes) -> None:
        for clock, rows, part in self._route(self._cuts, units):
            clock.search(units[rows] - self._cuts[part], BeamLanes(*(
                getattr(traversals, f.name)[rows]
                for f in fields(BeamLanes))))

    def scan(self, units: np.ndarray, n_candidates) -> None:
        n_candidates = np.broadcast_to(n_candidates, units.shape)
        for clock, rows, part in self._route(self._cuts, units):
            clock.scan(units[rows] - self._cuts[part], n_candidates[rows])

    def link(self, units: np.ndarray, counts: np.ndarray) -> None:
        for clock, rows, part in self._route(self._cuts, units):
            clock.link(units[rows] - self._cuts[part], counts[rows])

    def forward_merge(self, counts: np.ndarray) -> None:
        for part in self._open:
            self._clocks[part].forward_merge(
                counts[self._cuts[part]:self._cuts[part + 1]])

    def launch(self, phase: str) -> None:
        for part in self._open:
            self._clocks[part].launch(phase)

    def backward_merge(self, sources: np.ndarray,
                       offsets: np.ndarray) -> None:
        """``E``'s CSR segments (offsets into the sorted ``sources``)
        were merged into their rows; a segment is its row's part's."""
        lengths = np.diff(offsets)
        for clock, rows, part in self._route(self._offsets,
                                             sources[offsets[:-1]]):
            clock.backward_merge(lengths[rows], self._grid_blocks[part])


def ggraphcon(parts: Sequence[np.ndarray], params: BuildParams, metric: str,
              exact: bool, clocks: Sequence
              ) -> List[Tuple[ProximityGraph, int]]:
    """Algorithm 2 over each of ``parts``, part ``p``'s work reported to
    ``clocks[p]``.

    This is the one GGraphCon body: :func:`build_nsw_gpu` runs it on a
    :class:`~repro.core.construction_costs.GpuClock`,
    :func:`repro.baselines.nsw_cpu.build_nsw_multicore` on a
    :class:`~repro.core.construction_costs.CpuClock`, and the sequential
    baseline :func:`repro.baselines.nsw_cpu.build_nsw_cpu` with one group
    on a one-core ``CpuClock`` (Phase 1 of a single group *is*
    sequential insertion) — each with one part.

    Several parts (:func:`build_nsw_gpu_parts`) run as one: stacked into
    one id space, their groups are the block-diagonal components of one
    scratch graph, so Phase-1 step ``j`` inserts the ``j``-th point of
    every group of every part in one search, and merge iteration ``i``
    merges group ``i`` of every part that has one in one
    :func:`merge_group_into_graph` call.  A lane never leaves its part's
    block, a constant id shift keeps every ``(distance, id)`` order, and
    each clock is handed only its own part's units, so every part's
    graph and clock readings equal its solo build's byte for byte.

    Returns:
        One ``(G_0, number of groups)`` per part.
    """
    metric_obj = get_metric(metric)
    d_min = params.d_min
    sizes = [len(part) for part in parts]
    offsets = np.cumsum([0] + sizes)
    # Every distance form casts its rows to float64: cast the corpus
    # once here, not each gathered block of every search.
    points = np.ascontiguousarray(
        parts[0] if len(parts) == 1 else np.concatenate(parts),
        dtype=np.float64)
    n = int(offsets[-1])

    # Partition every part into contiguous, non-empty groups (insertion
    # ids are preserved, which is what the Section IV-C proof needs).
    part_bounds = [
        offset + np.unique(np.linspace(0, size,
                                       min(params.blocks_for(size), size)
                                       + 1).astype(np.int64))
        for offset, size in zip(offsets, sizes)]
    n_groups = [len(bounds) - 1 for bounds in part_bounds]
    boundaries = np.concatenate([bounds[:-1] for bounds in part_bounds]
                                + [[n]])

    # G': forward neighbors of each vertex within its own group.
    forward_ids = np.full((n, d_min), -1, dtype=np.int64)
    forward_dists = np.full((n, d_min), np.inf, dtype=np.float64)

    # Phase 1 — local graph construction (one working unit per group).
    # Only each part's group-0 local graph outlives the phase: it seeds
    # the part's G_0; the others survive as v.N'.
    clock = _StackedClocks(clocks, offsets, n_groups)
    clock.units(boundaries[:-1])
    graph = _build_local_graphs(points, boundaries, params, metric_obj,
                                exact, clock, forward_ids, forward_dists)
    clock.launch("local_construction")
    for bounds in part_bounds:
        graph.neighbor_ids[bounds[1]:bounds[-1]] = PAD_ID
        graph.neighbor_dists[bounds[1]:bounds[-1]] = PAD_DIST
        graph.degrees[bounds[1]:bounds[-1]] = 0

    # Phase 2 — iteratively merge local graphs into G_0: iteration i
    # merges group i of every part that has one.
    for i in range(1, max(n_groups)):
        group = np.concatenate([np.arange(bounds[i], bounds[i + 1])
                                for bounds in part_bounds
                                if len(bounds) > i + 1])
        merge_group_into_graph(
            graph, points, group, forward_ids, forward_dists,
            params=params, metric_obj=metric_obj, exact=exact, clock=clock)
    graphs = [graph] if len(parts) == 1 else graph.blocks(offsets)
    return list(zip(graphs, n_groups))


def build_nsw_gpu(points: np.ndarray, params: BuildParams,
                  search_kernel: str = "ganns", metric: str = "euclidean",
                  exact: bool = False,
                  device: DeviceSpec = QUADRO_P5000) -> ConstructionReport:
    """Build an NSW graph with GGraphCon on the simulated GPU.

    Args:
        points: ``(n, d)`` float matrix; row order is insertion order.
        params: Build parameters; ``params.blocks_for(len(points))`` is
            both the group count ``t + 1`` and the grid width of the
            merge launches.
        search_kernel: ``"ganns"`` or ``"song"`` — which search kernel the
            construction uses (GGraphCon_GANNS vs GGraphCon_SONG).
        metric: Metric name.
        exact: Use exact nearest-neighbor search everywhere.  This is the
            hypothesis of the Section IV-C equivalence theorem; slower, and
            meant for tests and small inputs.
        device: Simulated device.

    Returns:
        A :class:`repro.core.results.ConstructionReport` whose ``graph``
        is the merged ``G_0``.
    """
    return build_nsw_gpu_parts((points,), params, search_kernel, metric,
                               exact, device)[0]


def build_nsw_gpu_parts(parts: Sequence[np.ndarray], params: BuildParams,
                        search_kernel: str = "ganns",
                        metric: str = "euclidean", exact: bool = False,
                        device: DeviceSpec = QUADRO_P5000
                        ) -> List[ConstructionReport]:
    """:func:`build_nsw_gpu` of every part, in one :func:`ggraphcon` run.

    Report ``p`` equals ``build_nsw_gpu(parts[p], ...)`` byte for byte —
    graph, seconds, phase and category seconds, details — while the
    parts' searches share lock-step calls.

    Raises:
        ConstructionError: When there is no part, a part is not a
            non-empty finite 2-D matrix, or the parts differ in
            dimension or dtype (:func:`validated_parts`).
    """
    parts = validated_parts(parts)
    clocks = [GpuClock(params, search_kernel, parts[0].shape[1], device)
              for _ in parts]
    return [
        report_from_clock(
            clock, f"ggraphcon-{search_kernel}", graph, len(points),
            details={
                "n_groups": float(n_groups),
                "merge_iterations": float(n_groups - 1),
                "d_min": float(params.d_min),
                "d_max": float(params.d_max),
            })
        for points, clock, (graph, n_groups)
        in zip(parts, clocks, ggraphcon(parts, params, metric, exact,
                                        clocks))]


def merge_group_into_graph(graph: ProximityGraph, points: np.ndarray,
                           group: np.ndarray, forward_ids: np.ndarray,
                           forward_dists: np.ndarray, *,
                           params: BuildParams, metric_obj, exact: bool,
                           clock, entry: Optional[int] = None,
                           exclude_mask: Optional[np.ndarray] = None
                           ) -> None:
    """Merge one local group into ``G_0`` (Algorithm 2's Phase-2 body).

    This is the three-step merge iteration shared by :func:`ggraphcon`
    (which calls it once per local graph) and :func:`insert_batch_nsw`
    (which calls it once per streaming batch):
    (step 1) every group vertex searches ``d_min`` neighbors against the
    current ``G_0`` and unions them with its saved forward set ``v.N'``,
    emitting the implied backward edges into ``E``; (step 2) ``E`` is
    bitonic-sorted and prefix-summed into CSR segments; (step 3) each
    segment bitonic-merges into its vertex's adjacency row.  The group
    may hold one group of each of several stacked parts: each vertex
    then searches its own part's ``G_0`` and its backward edges stay
    there.

    Args:
        graph: The accumulated ``G_0``; mutated in place.  Rows for
            ``group``'s vertices must already be allocated.
        points: Full ``(n, d)`` point matrix (old and group points).
        group: Global vertex ids of the group being merged, ascending.
        forward_ids: ``(n, d_min)`` forward-neighbor ids (``v.N'``),
            ``-1``-padded; only ``group``'s rows are read.
        forward_dists: Matching distances, ``inf``-padded.
        params: Build parameters (degree bounds, beam widths).
        metric_obj: Resolved metric object.
        exact: Exact-search mode (the Section IV-C theorem hypothesis).
        clock: The parts' clocks (:class:`_StackedClocks`), pricing one
            working unit per group vertex on its part's clock; see
            :mod:`repro.core.construction_costs`.
        entry: Start vertex of every step-1 search (a streaming
            insert's live entry, one part only), or ``None`` during a
            build: each vertex enters its part's first row.
        exclude_mask: Optional ``(n,)`` boolean mask of vertices that
            must never be chosen as neighbors (tombstones).  Excluded
            vertices may still route the search; they are filtered from
            its results.
    """
    d_min = params.d_min
    # A part's G_0 currently holds its rows from `first` to its first
    # group vertex.
    first, window = clock.first_rows(group)

    # Step 1 — forward-edge search against G_0 (one working unit per
    # vertex, all in one lock-step call) and backward-edge emission
    # into E.
    clock.units(group)
    units = np.arange(len(group))
    if exact:
        # Exact d_min neighbors among G_0's points only; the within-group
        # part comes from v.N', exercising the N ∪ N' merge the Section
        # IV-C proof relies on.
        first = np.broadcast_to(first, group.shape)
        prefix_ends = group[np.searchsorted(group, first)]
        search_ids = np.full((len(group), d_min), -1, dtype=np.int64)
        search_dists = np.full((len(group), d_min), np.inf)
        for row, (v, lo, hi) in enumerate(zip(group, first, prefix_ends)):
            ids, dists = nearest_in_prefix(points[lo:], v - lo, hi - lo,
                                           d_min, metric_obj)
            search_ids[row, :len(ids)] = ids + lo
            search_dists[row, :len(ids)] = dists
        clock.scan(units, prefix_ends - first)
    else:
        lanes = beam_search_lanes(
            graph, points, points[group], k=d_min, ef=params.effective_ef,
            entries=first if entry is None else entry, metric=metric_obj,
            window=window)
        search_ids, search_dists = lanes.ids, lanes.dists
        clock.search(units, lanes)
    if exclude_mask is not None:
        search_ids = np.where(exclude_mask[search_ids] & (search_ids >= 0),
                              -1, search_ids)

    # v.N := top d_min of (search results ∪ v.N') for the whole group.
    # Searches only reach G_0's prefix (nothing links to this group's
    # vertices until Step 3 applies the backward edges), so the searches
    # are independent and the row writes batch safely after them.
    src, dst, dist = merge_forward_batch(
        graph, group, search_ids, search_dists, forward_ids,
        forward_dists, d_min)
    clock.forward_merge(graph.degrees[group])
    clock.launch("merge_search")
    if len(src) == 0:
        return

    # Step 2 — GatherScatter: bitonic sort E by (starting vertex,
    # distance, ending vertex), then flags + prefix sum give CSR
    # segment offsets.
    order = np.lexsort((dst, dist, src))
    src, dst, dist = src[order], dst[order], dist[order]
    offsets = csr_offsets_from_sorted_ids(src)

    # Step 3 — one working unit per starting vertex merges its
    # backward-edge segment into the adjacency row (best d_max survive).
    merge_segments_batch(graph, src, dst, dist, offsets)
    clock.backward_merge(src, offsets)


def insert_batch_nsw(graph: ProximityGraph, points: np.ndarray,
                     new_ids: np.ndarray, params: BuildParams,
                     search_kernel: str = "ganns",
                     metric: str = "euclidean",
                     entry: int = 0,
                     exclude_mask: Optional[np.ndarray] = None
                     ) -> ConstructionReport:
    """Stream one batch of new points into an existing NSW graph.

    The batch is treated exactly like one GGraphCon local group: Phase 1
    builds a local NSW graph among the batch points (one simulated
    block, recording each point's forward set ``v.N'``) and Phase 2
    merges the group into the live graph with the same three-step merge
    :func:`build_nsw_gpu` uses — so streaming inserts ride the same
    kernels and the same cycle cost model as the offline build.

    Args:
        graph: The live graph, already *grown*: rows for ``new_ids``
            exist with degree ``0``.  Mutated in place.
        points: ``(graph.n_vertices, d)`` matrix including the new
            points' vectors at their rows.
        new_ids: Ascending, contiguous global ids of the new batch
            (appended at the tail of the id space).
        params: Build parameters (same knobs as the offline build).
        search_kernel: ``"ganns"`` or ``"song"`` for pricing.
        metric: Metric name (must match the graph's).
        entry: Entry vertex for the merge searches (a live vertex
            before the batch).
        exclude_mask: Optional ``(n,)`` boolean tombstone mask;
            tombstoned vertices are never chosen as neighbors of the
            batch.

    Returns:
        A :class:`repro.core.results.ConstructionReport` whose ``graph``
        is the mutated live graph and whose timings cover this batch
        only.

    Raises:
        ConstructionError: When an argument breaks the contract above:
            ``new_ids`` not a non-empty 1-D integer tail with empty
            rows, ``points`` of the wrong shape or not finite real
            values, a metric or ``d_max`` other than the graph's, an
            ``entry`` outside ``[0, new_ids[0])`` or a malformed
            ``exclude_mask``.
    """
    points = np.asarray(points)
    group = np.asarray(new_ids)
    if group.ndim != 1 or group.dtype.kind not in "iu":
        raise ConstructionError(
            f"new_ids must be a 1-D integer array, got dtype {group.dtype} "
            f"and shape {group.shape}")
    if len(group) == 0:
        raise ConstructionError("insert batch must be non-empty")
    group = group.astype(np.int64)
    if points.ndim != 2 or len(points) != graph.n_vertices:
        raise ConstructionError(
            f"points must be ({graph.n_vertices}, d) to match the grown "
            f"graph, got shape {points.shape}"
        )
    points = validated_points(points)
    if int(group[-1]) != graph.n_vertices - 1 \
            or not np.array_equal(group,
                                  np.arange(group[0], group[-1] + 1)):
        raise ConstructionError(
            "new_ids must be the contiguous tail of the id space "
            f"(got {group[0]}..{group[-1]} of {graph.n_vertices})"
        )
    if np.any(graph.degrees[group] != 0):
        raise ConstructionError(
            "rows for new_ids must be empty before the insert")
    if metric != graph.metric_name:
        raise ConstructionError(
            f"metric {metric!r} does not match the graph's "
            f"{graph.metric_name!r}")
    if params.d_max != graph.d_max:
        raise ConstructionError(
            f"params.d_max ({params.d_max}) does not match the graph's "
            f"d_max ({graph.d_max})")
    # The entry must already be in G_0: a batch vertex is unreachable
    # until Step 3, and would be its own search result.
    entry = as_count(entry, "entry", error=ConstructionError)
    if not 0 <= entry < group[0]:
        raise ConstructionError(
            f"entry must be a vertex before the batch, in [0, {group[0]}), "
            f"got {entry}")
    if exclude_mask is not None:
        exclude_mask = np.asarray(exclude_mask)
        if exclude_mask.dtype != bool \
                or exclude_mask.shape != (graph.n_vertices,):
            raise ConstructionError(
                f"exclude_mask must be a ({graph.n_vertices},) bool array, "
                f"got dtype {exclude_mask.dtype} and shape "
                f"{exclude_mask.shape}")

    metric_obj = get_metric(metric)
    d_min = params.d_min
    gpu = GpuClock(params, search_kernel, points.shape[1], QUADRO_P5000)
    clock = _StackedClocks([gpu], np.array([0, graph.n_vertices]),
                           [params.blocks_for(graph.n_vertices)])

    # Phase 1 — local graph over the batch (one block), recording N'.
    forward_ids = np.full((graph.n_vertices, d_min), -1, dtype=np.int64)
    forward_dists = np.full((graph.n_vertices, d_min), np.inf,
                            dtype=np.float64)
    clock.units(group[:1])
    _build_local_graphs(points, np.array([group[0], group[-1] + 1]), params,
                        metric_obj, False, clock, forward_ids, forward_dists)
    clock.launch("local_construction")

    # Phase 2 — merge the batch into the live graph.
    merge_group_into_graph(
        graph, points, group, forward_ids, forward_dists,
        params=params, metric_obj=metric_obj, exact=False, clock=clock,
        entry=entry, exclude_mask=exclude_mask)

    return report_from_clock(
        gpu, f"streaming-insert-{search_kernel}", graph, len(group),
        details={
            "batch_size": float(len(group)),
            "d_min": float(d_min),
            "d_max": float(params.d_max),
            "entry": float(entry),
        })
