"""Streaming query pipeline: overlapping transfer with computation.

Section III-B's remark: "CUDA provides a stream mechanism that supports
asynchronous processing of kernel computation and data transfer. That is
to say, data transfer can be overlapped with querying on the GPU even
when several batches of points need to be processed."

:func:`stream_batches` simulates exactly that double-buffered pipeline:
batch ``i+1`` uploads while batch ``i`` computes, and batch ``i-1``'s
results download concurrently.  The elapsed time of the whole stream is
therefore ``upload(first) + sum(max(compute_i, transfers overlapping
it)) + download(last)`` — which collapses to compute-bound for every
realistic ANN workload, the paper's point.

*Which simulated batch a query is charged to* and *which host call
computes it* are two decisions.  The first is the caller's (a
scheduler's micro-batches, a ``batch_size``); the second is
:class:`_LaneStore`'s: a replay lends :func:`stream_batches` a store
built over its upcoming queries, the store searches them a host width
at a time, and every batch receives the lane slice of those wide
reports — byte for byte the report a search of the batch alone returns.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

import numpy as np

from repro.core.ganns import check_queries, ganns_search
from repro.core.params import SearchParams, as_count
from repro.core.results import SearchReport
from repro.errors import SearchError
from repro.graphs.adjacency import ProximityGraph
from repro.gpusim.device import QUADRO_P5000
from repro.gpusim.memory import TransferModel
from repro.gpusim.tracker import CycleTracker
from repro.perf.arena import BITMAP_BUDGET_BYTES


@dataclass(frozen=True)
class BatchTiming:
    """Per-batch timing of the streamed execution."""

    n_queries: int
    upload_seconds: float
    compute_seconds: float
    download_seconds: float


@dataclass(frozen=True)
class EngineSlots:
    """The exact engine occupancy of one batch on the simulated device.

    The batch first occupies an engine at ``upload_start`` and leaves
    the device at ``download_end`` (results downloaded, or the failure
    detected).  The observability layer turns the three intervals into
    ``upload`` / ``compute`` / ``download`` spans on per-engine lanes.
    """

    upload_start: float
    upload_end: float
    compute_start: float
    compute_end: float
    download_start: float
    download_end: float


@dataclass
class EngineClock:
    """Free times of the three simulated device engines.

    The double-buffered schedule: upload, compute and download each
    process batches in order, and a batch's stage starts when both its
    engine is free and its previous stage finished — the upload of
    batch ``i+1`` proceeds while batch ``i`` computes and batch ``i-1``
    downloads.
    """

    upload_free: float = 0.0
    compute_free: float = 0.0
    download_free: float = 0.0

    def schedule(self, ready: float, upload: float, compute: float,
                 download: Optional[float]) -> EngineSlots:
        """Run one batch that is ready at ``ready``.

        ``download=None`` is a *failed* attempt: it died before
        producing results, so nothing downloads and the failure is
        detected at ``compute_end`` — but the wasted upload/compute
        time still delays everything behind it.
        """
        upload_start = max(ready, self.upload_free)
        self.upload_free = upload_start + upload
        compute_start = max(self.compute_free, self.upload_free)
        self.compute_free = compute_start + compute
        if download is None:
            download_start = download_end = self.compute_free
        else:
            download_start = max(self.download_free, self.compute_free)
            download_end = self.download_free = download_start + download
        return EngineSlots(
            upload_start=upload_start, upload_end=self.upload_free,
            compute_start=compute_start, compute_end=self.compute_free,
            download_start=download_start, download_end=download_end)


@dataclass(frozen=True)
class StreamResult:
    """Outcome of one streamed multi-batch search.

    Attributes:
        ids: ``(total_queries, k)`` neighbor ids across all batches.
        dists: Matching distances.
        batches: Per-batch timings.
        serial_seconds: Elapsed time *without* stream overlap (upload,
            compute, download strictly in sequence per batch).
        overlapped_seconds: Elapsed time with double buffering.
        reports: The per-batch :class:`SearchReport` objects.
    """

    ids: np.ndarray
    dists: np.ndarray
    batches: List[BatchTiming]
    serial_seconds: float
    overlapped_seconds: float
    reports: List[SearchReport]

    @property
    def overlap_saving(self) -> float:
        """Fraction of serial time removed by stream overlap."""
        if self.serial_seconds <= 0:
            return 0.0
        return 1.0 - self.overlapped_seconds / self.serial_seconds


#: Queries one host call of a :class:`_LaneStore` searches: wide enough
#: that the ~100 NumPy calls of a traversal iteration are amortised
#: (``docs/performance.md``, "host width vs simulated batch").
_HOST_WIDTH = 512


class _LaneStore:
    """Searches a replay's queries wide, answers its batches narrow.

    A *part* is one ``(graph, points)`` pair the replay searches (a
    serving engine's index, or each shard of a cluster); a *lane* is one
    distinct query vector of one part, numbered part by part and in
    arrival order within a part.  :meth:`search` is :func:`ganns_search`
    for a batch of them: lanes it does not hold yet are searched in one
    wide call together with the not-yet-searched lanes that follow, up
    to the host width, and the batch's report is the lane slice
    (:meth:`SearchReport.take`) — so no lane is ever traversed twice, a
    retried batch or a failover re-dispatch costs a gather, and nothing
    is searched before a batch asks.  The store lives as long as the
    replay that built it.

    Several parts are one call: the search runs over their block-diagonal
    stack (:meth:`ProximityGraph.block_diagonal`, the points concatenated)
    with each lane entered at its part's row offset (the part's vertex
    0, where a search of the part alone enters).  A lane
    never leaves its block and a constant offset keeps its ``(dist, id)``
    order, so with the offset taken off again every lane's report is its
    part's.  Under ``params.quant`` each part is its own call: the
    compressed tables are fitted per point matrix.

    Args:
        parts: Per part, its graph and points (a batch finds its part by
            identity) and the replay's query matrices for it in arrival
            order.
        params: The search every lane is answered by; a call under
            anything else (a degraded tier's ``params``, a graph that is
            no part) goes straight to :func:`ganns_search`.
    """

    def __init__(self,
                 parts: Sequence[Tuple[ProximityGraph, np.ndarray,
                                       Iterable[np.ndarray]]],
                 params: SearchParams):
        self.params = params
        self._parts = [(graph, points) for graph, points, _ in parts]
        self._lane_of: List[Dict[bytes, int]] = []
        self._queries: List[np.ndarray] = []
        # A request fanned out to several parts is hashed once (keyed by
        # identity, so the matrix is held to keep its id from reuse).
        hashed: Dict[int, Tuple[np.ndarray, List[bytes]]] = {}
        for _, _, queries in parts:
            lane_of: Dict[bytes, int] = {}
            for matrix in queries:
                if id(matrix) not in hashed:
                    hashed[id(matrix)] = (matrix, [row.tobytes()
                                                   for row in matrix])
                for row, key in zip(matrix, hashed[id(matrix)][1]):
                    if key not in lane_of:
                        lane_of[key] = len(self._queries)
                        self._queries.append(row)
            self._lane_of.append(lane_of)
        self._part = np.repeat(np.arange(len(parts)),
                               [len(lane_of) for lane_of in self._lane_of])
        graphs = [graph for graph, _ in self._parts]
        if params.quant is None and len(parts) > 1:
            self._blocks = [(ProximityGraph.block_diagonal(graphs),
                             np.concatenate([p for _, p in self._parts]))]
            self._block_of = np.zeros(len(parts), dtype=np.int64)
            self._offset = np.cumsum(
                [0] + [graph.n_vertices for graph in graphs[:-1]])
        else:
            self._blocks = self._parts
            self._block_of = np.arange(len(parts))
            self._offset = np.zeros(len(parts), dtype=np.int64)
        self._searched = np.zeros(len(self._queries), dtype=bool)
        n_vertices = max(graph.n_vertices for graph, _ in self._blocks)
        self._width = max(1, min(
            _HOST_WIDTH, BITMAP_BUDGET_BYTES // -(-n_vertices // 8)))
        #: Every searched lane's results, one row per lane.
        self._report: Optional[SearchReport] = None

    def search(self, graph: ProximityGraph, points: np.ndarray,
               queries: np.ndarray, params: SearchParams
               ) -> SearchReport:
        """:func:`ganns_search` of the same arguments."""
        # The cheap identity checks first: a batch the store was not
        # built for (a degraded tier's params) hashes no row.
        part = next((i for i, (g, p) in enumerate(self._parts)
                     if g is graph and p is points), None)
        same = part is not None and params == self.params
        lanes = ([self._lane_of[part].get(row.tobytes())
                  for row in queries] if same else None)
        if lanes is None or None in lanes:
            return ganns_search(graph, points, queries, params)
        lanes = np.array(lanes)
        missing = np.unique(lanes[~self._searched[lanes]])
        if len(missing):
            ahead = np.flatnonzero(~self._searched)
            ahead = ahead[(ahead > missing[0]) & ~np.isin(ahead, missing)]
            self._fill(np.union1d(
                missing, ahead[:max(self._width - len(missing), 0)]))
        return self._report.take(lanes)

    def _fill(self, lanes: np.ndarray) -> None:
        """One wide search of ``lanes`` per block they touch, scattered
        into the report with part-local ids."""
        parts = self._part[lanes]
        blocks = self._block_of[parts]
        for block in np.unique(blocks):
            mine = blocks == block
            graph, points = self._blocks[block]
            offset = self._offset[parts[mine]]
            wide = ganns_search(
                graph, points,
                np.stack([self._queries[lane] for lane in lanes[mine]]),
                self.params, entry=offset)
            wide.ids[...] = np.where(wide.ids >= 0,
                                     wide.ids - offset[:, None], wide.ids)
            self._scatter(lanes[mine], wide)

    def _scatter(self, lanes: np.ndarray, wide: SearchReport) -> None:
        """Hold the report of ``lanes``, one row per lane."""
        if self._report is None:
            n = len(self._queries)
            self._report = replace(
                wide,
                ids=np.empty((n,) + wide.ids.shape[1:], wide.ids.dtype),
                dists=np.empty((n,) + wide.dists.shape[1:],
                               wide.dists.dtype),
                tracker=CycleTracker(n),
                iterations=np.zeros(n, dtype=np.int64),
                lane_distance_computations=np.zeros(n, dtype=np.int64),
                lane_distance_evaluations=np.zeros(n, dtype=np.int64))
        held = self._report
        held.ids[lanes] = wide.ids
        held.dists[lanes] = wide.dists
        held.iterations[lanes] = wide.iterations
        held.lane_distance_computations[lanes] = \
            wide.lane_distance_computations
        held.lane_distance_evaluations[lanes] = \
            wide.lane_distance_evaluations
        for phase in wide.tracker.phase_names:
            held.tracker.charge(phase, wide.tracker.lane_cycles(phase),
                                lanes)
        self._searched[lanes] = True


def stream_batches(graph: ProximityGraph, points: np.ndarray,
                   queries: np.ndarray, params: SearchParams,
                   batch_size: int = 2000,
                   fault_hook: Optional[
                       Callable[[int, BatchTiming], BatchTiming]
                   ] = None,
                   _lanes: Optional[_LaneStore] = None) -> StreamResult:
    """Search a query stream in batches with simulated stream overlap.

    Args:
        graph: Proximity graph over ``points``.
        points: ``(n, d)`` data matrix.
        queries: ``(m, d)`` query stream.
        params: GANNS search parameters.
        batch_size: Queries per batch (the paper's example uses 2000);
            every batch enters at vertex 0, as :func:`ganns_search`
            does by default.
        fault_hook: Fault-injection point (:mod:`repro.faults`): called
            per batch with ``(batch_index, timing)`` once the batch's
            fault-free timing is known; may return an adjusted timing
            (e.g. a stalled kernel) or raise a
            :class:`repro.errors.FaultError` to kill the whole stream
            dispatch, discarding its results.
        _lanes: Package-internal: the calling replay's
            :class:`_LaneStore`, searched in place of
            :func:`ganns_search`; every result is the same.

    Returns:
        A :class:`StreamResult` with both serial and overlapped timings.
    """
    queries = np.asarray(queries)
    check_queries(np.asarray(points), queries, graph, k=params.k)
    batch_size = as_count(batch_size, "batch_size", 1, SearchError)
    transfer = TransferModel(QUADRO_P5000)
    search = ganns_search if _lanes is None else _lanes.search

    reports: List[SearchReport] = []
    timings: List[BatchTiming] = []
    ids_parts = []
    dists_parts = []
    for start in range(0, len(queries), batch_size):
        batch = queries[start:start + batch_size]
        report = search(graph, points, batch, params)
        launch = report.launch()
        upload = transfer.transfer_seconds(
            transfer.query_upload_bytes(len(batch), queries.shape[1]))
        download = transfer.transfer_seconds(
            transfer.result_download_bytes(len(batch), params.k))
        reports.append(report)
        timing = BatchTiming(n_queries=len(batch),
                             upload_seconds=upload,
                             compute_seconds=launch.seconds,
                             download_seconds=download)
        if fault_hook is not None:
            timing = fault_hook(len(timings), timing)
        timings.append(timing)
        ids_parts.append(report.ids)
        dists_parts.append(report.dists)

    serial = sum(t.upload_seconds + t.compute_seconds + t.download_seconds
                 for t in timings)

    clock = EngineClock()
    for t in timings:
        clock.schedule(0.0, t.upload_seconds, t.compute_seconds,
                       t.download_seconds)
    overlapped = clock.download_free

    return StreamResult(
        ids=np.concatenate(ids_parts, axis=0),
        dists=np.concatenate(dists_parts, axis=0),
        batches=timings,
        serial_seconds=serial,
        overlapped_seconds=overlapped,
        reports=reports,
    )
