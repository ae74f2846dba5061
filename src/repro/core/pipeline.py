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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Union

import numpy as np

from repro.core.ganns import ganns_search
from repro.core.params import SearchParams
from repro.core.results import SearchReport
from repro.errors import SearchError
from repro.graphs.adjacency import ProximityGraph
from repro.gpusim.costs import CostTable, DEFAULT_COSTS
from repro.gpusim.device import DeviceSpec, QUADRO_P5000
from repro.gpusim.memory import TransferModel


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


def stream_batches(graph: ProximityGraph, points: np.ndarray,
                   queries: np.ndarray, params: SearchParams,
                   batch_size: int = 2000,
                   device: DeviceSpec = QUADRO_P5000,
                   costs: CostTable = DEFAULT_COSTS,
                   entry: Union[int, np.ndarray] = 0,
                   fault_hook: Optional[
                       Callable[[int, BatchTiming], BatchTiming]
                   ] = None) -> StreamResult:
    """Search a query stream in batches with simulated stream overlap.

    Args:
        graph: Proximity graph over ``points``.
        points: ``(n, d)`` data matrix.
        queries: ``(m, d)`` query stream.
        params: GANNS search parameters.
        batch_size: Queries per batch (the paper's example uses 2000).
        device: Simulated device (provides PCIe figures).
        costs: Cycle cost table.
        entry: Start vertex, or a per-query ``(m,)`` id array; sliced
            along with the queries when per-query entries are given.
        fault_hook: Fault-injection point (:mod:`repro.faults`): called
            per batch with ``(batch_index, timing)`` once the batch's
            fault-free timing is known; may return an adjusted timing
            (e.g. a stalled kernel) or raise a
            :class:`repro.errors.FaultError` to kill the whole stream
            dispatch, discarding its results.

    Returns:
        A :class:`StreamResult` with both serial and overlapped timings.
    """
    queries = np.asarray(queries)
    if queries.ndim != 2 or len(queries) == 0:
        raise SearchError(
            f"queries must be a non-empty 2-D matrix, got shape "
            f"{queries.shape}"
        )
    if batch_size <= 0:
        raise SearchError(f"batch_size must be positive, got {batch_size}")
    entries = np.asarray(entry, dtype=np.int64)
    if entries.ndim not in (0, 1):
        raise SearchError(
            f"entry must be a scalar or a (n_queries,) array, got shape "
            f"{entries.shape}"
        )
    if entries.ndim == 1 and len(entries) != len(queries):
        raise SearchError(
            f"per-query entry array has {len(entries)} entries for "
            f"{len(queries)} queries"
        )
    transfer = TransferModel(device)

    reports: List[SearchReport] = []
    timings: List[BatchTiming] = []
    ids_parts = []
    dists_parts = []
    for start in range(0, len(queries), batch_size):
        batch = queries[start:start + batch_size]
        batch_entry = (entries if entries.ndim == 0
                       else entries[start:start + batch_size])
        report = ganns_search(graph, points, batch, params,
                              entry=batch_entry, costs=costs)
        launch = report.launch(device, costs)
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
