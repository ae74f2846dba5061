"""Crash-safe mutable ANN index over the GGraphCon substrate.

A :class:`MutableIndex` wraps a :class:`~repro.graphs.adjacency.ProximityGraph`
with the full online lifecycle:

- **Streaming inserts** — each batch rides the paper's own construction
  kernels (:func:`repro.core.construction.insert_batch_nsw`: a Phase-1
  local graph over the batch, then the Phase-2 three-step merge into the
  live graph), charged to the gpusim cost model.
- **Tombstone deletes** — ids are marked dead instantly (never returned
  again) and stay as routing nodes until a compaction pass
  (:func:`repro.mutable.compaction.compact_graph`) detaches them and
  bridges the holes.
- **Copy-on-write snapshots** — :meth:`snapshot` pins the current epoch
  by reference, copying nothing.  Every mutation builds fresh arrays
  (grown copies, shadow graphs, copied masks) and *swaps references*,
  never writing through a pinned array — so pinned replays are
  byte-identical forever, at zero cost until a mutation actually lands.
- **WAL + checkpoint** — every mutation appends an intent record to the
  :class:`~repro.mutable.wal.DurableStore` *before* applying; a crash
  at any lifecycle phase loses only volatile state, and
  :func:`repro.mutable.recovery.recover` rebuilds an identical index
  from the surviving log.

External ids are slot ids and are never reused: deleting id 7 retires
slot 7 forever, so a result id means the same point at every epoch.
"""

from __future__ import annotations

import json
from typing import Optional, Tuple

import numpy as np

from repro.core.construction import (
    build_nsw_gpu,
    insert_batch_nsw,
    validated_points,
)
from repro.core.ganns import ganns_search
from repro.core.params import BuildParams, SearchParams
from repro.errors import (
    ConstructionError,
    MutableIndexError,
    ProcessCrashError,
)
from repro.gpusim.device import QUADRO_P5000
from repro.gpusim.kernel import KernelLaunch
from repro.graphs.adjacency import PAD_DIST, PAD_ID, ProximityGraph
from repro.graphs.validation import validate_graph
from repro.mutable.compaction import CompactionStats, compact_graph
from repro.mutable.snapshot import SnapshotHandle, state_digest
from repro.mutable.wal import (
    OP_COMPACT,
    OP_DELETE,
    OP_INSERT,
    DurableStore,
    decode_array,
    decode_params,
    encode_array,
    encode_params,
)


class MutableIndex:
    """A proximity-graph index that accepts inserts and deletes online.

    Build one with :meth:`build` (offline GGraphCon over the seed
    corpus, logged as the first WAL record) or restore one with
    :func:`repro.mutable.recovery.recover`.

    Attributes:
        epoch: Version counter; bumps on every applied mutation.  Serve
            caches key their entries by it.
        store: The simulated durable store (checkpoint + WAL).
        mutation_seconds: Total simulated seconds charged to mutations.
    """

    def __init__(self, graph: ProximityGraph, points: np.ndarray,
                 tombstones: np.ndarray, entry: int,
                 build_params: BuildParams, metric: str,
                 store: DurableStore, epoch: int = 0,
                 search_kernel: str = "ganns"):
        self.graph = graph
        self.points = np.ascontiguousarray(points, dtype=np.float64)
        self.tombstones = np.asarray(tombstones, dtype=bool).copy()
        self.entry = int(entry)
        self.build_params = build_params
        self.metric = metric
        self.store = store
        self.epoch = int(epoch)
        self.search_kernel = search_kernel
        self.mutation_seconds = 0.0
        self.last_compaction: Optional[CompactionStats] = None
        #: Tombstones already detached by a compaction pass — these are
        #: the ones the validation unreachability contract covers.
        self.compacted_tombstones = np.zeros(self.n_slots, dtype=bool)

    # ------------------------------------------------------------------
    # Construction / state
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, points: np.ndarray, params: BuildParams,
              metric: str = "euclidean", search_kernel: str = "ganns"
              ) -> "MutableIndex":
        """Offline-build the seed corpus and open the durable store.

        The seed graph is NSW, the one family that streams inserts
        (GGraphCon's insertion step); the batch-built families are
        rebuilt, not mutated.  The seed build is itself WAL-logged (as
        one big ``insert`` record at LSN 1), so a crash before the first
        checkpoint still recovers by replaying from an empty store.
        """
        points = np.ascontiguousarray(validated_points(points),
                                      dtype=np.float64)
        store = DurableStore()
        store.meta = {**encode_params(params), "metric": metric,
                      "search_kernel": search_kernel}
        store.append(OP_INSERT, 0.0, points=points)
        return cls._apply_base_build(store, points, params, metric=metric,
                                     search_kernel=search_kernel)

    @classmethod
    def _apply_base_build(cls, store: DurableStore, points: np.ndarray,
                          params: BuildParams, metric: str,
                          search_kernel: str) -> "MutableIndex":
        """Deterministic seed build shared by :meth:`build` and recovery."""
        report = build_nsw_gpu(points, params,
                               search_kernel=search_kernel, metric=metric)
        index = cls(graph=report.graph, points=points,
                    tombstones=np.zeros(len(points), dtype=bool),
                    entry=0, build_params=params, metric=metric,
                    store=store, epoch=0, search_kernel=search_kernel)
        index.mutation_seconds += report.seconds
        return index

    @property
    def n_slots(self) -> int:
        """Total id slots ever allocated (live + tombstoned)."""
        return self.graph.n_vertices

    @property
    def n_live(self) -> int:
        """Live (searchable) points."""
        return int((~self.tombstones).sum())

    @property
    def n_tombstones(self) -> int:
        """Deleted ids awaiting (or past) compaction."""
        return int(self.tombstones.sum())

    def live_ids(self) -> np.ndarray:
        """External ids currently alive, ascending."""
        return np.flatnonzero(~self.tombstones)

    def _first_live(self) -> int:
        live = np.flatnonzero(~self.tombstones)
        if len(live) == 0:  # pragma: no cover - guarded by delete()
            raise MutableIndexError("index has no live points")
        return int(live[0])

    def digest(self) -> str:
        """SHA-256 over the canonical bytes of the live state.

        Two indexes whose histories applied the same mutations in the
        same order have equal digests — the crash-recovery acceptance
        bar compares exactly this.
        """
        return state_digest(
            b"epoch=%d entry=%d n=%d " % (self.epoch, self.entry,
                                          self.n_slots),
            self.points, self.graph, self.tombstones)

    def validate(self) -> None:
        """Structural + tombstone validation of the live graph.

        The unreachability contract is enforced for *compacted*
        tombstones (fresh ones legitimately keep routing until the next
        pass).
        """
        validate_graph(self.graph,
                       tombstones=self.compacted_tombstones
                       if np.any(self.compacted_tombstones) else None)

    # ------------------------------------------------------------------
    # Copy-on-write snapshots
    # ------------------------------------------------------------------

    def snapshot(self) -> SnapshotHandle:
        """Pin the current epoch; O(1), copies nothing.

        Mutations never write through pinned arrays (they swap in fresh
        ones), so the returned handle replays byte-identically forever.
        """
        return SnapshotHandle(self.epoch, self.graph, self.points,
                              self.tombstones.copy(), self.entry)

    # ------------------------------------------------------------------
    # Mutations (WAL first, then apply)
    # ------------------------------------------------------------------

    def insert(self, new_points: np.ndarray, now: float = 0.0,
               tracer=None, metrics=None) -> np.ndarray:
        """Durably insert a batch of points; returns their new ids.

        The intent record lands in the WAL *before* the graph mutates:
        a crash mid-apply loses only volatile state, and recovery
        replays the record to the identical result.
        """
        new_points = np.atleast_2d(new_points)
        if new_points.shape[1] != self.points.shape[1]:
            raise MutableIndexError(
                f"insert dimensionality {new_points.shape[1]} != index "
                f"dimensionality {self.points.shape[1]}")
        # Before the WAL: a record the apply would refuse would make every
        # later recovery refuse it too.
        try:
            new_points = np.ascontiguousarray(validated_points(new_points),
                                              dtype=np.float64)
        except ConstructionError as exc:
            raise MutableIndexError(f"insert {exc}") from None
        self.store.append(OP_INSERT, now, points=new_points)
        return self._apply_insert(new_points, now, tracer=tracer,
                                  metrics=metrics)

    def _apply_insert(self, new_points: np.ndarray, now: float,
                      tracer=None, metrics=None) -> np.ndarray:
        span = tracer.begin("mutate.insert", now,
                            lane="mutate") if tracer else None
        start = self.n_slots
        new_ids = np.arange(start, start + len(new_points),
                            dtype=np.int64)
        self.graph = self.graph.widened(start + len(new_points))
        self.points = np.concatenate([self.points, new_points])
        self.tombstones = np.concatenate(
            [self.tombstones, np.zeros(len(new_points), dtype=bool)])
        self.compacted_tombstones = np.concatenate(
            [self.compacted_tombstones,
             np.zeros(len(new_points), dtype=bool)])
        report = insert_batch_nsw(
            self.graph, self.points, new_ids, self.build_params,
            search_kernel=self.search_kernel, metric=self.metric,
            entry=self.entry,
            exclude_mask=self.tombstones if self.n_tombstones else None)
        self.mutation_seconds += report.seconds
        self.epoch += 1
        if metrics is not None:
            metrics.counter("mutate.inserts").inc()
            metrics.counter("mutate.points_inserted").inc(
                len(new_points))
            metrics.gauge("mutate.epoch").set(self.epoch)
            metrics.gauge("mutate.live_points").set(self.n_live)
        if span is not None:
            tracer.end(span, now + report.seconds,
                       attributes={"batch_size": len(new_points),
                                   "epoch": self.epoch})
        return new_ids

    def delete(self, ids, now: float = 0.0, tracer=None,
               metrics=None) -> int:
        """Durably tombstone ids; they are never returned again.

        The vertices keep routing searches until :meth:`compact`
        detaches them.  Deleting every live point is rejected — an
        index always keeps a search entry.
        """
        ids = np.asarray(ids)
        if len(ids) and not np.issubdtype(ids.dtype, np.integer):
            raise MutableIndexError(
                f"delete ids must be integers, got dtype {ids.dtype}")
        ids = np.unique(ids.astype(np.int64))
        if len(ids) == 0:
            return 0
        if ids[0] < 0 or ids[-1] >= self.n_slots:
            raise MutableIndexError(
                f"delete ids out of range [0, {self.n_slots}): "
                f"{ids[0]}..{ids[-1]}")
        if np.any(self.tombstones[ids]):
            dup = int(ids[self.tombstones[ids]][0])
            raise MutableIndexError(
                f"id {dup} is already tombstoned")
        if len(ids) >= self.n_live:
            raise MutableIndexError(
                "cannot delete the last live point")
        self.store.append(OP_DELETE, now, ids=ids)
        return self._apply_delete(ids, now, tracer=tracer,
                                  metrics=metrics)

    def _apply_delete(self, ids: np.ndarray, now: float, tracer=None,
                      metrics=None) -> int:
        span = tracer.begin("mutate.delete", now,
                            lane="mutate") if tracer else None
        self.tombstones = self.tombstones.copy()
        self.tombstones[ids] = True
        if self.tombstones[self.entry]:
            self.entry = self._first_live()
        self.epoch += 1
        if metrics is not None:
            metrics.counter("mutate.deletes").inc()
            metrics.counter("mutate.points_deleted").inc(len(ids))
            metrics.gauge("mutate.epoch").set(self.epoch)
            metrics.gauge("mutate.live_points").set(self.n_live)
            metrics.gauge("mutate.tombstones").set(self.n_tombstones)
        if span is not None:
            tracer.end(span, now,
                       attributes={"n_deleted": len(ids),
                                   "epoch": self.epoch})
        return len(ids)

    def compact(self, now: float = 0.0, crash=None, tracer=None,
                metrics=None) -> CompactionStats:
        """Detach tombstoned vertices, repairing connectivity holes.

        Runs on *shadow* copies through the named
        :data:`~repro.mutable.compaction.COMPACTION_PHASES`; the live
        index swaps to the result only at ``compaction.commit``, after
        the intent record is durably appended.  A ``crash`` fault at
        any phase therefore aborts cleanly: the live state (and every
        snapshot) is untouched, and recovery replays the surviving log.

        Args:
            now: Simulated time of the pass.
            crash: Optional :class:`repro.faults.injector.CrashInjector`
                polled at each phase boundary.
            tracer: Optional span tracer (``compaction.pass`` span).
            metrics: Optional metrics registry.
        """
        return self._apply_compact(now, crash=crash, tracer=tracer,
                                   metrics=metrics, log=True)

    def _apply_compact(self, now: float, crash=None, tracer=None,
                       metrics=None, log: bool = True
                       ) -> CompactionStats:
        """Compaction body; ``log=False`` replays an existing record."""
        span = tracer.begin("compaction.pass", now,
                            lane="mutate") if tracer else None

        def hook(phase: str) -> None:
            if crash is not None:
                crash.check(phase, now, metrics=metrics)

        try:
            shadow = self.graph.copy()
            stats = compact_graph(shadow, self.points, self.tombstones,
                                  n_threads=self.build_params.n_threads,
                                  phase_hook=hook)
            kernel = KernelLaunch(QUADRO_P5000,
                                  self.build_params.n_threads)
            seconds = kernel.cycles_to_seconds(stats.total_cycles)

            # Commit point: durably log the compaction, then swap the
            # shadow in.  Both steps are atomic instants in the
            # simulation; a crash *at* the commit boundary happens
            # before either.
            hook("compaction.commit")
        except ProcessCrashError:
            if span is not None:
                tracer.end(span, now, attributes={"crashed": True})
            raise
        if log:
            self.store.append(OP_COMPACT, now)
        self.graph = shadow
        self.compacted_tombstones = self.tombstones.copy()
        self.mutation_seconds += seconds
        self.epoch += 1
        self.last_compaction = stats
        if metrics is not None:
            metrics.counter("compaction.passes").inc()
            metrics.counter("compaction.dead_detached").inc(stats.n_dead)
            metrics.counter("compaction.edges_dropped").inc(
                stats.n_edges_dropped)
            metrics.counter("compaction.bridge_candidates").inc(
                stats.n_bridge_candidates)
            metrics.gauge("mutate.epoch").set(self.epoch)
        if span is not None:
            tracer.end(span, now + seconds,
                       attributes={"n_dead": stats.n_dead,
                                   "edges_dropped": stats.n_edges_dropped,
                                   "epoch": self.epoch})
        return stats

    def checkpoint(self, now: float = 0.0, crash=None, tracer=None,
                   metrics=None) -> int:
        """Serialize the index into the durable store, folding the WAL.

        Two named phases (both crash points): ``checkpoint.serialize``
        builds the blob from the live state; ``checkpoint.write``
        atomically installs it and truncates the folded records.

        Returns:
            The LSN through which the checkpoint folds the log.
        """
        span = tracer.begin("recovery.checkpoint", now,
                            lane="mutate") if tracer else None
        try:
            if crash is not None:
                crash.check("checkpoint.serialize", now,
                            metrics=metrics)
            last_lsn = self.store.next_lsn - 1
            blob = self._to_checkpoint_bytes(last_lsn)
            if crash is not None:
                crash.check("checkpoint.write", now, metrics=metrics)
        except ProcessCrashError:
            if span is not None:
                tracer.end(span, now, attributes={"crashed": True})
            raise
        self.store.install_checkpoint(blob, last_lsn)
        if metrics is not None:
            metrics.counter("recovery.checkpoints").inc()
            metrics.gauge("recovery.checkpoint_lsn").set(last_lsn)
        if span is not None:
            tracer.end(span, now,
                       attributes={"last_lsn": last_lsn,
                                   "blob_bytes": len(blob)})
        return last_lsn

    # ------------------------------------------------------------------
    # Checkpoint serialization
    # ------------------------------------------------------------------

    def _to_checkpoint_bytes(self, last_lsn: int) -> bytes:
        """Canonical checkpoint blob of the full live state."""
        payload = {
            "epoch": self.epoch,
            "entry": self.entry,
            "last_lsn": int(last_lsn),
            "metric": self.metric,
            "search_kernel": self.search_kernel,
            **encode_params(self.build_params),
            "mutation_seconds": self.mutation_seconds,
            "graph_dtype": str(self.graph.dtype),
            "points": encode_array(self.points),
            "neighbor_ids": encode_array(self.graph.neighbor_ids),
            "neighbor_dists": encode_array(self.graph.neighbor_dists),
            "degrees": encode_array(self.graph.degrees),
            "tombstones": encode_array(self.tombstones),
            "compacted_tombstones": encode_array(
                self.compacted_tombstones),
        }
        return json.dumps(payload, sort_keys=True).encode("utf-8")

    @classmethod
    def from_checkpoint_bytes(cls, blob: bytes, store: DurableStore
                              ) -> "MutableIndex":
        """Rebuild an index from a checkpoint blob (no WAL replay).

        Raises:
            MutableIndexError: The blob is empty, truncated, not valid
                JSON / base64, or lacks a field (chained from the decode
                error).
        """
        try:
            payload = json.loads(blob.decode("utf-8"))
            params = decode_params(payload)
            points = decode_array(payload["points"])
            graph = ProximityGraph.from_arrays(
                decode_array(payload["neighbor_ids"]),
                decode_array(payload["neighbor_dists"]),
                decode_array(payload["degrees"]), payload["metric"])
            tombstones = decode_array(payload["tombstones"])
            compacted = decode_array(payload["compacted_tombstones"])
            entry, epoch = int(payload["entry"]), int(payload["epoch"])
            search_kernel = payload["search_kernel"]
            mutation_seconds = float(payload["mutation_seconds"])
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise MutableIndexError(
                f"corrupt checkpoint blob ({len(blob)} bytes): {exc!r}"
            ) from exc
        index = cls(graph=graph, points=points, tombstones=tombstones,
                    entry=entry, build_params=params, metric=graph.metric_name,
                    store=store, epoch=epoch, search_kernel=search_kernel)
        index.mutation_seconds = mutation_seconds
        index.compacted_tombstones = compacted.astype(bool)
        return index

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def search(self, queries: np.ndarray, params: SearchParams
               ) -> Tuple[np.ndarray, np.ndarray]:
        """Search the *live* corpus; tombstoned ids are never returned.

        Pre-compaction tombstones still route, so the search over-
        fetches (``k`` plus the tombstones no compaction has detached
        yet, capped by ``l_n`` and by the vertex count) and filters dead
        ids from the results; short rows pad with ``-1``/``inf``.  For
        byte-stable serving pin a :meth:`snapshot` and serve it through
        :meth:`repro.cluster.engine.ClusterEngine.from_snapshot`.
        """
        queries = np.atleast_2d(np.asarray(queries))
        k = params.k
        routing = int((self.tombstones & ~self.compacted_tombstones).sum())
        k_eff = min(int(params.l_n), k + routing, self.graph.n_vertices)
        report = ganns_search(self.graph, self.points, queries,
                              params.with_overrides(k=k_eff)
                              if k_eff != k else params,
                              entry=self.entry)
        ids = np.full((len(queries), k), PAD_ID, dtype=np.int64)
        dists = np.full((len(queries), k), PAD_DIST, dtype=np.float64)
        # Compact each row's live results to its front, in order.
        got_ids = report.ids
        keep = (got_ids >= 0) & ~self.tombstones[np.maximum(got_ids, 0)]
        column = np.cumsum(keep, axis=1) - 1
        row, source = np.nonzero(keep & (column < k))
        target = column[row, source]
        ids[row, target] = got_ids[row, source]
        dists[row, target] = report.dists[row, source]
        return ids, dists
