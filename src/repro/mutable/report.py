"""Mutation-run summary: the ops ledger of one simulated workload.

A :class:`MutationReport` is to :func:`repro.mutable.sim.run_mutation_sim`
what :class:`repro.serve.report.ServeReport` is to a serving replay —
the single byte-deterministic artifact the CLI prints, the golden test
pins, and the smoke gate compares across seeds.  It carries every
operation the workload issued (including the crashes and recoveries),
every search result, and the final index/store digests, and it must
reconcile with the live metrics registry with *zero drift*.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.observability.metrics import MetricRow

#: Operation kinds an :class:`OpRecord` may carry.
OP_RECORD_KINDS = ("insert", "delete", "compact", "checkpoint",
                   "search", "recover")


@dataclass
class OpRecord:
    """One workload operation, as it actually played out.

    Attributes:
        seq: Position in the workload schedule (0-based, dense).
        kind: One of :data:`OP_RECORD_KINDS`.
        at_seconds: Simulated issue time.
        epoch_after: Index epoch once the operation settled.
        count: Operation size — points inserted, ids deleted, dead
            vertices detached, records replayed, queries searched, or
            the LSN a checkpoint folded through (``0`` where it has no
            meaning).
        status: ``"ok"``, or ``"crashed"`` when a fault killed the
            operation mid-phase.
        phase: The lifecycle phase a crash landed in (empty otherwise).
    """

    seq: int
    kind: str
    at_seconds: float
    epoch_after: int = 0
    count: int = 0
    status: str = "ok"
    phase: str = ""

    def line(self) -> str:
        """Canonical one-line encoding."""
        return (f"{self.seq} {self.kind} {self.at_seconds!r} "
                f"epoch={self.epoch_after} count={self.count} "
                f"{self.status} {self.phase}")


@dataclass
class SearchRecord:
    """One search operation's full result set.

    Attributes:
        seq: The issuing :class:`OpRecord`'s ``seq``.
        at_seconds: Simulated issue time.
        epoch: Index epoch the search ran against.
        ids: ``(q, k)`` result ids (``-1`` padded).
        dists: ``(q, k)`` result distances (``inf`` padded).
        n_wrong: Result ids that were tombstoned at issue time — the
            *silently wrong answers* the crash-safety bar requires to
            be zero, counted here so the report can prove it.
    """

    seq: int
    at_seconds: float
    epoch: int
    ids: np.ndarray
    dists: np.ndarray
    n_wrong: int = 0


@dataclass
class MutationReport:
    """Outcome of one simulated mutation workload.

    Attributes:
        seed: Workload RNG seed.
        ops: Every operation in schedule order (crashes and recoveries
            appear as their own records).
        searches: Full result sets of the search operations.
        final_digest: The surviving index's state digest.
        store_digest: The durable store's digest at shutdown.
        final_epoch: Index epoch at shutdown.
        n_live: Live points at shutdown.
        n_slots: Total id slots ever allocated.
        checkpoint_lsn: LSN of the last installed checkpoint (0 if
            none).
        metrics: The registry the run published into; the derived
            counts below must reconcile with it exactly
            (:meth:`verify_against_metrics`).
        store: The surviving :class:`repro.mutable.wal.DurableStore`,
            so callers (the mutate-smoke gate) can independently
            replay the log and compare digests.  Not part of the
            canonical byte encoding.
    """

    seed: int
    ops: List[OpRecord] = field(default_factory=list)
    searches: List[SearchRecord] = field(default_factory=list)
    final_digest: str = ""
    store_digest: str = ""
    final_epoch: int = 0
    n_live: int = 0
    n_slots: int = 0
    checkpoint_lsn: int = 0
    metrics: Optional[object] = None
    store: Optional[object] = None

    # ------------------------------------------------------------------
    # Derived counts (views over the ledger)
    # ------------------------------------------------------------------

    def _count(self, kind: str, status: str = "ok") -> int:
        return sum(1 for op in self.ops
                   if op.kind == kind and op.status == status)

    @property
    def n_inserts(self) -> int:
        """Insert batches applied."""
        return self._count("insert")

    @property
    def points_inserted(self) -> int:
        """Total points across applied insert batches."""
        return sum(op.count for op in self.ops
                   if op.kind == "insert" and op.status == "ok")

    @property
    def n_deletes(self) -> int:
        """Delete operations applied."""
        return self._count("delete")

    @property
    def points_deleted(self) -> int:
        """Total ids across applied deletes."""
        return sum(op.count for op in self.ops
                   if op.kind == "delete" and op.status == "ok")

    @property
    def n_compactions(self) -> int:
        """Compaction passes that committed."""
        return self._count("compact")

    @property
    def n_checkpoints(self) -> int:
        """Checkpoints that installed."""
        return self._count("checkpoint")

    @property
    def n_searches(self) -> int:
        """Search operations issued."""
        return len(self.searches)

    @property
    def n_crashes(self) -> int:
        """Crash faults delivered (operations that died mid-phase)."""
        return sum(1 for op in self.ops if op.status == "crashed")

    @property
    def n_recoveries(self) -> int:
        """Recovery runs (one per crash)."""
        return sum(1 for op in self.ops if op.kind == "recover")

    @property
    def replayed_records(self) -> int:
        """WAL records replayed across all recoveries."""
        return sum(op.count for op in self.ops if op.kind == "recover")

    @property
    def n_wrong_answers(self) -> int:
        """Tombstoned ids that leaked into search results (must be 0)."""
        return sum(s.n_wrong for s in self.searches)

    # ------------------------------------------------------------------
    # Registry view
    # ------------------------------------------------------------------

    def metric_rows(self) -> List[MetricRow]:
        """The metric table: every derived count above, as the registry
        the run published into must hold it.

        The epoch and checkpoint-LSN gauges are only ever set by the
        operations that move them, so their rows exist once one ran.
        """
        counters = {
            "mutate.inserts": self.n_inserts,
            "mutate.points_inserted": self.points_inserted,
            "mutate.deletes": self.n_deletes,
            "mutate.points_deleted": self.points_deleted,
            "mutate.searches": self.n_searches,
            "mutate.wrong_answers": self.n_wrong_answers,
            "compaction.passes": self.n_compactions,
            "recovery.checkpoints": self.n_checkpoints,
            "recovery.runs": self.n_recoveries,
            "recovery.replayed_records": self.replayed_records,
            "faults.delivered.crash": self.n_crashes,
        }
        rows = [MetricRow(name, "counter", count)
                for name, count in counters.items()]
        if self.n_inserts or self.n_deletes or self.n_compactions:
            rows.append(MetricRow("mutate.epoch", "gauge",
                                  self.final_epoch))
        if self.n_checkpoints:
            rows.append(MetricRow("recovery.checkpoint_lsn", "gauge",
                                  self.checkpoint_lsn))
        return rows

    def verify_against_metrics(self) -> None:
        """Assert this report is an exact view over its registry.

        The ledger above and the counters the index/sim published live
        are two independent accounting paths; they are allowed zero
        drift.  Raises :class:`repro.errors.ObservabilityError` on the
        first mismatch; a no-op when the report carries no registry.
        """
        if self.metrics is not None:
            self.metrics.reconcile(self.metric_rows())

    # ------------------------------------------------------------------
    # Canonical form
    # ------------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Canonical byte encoding of the whole run.

        Two runs of the same seed under the same fault plan must
        produce equal encodings — the mutate-smoke gate and the golden
        mutation-trace test compare these bytes directly.
        """
        chunks: List[bytes] = [b"mutation-report-v1\n",
                               (f"seed={self.seed}\n").encode("utf-8")]
        for op in self.ops:
            chunks.append((op.line() + "\n").encode("utf-8"))
        for s in self.searches:
            head = (f"search {s.seq} {s.at_seconds!r} epoch={s.epoch} "
                    f"wrong={s.n_wrong}\n")
            chunks.append(head.encode("utf-8"))
            chunks.append(np.ascontiguousarray(s.ids).tobytes())
            chunks.append(np.ascontiguousarray(s.dists).tobytes())
        tail = (f"\nfinal_epoch={self.final_epoch}"
                f"\nn_live={self.n_live}"
                f"\nn_slots={self.n_slots}"
                f"\ncheckpoint_lsn={self.checkpoint_lsn}"
                f"\nfinal_digest={self.final_digest}"
                f"\nstore_digest={self.store_digest}\n")
        chunks.append(tail.encode("utf-8"))
        return b"".join(chunks)

    def digest(self) -> str:
        """SHA-256 hex digest of :meth:`to_bytes`."""
        return hashlib.sha256(self.to_bytes()).hexdigest()

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def summary(self) -> str:
        """Multi-line human-readable summary (what ``mutate-sim`` prints)."""
        lines = [
            f"MutationReport: {len(self.ops)} operations "
            f"(seed {self.seed})",
            f"  inserts       {self.n_inserts} batches, "
            f"{self.points_inserted} points",
            f"  deletes       {self.n_deletes} ops, "
            f"{self.points_deleted} ids tombstoned",
            f"  compactions   {self.n_compactions} committed",
            f"  checkpoints   {self.n_checkpoints} installed "
            f"(last lsn {self.checkpoint_lsn})",
            f"  searches      {self.n_searches} issued, "
            f"{self.n_wrong_answers} wrong answers",
            f"  crashes       {self.n_crashes} delivered, "
            f"{self.n_recoveries} recoveries "
            f"({self.replayed_records} records replayed)",
            f"  final         epoch {self.final_epoch}, "
            f"{self.n_live} live / {self.n_slots} slots",
            f"  index digest  {self.final_digest}",
            f"  store digest  {self.store_digest}",
        ]
        return "\n".join(lines)
