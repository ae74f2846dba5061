"""Cluster-replay summary: per-shard tails, merge overhead, failovers.

A :class:`ClusterReport` is to :class:`repro.cluster.engine.ClusterEngine`
what :class:`repro.serve.report.ServeReport` is to one serving engine:
the single object the CLI and the smoke scripts print, a *view* over
the metrics registry the replay published into (zero drift enforced by
:meth:`ClusterReport.verify_against_metrics`), and a canonical byte
encoding (:meth:`ClusterReport.to_bytes`) that two replays of the same
trace under the same fault plan must reproduce exactly.

The cluster-specific headline is **tail amplification**: a
scatter-gather answer waits for the *maximum* of its shard latencies,
so the cluster's p99 sits above any individual shard's p99 — the ratio
against the slowest shard quantifies how much of the cluster tail is
synchronization rather than any one shard being slow.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.observability.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricRow,
)
from repro.serve.report import _percentile


def _running_total(values) -> float:
    """Sum one float addition at a time, as ``Counter.inc`` does.

    (The builtin ``sum`` compensates rounding on newer interpreters,
    so it need not reproduce a counter's bits.)
    """
    acc = 0.0
    for value in values:
        acc += value
    return acc


class ClusterStatus(enum.Enum):
    """Terminal state of one request at the cluster level."""

    #: Every shard answered; the merged result is exact over the corpus.
    SERVED = "served"
    #: At least one whole shard was dead — the merged result covers only
    #: the answering shards and is *explicitly flagged* as partial.
    PARTIAL = "partial"
    #: No shard answered.
    FAILED = "failed"
    #: The request arrived within one scatter round-trip of its
    #: deadline and was failed fast *before* fan-out — no shard ever
    #: saw it (:class:`repro.errors.DeadlineExceededError`).
    DEADLINE = "deadline"


@dataclass(frozen=True, eq=False)
class ClusterOutcome:
    """What the cluster did with one request.

    Attributes:
        request_id: The request's identifier.
        status: Served complete, flagged partial, or failed.
        ids: ``(m, k)`` merged *global* neighbor ids (``None`` when
            failed); padded with ``-1``.
        dists: Matching distances (``inf`` padding).
        arrival_seconds: Request arrival.
        completion_seconds: When the merged answer was ready — the
            slowest shard path, plus gather communication, plus the
            merge kernel.
        scatter_seconds: Broadcast cost of fanning the query out.
        gather_seconds: Gather cost of collecting shard answers.
        merge_seconds: Simulated time of the top-k merge launch.
        merge_cycles: Cycle charge of the merge launch.
        n_shards_answered: Shards contributing to the merged answer.
        missing_shards: Shards that contributed nothing (dead, or
            dispatch failed with no live sibling), ascending.
        n_failovers: Replica bounces + retry-lane re-executions this
            request survived.
        degraded_tier: Worst per-shard degradation tier merged in.
        detail: Failure reason for ``FAILED`` outcomes.
    """

    request_id: int
    status: ClusterStatus
    ids: Optional[np.ndarray]
    dists: Optional[np.ndarray]
    arrival_seconds: float
    completion_seconds: float
    scatter_seconds: float = 0.0
    gather_seconds: float = 0.0
    merge_seconds: float = 0.0
    merge_cycles: float = 0.0
    n_shards_answered: int = 0
    missing_shards: Tuple[int, ...] = ()
    n_failovers: int = 0
    degraded_tier: int = 0
    detail: str = ""

    @property
    def latency_seconds(self) -> float:
        """End-to-end latency of the merged answer."""
        return self.completion_seconds - self.arrival_seconds

    @property
    def answered(self) -> bool:
        """True when any result was delivered (complete or partial)."""
        return self.status in (ClusterStatus.SERVED,
                               ClusterStatus.PARTIAL)

    @property
    def complete(self) -> bool:
        """True when every shard contributed (exact over the corpus)."""
        return self.status is ClusterStatus.SERVED

    @property
    def n_queries(self) -> int:
        """Query vectors in the merged answer (0 when failed)."""
        return 0 if self.ids is None else int(self.ids.shape[0])


@dataclass
class ClusterReport:
    """Outcome of replaying one trace through the sharded cluster.

    Attributes:
        outcomes: Per-request records, arrival order.
        n_shards: Shard count of the topology.
        n_replicas: Replicas per shard.
        shard_sizes: Points held by each shard.
        shard_latencies: Per shard, the latency (request arrival to
            that shard's answer) of every shard-query it answered, in
            arrival order — the per-shard tail populations.
        makespan_seconds: First arrival to last completion.
        n_replica_deaths: ``worker_loss`` events the fault plan applied
            to the query path.
        metrics: Registry the replay published into;
            :meth:`verify_against_metrics` reconciles against it.
        wallclock_seconds: Host wall-clock of the replay (volatile;
            excluded from :meth:`to_bytes`).
        heal_enabled: Whether a self-healing policy was armed for the
            replay; gates the ``heal.*`` reconciliation and the heal
            section of :meth:`to_bytes` so heal-off reports stay
            byte-identical to their pre-heal encodings.
        repairs: :class:`repro.heal.controller.RepairRecord` per
            effective replica death, death order.
        mttr_bound_seconds: The armed policy's healing SLO (``0.0``
            when healing is off); :meth:`unhealed_within` and the soak
            oracles check repairs against it.
    """

    outcomes: List[ClusterOutcome]
    n_shards: int
    n_replicas: int
    shard_sizes: Tuple[int, ...] = ()
    shard_latencies: List[np.ndarray] = field(default_factory=list)
    makespan_seconds: float = 0.0
    n_replica_deaths: int = 0
    metrics: Optional[object] = None
    wallclock_seconds: float = 0.0
    heal_enabled: bool = False
    repairs: Tuple = ()
    mttr_bound_seconds: float = 0.0

    # ------------------------------------------------------------------
    # Populations
    # ------------------------------------------------------------------

    @property
    def n_requests(self) -> int:
        """All requests in the trace."""
        return len(self.outcomes)

    def _count(self, status: ClusterStatus) -> int:
        return sum(1 for o in self.outcomes if o.status is status)

    @property
    def n_served(self) -> int:
        """Requests answered completely (every shard contributed)."""
        return self._count(ClusterStatus.SERVED)

    @property
    def n_partial(self) -> int:
        """Requests answered with one or more shards missing."""
        return self._count(ClusterStatus.PARTIAL)

    @property
    def n_failed(self) -> int:
        """Requests no shard answered."""
        return self._count(ClusterStatus.FAILED)

    @property
    def n_deadline_failfast(self) -> int:
        """Requests rejected before fan-out (deadline unmeetable)."""
        return self._count(ClusterStatus.DEADLINE)

    @property
    def answered_queries(self) -> int:
        """Query vectors answered across the trace."""
        return sum(o.n_queries for o in self.outcomes if o.answered)

    @property
    def n_failovers(self) -> int:
        """Total replica bounces and retry-lane re-executions."""
        return sum(o.n_failovers for o in self.outcomes)

    @property
    def n_shard_misses(self) -> int:
        """Total (request, shard) pairs that contributed nothing."""
        return sum(len(o.missing_shards) for o in self.outcomes)

    # ------------------------------------------------------------------
    # Healing
    # ------------------------------------------------------------------

    @property
    def n_repairs(self) -> int:
        """Effective replica deaths the repair controller processed."""
        return len(self.repairs)

    @property
    def n_repairs_healed(self) -> int:
        """Repairs that re-admitted a digest-verified replica."""
        return sum(1 for r in self.repairs if r.healed)

    @property
    def n_repairs_abandoned(self) -> int:
        """Repairs that ran out of rebuild attempts (slot stays dead)."""
        return sum(1 for r in self.repairs if not r.healed)

    @property
    def n_quarantines(self) -> int:
        """Rebuild attempts discarded on a digest mismatch."""
        return sum(r.n_quarantined for r in self.repairs)

    def mttr_values(self) -> np.ndarray:
        """Death-to-re-admission times of every healed repair."""
        return np.array([r.mttr_seconds for r in self.repairs
                         if r.healed], dtype=np.float64)

    @property
    def max_mttr_seconds(self) -> float:
        """Worst healed MTTR (``0.0`` with no healed repairs)."""
        values = self.mttr_values()
        return float(values.max()) if len(values) else 0.0

    def unhealed_within(self, bound_seconds: float) -> List:
        """Repairs that missed the MTTR bound (abandoned, or too slow).

        The soak gate demands this list be empty for every
        single-replica loss the chaos plan induced.
        """
        return [r for r in self.repairs
                if not r.healed or r.mttr_seconds > bound_seconds]

    # ------------------------------------------------------------------
    # Latency / overhead
    # ------------------------------------------------------------------

    def latencies(self) -> np.ndarray:
        """Latency of every answered request, arrival order."""
        return np.array([o.latency_seconds for o in self.outcomes
                         if o.answered], dtype=np.float64)

    @property
    def p50_latency(self) -> float:
        """Median answered latency (seconds)."""
        return _percentile(self.latencies(), 50)

    @property
    def p95_latency(self) -> float:
        """95th-percentile answered latency (seconds)."""
        return _percentile(self.latencies(), 95)

    @property
    def p99_latency(self) -> float:
        """99th-percentile answered latency (seconds)."""
        return _percentile(self.latencies(), 99)

    def shard_percentile(self, shard: int, q: float) -> float:
        """Latency percentile of one shard's answered shard-queries."""
        return _percentile(self.shard_latencies[shard], q)

    def shard_p99s(self) -> List[float]:
        """p99 of every shard's answered shard-queries."""
        return [self.shard_percentile(s, 99)
                for s in range(len(self.shard_latencies))]

    @property
    def slowest_shard(self) -> int:
        """Shard with the highest p99 (``-1`` with no data)."""
        p99s = self.shard_p99s()
        finite = [(p, s) for s, p in enumerate(p99s)
                  if not np.isnan(p)]
        if not finite:
            return -1
        return max(finite)[1]

    @property
    def tail_amplification(self) -> float:
        """Cluster p99 over the slowest shard's p99.

        Scatter-gather waits for the maximum of the shard latencies, so
        this ratio is >= 1 in practice: it isolates how much of the
        cluster tail is fan-out synchronization + merge overhead rather
        than any single shard's own tail.  ``0.0`` when there is no
        latency population to compare.
        """
        slowest = self.slowest_shard
        if slowest < 0:
            return 0.0
        shard_p99 = self.shard_percentile(slowest, 99)
        cluster_p99 = self.p99_latency
        if np.isnan(cluster_p99) or shard_p99 <= 0:
            return 0.0
        return cluster_p99 / shard_p99

    @property
    def merge_overhead_cycles(self) -> float:
        """Total cycles charged to scatter-gather merge launches."""
        return _running_total(o.merge_cycles for o in self.outcomes)

    @property
    def merge_overhead_seconds(self) -> float:
        """Total simulated seconds of merge launches."""
        return _running_total(o.merge_seconds for o in self.outcomes)

    @property
    def comm_seconds(self) -> float:
        """Total scatter + gather network seconds."""
        return _running_total(o.scatter_seconds + o.gather_seconds
                              for o in self.outcomes)

    @property
    def qps(self) -> float:
        """Answered queries per simulated second of makespan."""
        if self.makespan_seconds <= 0:
            return float("inf") if self.answered_queries else 0.0
        return self.answered_queries / self.makespan_seconds

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def summary(self) -> str:
        """Multi-line human-readable summary (what ``cluster-sim`` prints)."""
        shard_p99s = self.shard_p99s()
        finite = [p for p in shard_p99s if not np.isnan(p)]
        lines = [
            f"ClusterReport: {self.n_shards} shards x "
            f"{self.n_replicas} replicas, {self.n_requests} requests "
            f"({self.answered_queries} queries answered) over "
            f"{self.makespan_seconds * 1e3:.1f} ms simulated",
            f"  shards        sizes {list(self.shard_sizes)}",
            f"  throughput    {self.qps:,.0f} queries/s",
            f"  latency       p50 {self.p50_latency * 1e3:.3f} ms   "
            f"p95 {self.p95_latency * 1e3:.3f} ms   "
            f"p99 {self.p99_latency * 1e3:.3f} ms",
            f"  shard p99     min {min(finite) * 1e3:.3f} ms   "
            f"max {max(finite) * 1e3:.3f} ms (shard "
            f"{self.slowest_shard})" if finite else
            "  shard p99     (no shard answered)",
            f"  tail amp      {self.tail_amplification:.3f}x vs "
            f"slowest shard",
            f"  merge         {self.merge_overhead_cycles:,.0f} cycles, "
            f"{self.merge_overhead_seconds * 1e3:.3f} ms; comm "
            f"{self.comm_seconds * 1e3:.3f} ms",
            f"  outcomes      {self.n_served} complete, "
            f"{self.n_partial} partial (flagged), "
            f"{self.n_failed} failed",
            f"  failover      {self.n_failovers} failovers, "
            f"{self.n_shard_misses} shard misses, "
            f"{self.n_replica_deaths} replica deaths scheduled",
        ]
        if self.n_deadline_failfast:
            lines.append(
                f"  deadlines     {self.n_deadline_failfast} requests "
                f"failed fast before fan-out")
        if self.heal_enabled:
            lines.append(
                f"  healing       {self.n_repairs_healed}/"
                f"{self.n_repairs} repairs admitted, "
                f"{self.n_quarantines} quarantined rebuilds, max MTTR "
                f"{self.max_mttr_seconds * 1e3:.3f} ms (bound "
                f"{self.mttr_bound_seconds * 1e3:.1f} ms)")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Registry view
    # ------------------------------------------------------------------

    def _observations(self) -> Dict[str, np.ndarray]:
        """Histogram populations, in publication order."""
        observed = {"cluster.latency_seconds": self.latencies()}
        if self.heal_enabled:
            observed["heal.mttr_seconds"] = self.mttr_values()
        return observed

    def metric_rows(self) -> List[MetricRow]:
        """The ``cluster.*`` / ``heal.*`` metric table.

        The one list :meth:`publish_metrics` writes and
        :meth:`verify_against_metrics` reads back.  Float totals are
        summed in arrival (repairs: death) order, one addition per
        record, so a value is the same bits however it is reached.
        """
        outcomes, repairs = self.outcomes, self.repairs

        def counters(totals: Dict[str, float], sparse: bool
                     ) -> List[MetricRow]:
            return [MetricRow(name, "counter", total, sparse)
                    for name, total in totals.items()]

        rows = [MetricRow("cluster.replica_deaths", "counter",
                          self.n_replica_deaths)]
        # Incremented once per outcome, by zero or not: absent only
        # from an empty replay.
        rows += counters({
            "cluster.requests": self.n_requests,
            "cluster.shards_answered":
                sum(o.n_shards_answered for o in outcomes),
            "cluster.failovers": self.n_failovers,
            "cluster.shard_misses": self.n_shard_misses,
            "cluster.merge_seconds": self.merge_overhead_seconds,
            "cluster.merge_cycles": self.merge_overhead_cycles,
            "cluster.gather_seconds":
                _running_total(o.gather_seconds for o in outcomes),
            "cluster.scatter_seconds":
                _running_total(o.scatter_seconds for o in outcomes),
        }, sparse=not outcomes)
        # Incremented only by the outcomes they describe.
        rows += counters({
            **{f"cluster.outcomes.{status.value}": self._count(status)
               for status in ClusterStatus},
            "cluster.deadline_failfast": self.n_deadline_failfast,
            # Deadline-rejected requests never fan out: no shard sees
            # them, so they contribute no shard-queries.
            "cluster.shard_queries":
                (self.n_requests - self.n_deadline_failfast)
                * self.n_shards,
            "cluster.queries_answered": self.answered_queries,
        }, sparse=True)
        rows.append(MetricRow("cluster.makespan_seconds", "gauge",
                              self.makespan_seconds))
        if self.heal_enabled:
            rows += counters({
                "heal.deaths_detected": self.n_repairs,
                "heal.rebuild_attempts":
                    sum(r.n_attempts for r in repairs),
                "heal.quarantines": self.n_quarantines,
                "heal.bytes_transferred":
                    sum(r.bytes_transferred for r in repairs),
                "heal.wal_records_replayed":
                    sum(r.wal_records_replayed for r in repairs),
                "heal.transfer_seconds":
                    _running_total(r.transfer_seconds for r in repairs),
                "heal.catchup_seconds":
                    _running_total(r.catchup_seconds for r in repairs),
                "heal.verify_seconds":
                    _running_total(r.verify_seconds for r in repairs),
                "heal.deserialize_seconds": _running_total(
                    sum(a.deserialize_seconds for a in r.attempts)
                    for r in repairs),
            }, sparse=not repairs)
            rows += counters({
                "heal.repairs_completed": self.n_repairs_healed,
                "heal.repairs_abandoned": self.n_repairs_abandoned,
            }, sparse=True)
            rows.append(MetricRow("heal.unhealed_replicas", "gauge",
                                  self.n_repairs_abandoned))
        rows += [MetricRow(name, "histogram", len(values))
                 for name, values in self._observations().items()]
        return rows

    def publish_metrics(self, registry) -> None:
        """Write :meth:`metric_rows` (and the histogram populations
        behind its counts) into ``registry``."""
        for row in self.metric_rows():
            if row.kind == "gauge":
                registry.gauge(row.name).set(row.value)
            elif row.kind == "counter" and (row.value or not row.sparse):
                registry.counter(row.name).inc(row.value)
        for name, values in self._observations().items():
            histogram = registry.histogram(name, DEFAULT_LATENCY_BUCKETS)
            for value in values:
                histogram.observe(value)

    def verify_against_metrics(self) -> None:
        """Assert this report is an exact view over its registry.

        Every row of :meth:`metric_rows` must equal what the registry
        holds.  Raises :class:`repro.errors.ObservabilityError` on the
        first mismatch; no-op without a registry.
        """
        if self.metrics is not None:
            self.metrics.reconcile(self.metric_rows())

    # ------------------------------------------------------------------
    # Canonical form
    # ------------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Canonical byte encoding of every result-bearing field.

        Two replays of the same trace under the same fault plan and
        topology must produce equal encodings — the cluster determinism
        suite and the smoke script compare these bytes directly.  The
        volatile host wall-clock is excluded.
        """
        chunks: List[bytes] = []
        for o in self.outcomes:
            head = (f"{o.request_id} {o.status.value} "
                    f"{o.n_shards_answered} "
                    f"{list(o.missing_shards)} {o.n_failovers} "
                    f"{o.degraded_tier} {o.arrival_seconds!r} "
                    f"{o.completion_seconds!r} {o.scatter_seconds!r} "
                    f"{o.gather_seconds!r} {o.merge_seconds!r} "
                    f"{o.merge_cycles!r} {o.detail}\n")
            chunks.append(head.encode("utf-8"))
            for arr in (o.ids, o.dists):
                chunks.append(b"-" if arr is None
                              else np.ascontiguousarray(arr).tobytes())
        for latencies in self.shard_latencies:
            chunks.append(
                np.ascontiguousarray(latencies).tobytes())
        tail = (f"\ntopology={self.n_shards}x{self.n_replicas}"
                f"\nsizes={list(self.shard_sizes)}"
                f"\nmakespan={self.makespan_seconds!r}"
                f"\ndeaths={self.n_replica_deaths}")
        chunks.append(tail.encode("utf-8"))
        if self.heal_enabled:
            heal_lines = [f"\nheal repairs={self.n_repairs} "
                          f"healed={self.n_repairs_healed} "
                          f"quarantines={self.n_quarantines} "
                          f"bound={self.mttr_bound_seconds!r}"]
            for r in self.repairs:
                heal_lines.append("\n" + r.to_line())
            chunks.append("".join(heal_lines).encode("utf-8"))
        return b"".join(chunks)

    def digest(self) -> str:
        """SHA-256 hex digest of :meth:`to_bytes`."""
        return hashlib.sha256(self.to_bytes()).hexdigest()
