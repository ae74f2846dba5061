"""Serving-run summary: latency percentiles, throughput, cache, rejects.

A :class:`ServeReport` is to the serving engine what
:class:`repro.core.results.SearchReport` is to one kernel launch — the
single object benchmarks and the CLI print, so that no caller re-derives
percentile or throughput rules.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.faults.report import FaultReport
from repro.observability.metrics import MetricRow
from repro.serve.request import RequestOutcome, RequestStatus


def _percentile(values: np.ndarray, q: float) -> float:
    """Linear-interpolation percentile with exact degenerate cases.

    ``np.percentile`` interpolates as ``a + gamma * (b - a)`` even when
    the bracketing samples coincide, which turns a single-sample or
    all-identical population containing ``inf`` into ``inf - inf =
    nan`` (and, for gamma on the boundary, need not return the stored
    float bit-for-bit).  The trace↔report reconciliation suite demands
    byte-exact percentiles, so the degenerate populations short-circuit
    to the exact stored value before NumPy interpolates.
    """
    if len(values) == 0:
        return float("nan")
    if len(values) == 1:
        return float(values[0])
    lo = float(values.min())
    hi = float(values.max())
    if lo == hi:
        return lo
    return float(np.percentile(values, q, method="linear"))


@dataclass
class ServeReport:
    """Outcome of replaying one query trace through the serving engine.

    Attributes:
        outcomes: Per-request records, in arrival order.
        batch_sizes: Queries per dispatched batch, in dispatch order.
        batch_triggers: Flush trigger per dispatched batch.
        makespan_seconds: First arrival to last completion.
        gpu_busy_seconds: Total simulated time the device spent on
            dispatched batches.
        cache_stats: The result cache's counters (``None`` when serving
            ran without a cache).
        fault_report: Fault-tolerance event ledger (``None`` when the
            engine ran without any fault machinery).
        metrics: The :class:`~repro.observability.metrics.MetricsRegistry`
            the replay published into.  The derived properties below
            are *views* whose values must reconcile with the registry
            exactly — :meth:`verify_against_metrics` enforces it, and
            the observability invariant suite pins it.
        wallclock_seconds: Host wall-clock the replay took.  Volatile:
            it varies run to run, so it is excluded from
            :meth:`to_bytes` (replay determinism is over *results*, not
            host speed) but still reconciled against the registry's
            ``perf.wallclock_seconds`` gauge.
        quant: Quantization mode the replay dispatched with
            (``"fp16"``/``"int8"``/``"pca"``), or ``None`` for exact
            serving.  Quantized serving is **lossy** — results under a
            mode live in their own cache namespace and may differ from
            exact serving (see ``docs/quantization.md``).
    """

    outcomes: List[RequestOutcome]
    batch_sizes: List[int] = field(default_factory=list)
    batch_triggers: List[str] = field(default_factory=list)
    makespan_seconds: float = 0.0
    gpu_busy_seconds: float = 0.0
    cache_stats: Optional[object] = None
    fault_report: Optional[FaultReport] = None
    metrics: Optional[object] = None
    wallclock_seconds: float = 0.0
    quant: Optional[str] = None

    # ------------------------------------------------------------------
    # Populations
    # ------------------------------------------------------------------

    @property
    def n_requests(self) -> int:
        """All requests in the trace, whatever their fate."""
        return len(self.outcomes)

    @property
    def n_served(self) -> int:
        """Requests answered (batched or from cache)."""
        return sum(1 for o in self.outcomes if o.served)

    def _count(self, status: RequestStatus) -> int:
        return sum(1 for o in self.outcomes if o.status is status)

    @property
    def n_cache_hits(self) -> int:
        """Requests answered entirely from the result cache."""
        return self._count(RequestStatus.CACHE_HIT)

    @property
    def n_rejected(self) -> int:
        """Requests refused by admission control."""
        return self._count(RequestStatus.REJECTED)

    @property
    def n_failed(self) -> int:
        """Requests whose dispatch failed permanently."""
        return self._count(RequestStatus.FAILED)

    @property
    def n_timed_out(self) -> int:
        """Requests dropped because their deadline expired in queue."""
        return self._count(RequestStatus.TIMED_OUT)

    @property
    def n_degraded(self) -> int:
        """Requests served below the full-quality tier."""
        return sum(1 for o in self.outcomes if o.degraded)

    @property
    def n_deadline_missed(self) -> int:
        """Requests served, but after their deadline."""
        return sum(1 for o in self.outcomes
                   if o.served and o.deadline_missed)

    def per_tier_counts(self) -> Dict[int, int]:
        """Served-request counts per degradation tier."""
        counts: Dict[int, int] = {}
        for o in self.outcomes:
            if o.served:
                counts[o.degraded_tier] = \
                    counts.get(o.degraded_tier, 0) + 1
        return counts

    @property
    def n_batches(self) -> int:
        """Batches dispatched to the device."""
        return len(self.batch_sizes)

    @property
    def served_queries(self) -> int:
        """Query vectors answered across served requests."""
        return sum(o.ids.shape[0] for o in self.outcomes if o.served)

    # ------------------------------------------------------------------
    # Latency / throughput
    # ------------------------------------------------------------------

    def latencies(self) -> np.ndarray:
        """End-to-end latency of every *served* request, arrival order."""
        return np.array([o.latency_seconds for o in self.outcomes
                         if o.served], dtype=np.float64)

    @property
    def p50_latency(self) -> float:
        """Median served latency (seconds)."""
        return _percentile(self.latencies(), 50)

    @property
    def p95_latency(self) -> float:
        """95th-percentile served latency (seconds)."""
        return _percentile(self.latencies(), 95)

    @property
    def p99_latency(self) -> float:
        """99th-percentile served latency (seconds)."""
        return _percentile(self.latencies(), 99)

    @property
    def mean_latency(self) -> float:
        """Mean served latency (seconds)."""
        lats = self.latencies()
        return float(lats.mean()) if len(lats) else float("nan")

    @property
    def qps(self) -> float:
        """Served queries per simulated second of makespan."""
        if self.makespan_seconds <= 0:
            return float("inf") if self.served_queries else 0.0
        return self.served_queries / self.makespan_seconds

    @property
    def mean_batch_size(self) -> float:
        """Average queries per dispatched batch."""
        if not self.batch_sizes:
            return 0.0
        return float(np.mean(self.batch_sizes))

    @property
    def gpu_utilisation(self) -> float:
        """Fraction of the makespan the device was busy."""
        if self.makespan_seconds <= 0:
            return 0.0
        return min(self.gpu_busy_seconds / self.makespan_seconds, 1.0)

    # ------------------------------------------------------------------
    # Rates
    # ------------------------------------------------------------------

    @property
    def cache_hit_rate(self) -> float:
        """Cache hits over all served requests."""
        served = self.n_served
        if served == 0:
            return 0.0
        return self.n_cache_hits / served

    @property
    def rejection_rate(self) -> float:
        """Rejected requests over all requests."""
        if self.n_requests == 0:
            return 0.0
        return self.n_rejected / self.n_requests

    @property
    def completion_rate(self) -> float:
        """Served requests (any tier) over all requests."""
        if self.n_requests == 0:
            return 0.0
        return self.n_served / self.n_requests

    def trigger_counts(self) -> Dict[str, int]:
        """How many batches each flush trigger produced."""
        counts: Dict[str, int] = {}
        for trigger in self.batch_triggers:
            counts[trigger] = counts.get(trigger, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def summary(self) -> str:
        """Multi-line human-readable summary (what ``serve-sim`` prints)."""
        lines = [
            f"ServeReport: {self.n_requests} requests "
            f"({self.served_queries} queries served) over "
            f"{self.makespan_seconds * 1e3:.1f} ms simulated",
            f"  throughput    {self.qps:,.0f} queries/s",
            f"  latency       p50 {self.p50_latency * 1e3:.3f} ms   "
            f"p95 {self.p95_latency * 1e3:.3f} ms   "
            f"p99 {self.p99_latency * 1e3:.3f} ms   "
            f"mean {self.mean_latency * 1e3:.3f} ms",
            f"  batches       {self.n_batches} dispatched, mean size "
            f"{self.mean_batch_size:.1f}"
            + (f" ({self._trigger_note()})" if self.batch_triggers else ""),
            f"  cache         {self.n_cache_hits} hits, "
            f"hit rate {self.cache_hit_rate:.1%}"
            + (f" ({self.cache_stats.evictions} evictions)"
               if self.cache_stats is not None else ""),
            f"  rejected      {self.n_rejected} "
            f"({self.rejection_rate:.1%})",
            f"  gpu busy      {self.gpu_utilisation:.1%} of makespan",
            # Deliberately no wall-clock here: summaries are part of the
            # CLI's byte-deterministic output; host seconds live in the
            # volatile perf.wallclock_seconds gauge instead.
        ]
        if self.quant is not None:
            lines.append(f"  quant         {self.quant} (lossy staged "
                         f"search; exact rerank of the candidate pool)")
        if (self.n_degraded or self.n_failed or self.n_timed_out
                or self.fault_report is not None):
            tiers = ", ".join(
                f"tier {tier}: {count}" for tier, count in
                sorted(self.per_tier_counts().items()))
            lines.append(f"  degraded      {self.n_degraded} served "
                         f"below tier 0 ({tiers})")
            lines.append(f"  failed        {self.n_failed} failed, "
                         f"{self.n_timed_out} timed out, "
                         f"{self.n_deadline_missed} served late")
        if self.fault_report is not None:
            lines.append(self.fault_report.summary())
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Registry view
    # ------------------------------------------------------------------

    def metric_rows(self) -> List[MetricRow]:
        """The metric table: every derived count above, as the registry
        the replay published into must hold it.

        The wall-clock gauge is volatile, but report and registry take
        it from one ``perf_counter`` delta.  A quantized replay ticks
        ``quant.batches`` and observes one rerank pool per dispatched
        batch; an exact replay publishes nothing under ``quant.*``.
        The fault rows are the ledger's own.
        """
        counters = {
            "serve.requests": self.n_requests,
            "serve.served": self.n_served,
            "serve.outcomes.cache_hit": self.n_cache_hits,
            "serve.outcomes.rejected": self.n_rejected,
            "serve.outcomes.failed": self.n_failed,
            "serve.outcomes.timed_out": self.n_timed_out,
            "serve.degraded": self.n_degraded,
            "serve.deadline_missed": self.n_deadline_missed,
            "serve.queries_served": self.served_queries,
            "serve.batches": self.n_batches,
        }
        for trigger, count in self.trigger_counts().items():
            counters[f"serve.batches.{trigger}"] = count
        for tier, count in self.per_tier_counts().items():
            counters[f"serve.served_tier.{tier}"] = count
        quant_batches = self.n_batches if self.quant is not None else 0
        counters["quant.batches"] = quant_batches
        rows = [MetricRow(name, "counter", count)
                for name, count in counters.items()]
        rows += [
            MetricRow("serve.makespan_seconds", "gauge",
                      self.makespan_seconds),
            MetricRow("serve.gpu_busy_seconds", "gauge",
                      self.gpu_busy_seconds),
            MetricRow("perf.wallclock_seconds", "gauge",
                      self.wallclock_seconds),
            MetricRow("serve.latency_seconds", "histogram",
                      self.n_served),
            MetricRow("quant.rerank_pool_size", "histogram",
                      quant_batches),
        ]
        if self.fault_report is not None:
            rows += self.fault_report.metric_rows()
        return rows

    def verify_against_metrics(self) -> None:
        """Assert this report is an exact view over its registry.

        Every row of :meth:`metric_rows` must equal the metric the
        engine published while replaying — the two accounting paths
        (outcome records vs. live metric publication) are allowed zero
        drift.  Raises :class:`repro.errors.ObservabilityError` on the
        first mismatch; a no-op when the report carries no registry.
        """
        if self.metrics is not None:
            self.metrics.reconcile(self.metric_rows())

    # ------------------------------------------------------------------
    # Canonical form
    # ------------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Canonical byte encoding of every result-bearing field.

        Two replays of the same trace under the same fault plan must
        produce equal encodings — the golden chaos-determinism test
        compares these bytes directly.
        """
        chunks: List[bytes] = []
        for o in self.outcomes:
            head = (f"{o.request_id} {o.status.value} {o.batch_index} "
                    f"{o.degraded_tier} {o.n_retries} "
                    f"{int(o.deadline_missed)} {o.arrival_seconds!r} "
                    f"{o.completion_seconds!r} {o.queue_seconds!r} "
                    f"{o.compute_seconds!r} {o.detail}\n")
            chunks.append(head.encode("utf-8"))
            for arr in (o.ids, o.dists):
                chunks.append(b"-" if arr is None
                              else np.ascontiguousarray(arr).tobytes())
        tail = (f"\nsizes={self.batch_sizes}"
                f"\ntriggers={self.batch_triggers}"
                f"\nmakespan={self.makespan_seconds!r}"
                f"\ngpu_busy={self.gpu_busy_seconds!r}")
        chunks.append(tail.encode("utf-8"))
        if self.fault_report is not None:
            chunks.append(b"\n")
            chunks.append(self.fault_report.to_bytes())
        return b"".join(chunks)

    def digest(self) -> str:
        """SHA-256 hex digest of :meth:`to_bytes`."""
        return hashlib.sha256(self.to_bytes()).hexdigest()

    def _trigger_note(self) -> str:
        counts = self.trigger_counts()
        return ", ".join(f"{n} by {trigger}"
                         for trigger, n in sorted(counts.items()))
