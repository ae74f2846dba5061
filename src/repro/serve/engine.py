"""The serving engine: admission, batching, dispatch, fault tolerance.

This is the layer the ROADMAP's "serving heavy traffic" goal needs on
top of the paper's kernel: individual requests arrive at arbitrary
times, but the GPU only pays off on large batches (Section III-B's
stream-overlap remark assumes thousands of queries in flight).  The
engine closes that gap:

1. **Admission** — a bounded queue; requests beyond ``max_queue``
   waiting-or-in-flight queries are rejected explicitly
   (:class:`repro.errors.OverloadError` semantics) instead of growing
   tail latency without bound.
2. **Cache** — an exact-verified LRU result cache answers repeated
   queries without touching the device.
3. **Micro-batching** — a :class:`MicroBatchScheduler` merges admitted
   requests and flushes on size or deadline.
4. **Dispatch** — merged batches run through
   :func:`repro.core.pipeline.stream_batches`; consecutive batches
   overlap on the simulated device exactly as the paper's CUDA streams
   do (batch ``i+1`` uploads while batch ``i`` computes).
5. **Fault tolerance** (:mod:`repro.faults`) — a seeded
   :class:`~repro.faults.plan.FaultPlan` may inject kernel timeouts,
   stalls, ECC errors and memory exhaustion into dispatch; the engine
   answers with per-request deadlines, capped-exponential retries, a
   circuit breaker, and (with an
   :class:`~repro.faults.policy.AdmissionGovernor`) graceful quality
   degradation instead of outright rejection.  Every event lands in a
   :class:`~repro.faults.report.FaultReport`.
6. **Demultiplexing** — per-request result slices, latency split into
   queue wait and compute, and a :class:`ServeReport` summary.

Everything runs in simulated seconds; a replay of the same trace under
the same fault plan is bit-for-bit deterministic, and every served
answer is either byte-identical to a direct
:func:`repro.core.ganns.ganns_search` of the same queries or explicitly
marked with the degradation tier it was served at (the integration
tests pin both properties).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.params import SearchParams
from repro.core.pipeline import stream_batches
from repro.errors import FaultError, ServeError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.policy import (
    AdmissionGovernor,
    BreakerPolicy,
    CircuitBreaker,
    DEGRADE_BREAKER,
    DEGRADE_PRESSURE,
    RetryPolicy,
)
from repro.faults.report import (
    DegradationRecord,
    FaultReport,
    InjectionRecord,
    RetryRecord,
)
from repro.graphs.adjacency import ProximityGraph
from repro.gpusim.costs import CostTable, DEFAULT_COSTS
from repro.gpusim.device import DeviceSpec, QUADRO_P5000
from repro.observability.bridge import publish_tracker_totals
from repro.observability.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    MetricsRegistry,
)
from repro.observability.span import SpanTracer
from repro.perf.quant import QUANT_BITS
from repro.serve.cache import ResultCache
from repro.serve.report import ServeReport
from repro.serve.request import QueryRequest, RequestOutcome, RequestStatus
from repro.serve.scheduler import Batch, BatchPolicy, MicroBatchScheduler


@dataclass(frozen=True)
class EngineSlots:
    """The exact engine occupancy of one dispatch attempt.

    The observability layer turns these into ``upload`` / ``compute`` /
    ``download`` spans on the per-engine lanes; the engine itself only
    needs :attr:`service_start` and :attr:`completion`.
    """

    upload_start: float
    upload_end: float
    compute_start: float
    compute_end: float
    download_start: float = 0.0
    download_end: float = 0.0

    @property
    def service_start(self) -> float:
        """When the attempt first occupied a device engine."""
        return self.upload_start

    @property
    def completion(self) -> float:
        """When the attempt's results finished downloading."""
        return self.download_end


@dataclass
class _EngineClock:
    """Free times of the three simulated device engines.

    Mirrors the double-buffered schedule of
    :func:`repro.core.pipeline.stream_batches`, but across dispatched
    micro-batches: the upload of batch ``i+1`` may proceed while batch
    ``i`` computes and batch ``i-1`` downloads.
    """

    upload_free: float = 0.0
    compute_free: float = 0.0
    download_free: float = 0.0

    def schedule(self, ready: float, upload: float, compute: float,
                 download: float) -> EngineSlots:
        """Run one batch; returns the attempt's engine occupancy."""
        upload_start = max(ready, self.upload_free)
        self.upload_free = upload_start + upload
        compute_start = max(self.compute_free, self.upload_free)
        self.compute_free = compute_start + compute
        download_start = max(self.download_free, self.compute_free)
        self.download_free = download_start + download
        return EngineSlots(
            upload_start=upload_start, upload_end=self.upload_free,
            compute_start=compute_start, compute_end=self.compute_free,
            download_start=download_start,
            download_end=self.download_free)

    def charge_failure(self, ready: float, upload: float,
                       compute: float) -> EngineSlots:
        """Occupy the upload/compute engines for a *failed* attempt.

        Nothing downloads — the attempt died before producing results —
        but the wasted engine time still delays everything behind it.
        The failure is detected at ``compute_end``.
        """
        upload_start = max(ready, self.upload_free)
        self.upload_free = upload_start + upload
        compute_start = max(self.compute_free, self.upload_free)
        self.compute_free = compute_start + compute
        return EngineSlots(
            upload_start=upload_start, upload_end=self.upload_free,
            compute_start=compute_start, compute_end=self.compute_free,
            download_start=self.compute_free,
            download_end=self.compute_free)


class ServeEngine:
    """Batched query-serving over one shared GANNS index.

    Args:
        graph: Proximity graph over ``points`` (a flat NSW/KNN graph).
        points: ``(n, d)`` data matrix the graph was built on.
        params: Search parameters applied to every dispatched batch.
        policy: Micro-batching and admission knobs.
        cache: Result cache; ``None`` disables caching entirely.
        device: Simulated device (clock and PCIe figures).
        costs: Cycle cost table.
        entry: Search entry vertex (scalar; shared by all queries).
        faults: Optional :class:`FaultPlan` to inject during dispatch.
            A fresh :class:`FaultInjector` is built per replay, so the
            same engine replays identically any number of times.
        retry: Backoff policy for failed dispatch attempts; defaults to
            :class:`RetryPolicy` when a fault plan is given.
        breaker: Circuit-breaker knobs; defaults to
            :class:`BreakerPolicy` when a fault plan is given.
        governor: Optional graceful-degradation governor.  Without one,
            overload rejects and an open breaker fails fast; with one,
            search quality steps down through its tiers instead.
        default_deadline_seconds: Deadline applied to requests that do
            not carry their own (relative to arrival); ``None`` means
            no deadline.
        family: Registered index family of the served graph (default
            ``"nsw"``).  Folded into every result-cache signature, so a
            cache shared across engines can never serve one family's
            results for another's.
    """

    def __init__(self, graph: ProximityGraph, points: np.ndarray,
                 params: Optional[SearchParams] = None,
                 policy: Optional[BatchPolicy] = None,
                 cache: Optional[ResultCache] = None,
                 device: DeviceSpec = QUADRO_P5000,
                 costs: CostTable = DEFAULT_COSTS,
                 entry: int = 0,
                 faults: Optional[FaultPlan] = None,
                 retry: Optional[RetryPolicy] = None,
                 breaker: Optional[BreakerPolicy] = None,
                 governor: Optional[AdmissionGovernor] = None,
                 default_deadline_seconds: Optional[float] = None,
                 family: str = "nsw"):
        from repro.core.backend import get_backend
        get_backend(family)  # typed error on unknown family names
        #: Index family of the served graph.  Results are family-shaped,
        #: so the family is folded into every cache signature — two
        #: engines sharing one :class:`ResultCache` across families can
        #: never serve each other's entries.
        self.family = family
        self.graph = graph
        self.points = np.asarray(points)
        if self.points.ndim != 2:
            raise ServeError(
                f"points must be a 2-D matrix, got shape "
                f"{self.points.shape}"
            )
        self.params = params if params is not None else SearchParams()
        self.policy = policy if policy is not None else BatchPolicy()
        self.cache = cache
        self.device = device
        self.costs = costs
        self.entry = int(entry)
        self.faults = faults
        if faults is not None:
            retry = retry if retry is not None else RetryPolicy()
            breaker = breaker if breaker is not None else BreakerPolicy()
        self.retry = retry
        self.breaker_policy = breaker
        self.governor = governor
        if governor is not None:
            # Fail at construction if any tier cannot hold k results.
            for tier in range(1, governor.n_tiers):
                governor.params_for(tier, self.params)
        if (default_deadline_seconds is not None
                and default_deadline_seconds <= 0):
            raise ServeError(
                f"default_deadline_seconds must be positive, got "
                f"{default_deadline_seconds}"
            )
        self.default_deadline_seconds = default_deadline_seconds
        #: Epoch of the pinned snapshot this engine serves, or ``None``
        #: for an engine built directly over a graph.
        self.snapshot_epoch: Optional[int] = None

    @classmethod
    def from_snapshot(cls, handle, **kwargs) -> "ServeEngine":
        """Serve one pinned epoch of a mutable index.

        Args:
            handle: A :class:`repro.mutable.snapshot.SnapshotHandle`.
                Its ``serving_view()`` — where tombstoned vertices are
                already detached, so no answer can name a deleted id —
                becomes the engine's graph, points and entry.
            **kwargs: Everything :class:`ServeEngine` accepts except
                ``graph``/``points``/``entry``.

        The handle pins its arrays against later mutations, so replays
        through the returned engine are byte-identical no matter what
        lands on the live index afterwards.  A supplied ``cache`` is
        version-bumped to the snapshot epoch, evicting entries cached
        under any older epoch.
        """
        view_graph, view_points, view_entry = handle.serving_view()
        cache = kwargs.get("cache")
        if cache is not None and cache.version < handle.epoch:
            cache.bump_version(handle.epoch)
        engine = cls(view_graph, view_points, entry=view_entry,
                     **kwargs)
        engine.snapshot_epoch = handle.epoch
        return engine

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------

    def _deadline_of(self, req: QueryRequest) -> Optional[float]:
        """Absolute deadline of one request, or ``None``."""
        relative = (req.deadline_seconds
                    if req.deadline_seconds is not None
                    else self.default_deadline_seconds)
        if relative is None:
            return None
        return req.arrival_seconds + relative

    def replay(self, trace: Sequence[QueryRequest],
               tracer: Optional[SpanTracer] = None,
               metrics: Optional[MetricsRegistry] = None) -> ServeReport:
        """Replay an arrival-ordered trace to quiescence.

        Args:
            trace: Requests with non-decreasing ``arrival_seconds``.
            tracer: Optional :class:`SpanTracer`; when given, the whole
                replay is traced on the simulated clock (request
                lifecycles, batch formation, dispatch attempts, engine
                occupancy, fault/retry/degrade events).  Every span the
                engine opens is closed before :meth:`replay` returns.
            metrics: Optional :class:`MetricsRegistry` to publish into;
                one is created internally when omitted.  Either way the
                registry is attached to the returned report
                (``report.metrics``), whose derived properties are
                views that reconcile with it exactly
                (:meth:`ServeReport.verify_against_metrics`).

        Returns:
            A :class:`ServeReport` holding every request's outcome and,
            when fault machinery is configured, a
            :class:`FaultReport` of every fault-tolerance event.

        Raises:
            ServeError: On an out-of-order trace or a query whose
                dimensionality does not match the served points.
        """
        wall_start = time.perf_counter()
        trace = list(trace)
        quant_mode = self.params.quant
        rerank_pool = self.params.rerank_factor * self.params.l_n
        # Quantized serving is lossy, so its results live in their own
        # cache namespace: the signature gains a quant component and a
        # compressed-traversal hit can never answer an exact request
        # (or a request under a different mode / rerank factor).
        signature = (self.family,) + self.params.signature()
        if quant_mode is not None:
            signature = ((self.family,
                          f"quant:{quant_mode}:rf"
                          f"{self.params.rerank_factor}")
                         + self.params.signature())
        scheduler = MicroBatchScheduler(self.policy)
        clock = _EngineClock()
        injector = (FaultInjector(self.faults)
                    if self.faults is not None else None)
        breaker = (CircuitBreaker(self.breaker_policy)
                   if self.breaker_policy is not None else None)
        jitter_rng = (injector.jitter_rng if injector is not None
                      else np.random.default_rng(0))
        fault_report = FaultReport(
            scheduled_faults=len(self.faults.kernel_events())
            if self.faults is not None else 0)
        registry = metrics if metrics is not None else MetricsRegistry()
        registry.counter("faults.scheduled").inc(
            fault_report.scheduled_faults)
        latency_hist = registry.histogram("serve.latency_seconds",
                                          DEFAULT_LATENCY_BUCKETS)
        queue_hist = registry.histogram("serve.queue_seconds",
                                        DEFAULT_LATENCY_BUCKETS)
        size_hist = registry.histogram("serve.batch_size",
                                       DEFAULT_SIZE_BUCKETS)
        # Quant metrics exist only when the replay actually runs the
        # staged pipeline — an exact replay publishes nothing under
        # ``quant.*``, so committed golden traces are quant-silent.
        rerank_hist = (registry.histogram("quant.rerank_pool_size",
                                          DEFAULT_SIZE_BUCKETS)
                       if quant_mode is not None else None)
        outcomes: List[Optional[RequestOutcome]] = [None] * len(trace)
        positions = {}
        for pos, req in enumerate(trace):
            if id(req) in positions:
                raise ServeError(
                    f"trace contains the same request object twice "
                    f"(request_id {req.request_id}); construct a fresh "
                    f"QueryRequest per arrival"
                )
            positions[id(req)] = pos
        batch_sizes: List[int] = []
        batch_triggers: List[str] = []
        in_flight: List[tuple] = []  # (completion_seconds, n_queries)
        gpu_busy = 0.0
        root_start = trace[0].arrival_seconds if trace else 0.0
        root_span = (tracer.begin(
            "serve.replay", root_start, lane="engine",
            attributes={"n_requests": len(trace)})
            if tracer is not None else None)
        request_spans: dict = {}

        def finish(req: QueryRequest, **kwargs) -> None:
            outcome = RequestOutcome(
                request_id=req.request_id,
                arrival_seconds=req.arrival_seconds, **kwargs)
            outcomes[positions[id(req)]] = outcome
            registry.counter(
                f"serve.outcomes.{outcome.status.value}").inc()
            if outcome.served:
                registry.counter("serve.served").inc()
                registry.counter("serve.queries_served").inc(
                    req.n_queries)
                registry.counter(
                    f"serve.served_tier.{outcome.degraded_tier}").inc()
                latency_hist.observe(outcome.latency_seconds)
                queue_hist.observe(outcome.queue_seconds)
                if outcome.degraded:
                    registry.counter("serve.degraded").inc()
                if outcome.deadline_missed:
                    registry.counter("serve.deadline_missed").inc()
            span_id = request_spans.pop(id(req), None)
            if span_id is None:
                return
            if outcome.status is RequestStatus.SERVED:
                service_start = (outcome.arrival_seconds
                                 + outcome.queue_seconds)
                tracer.add("request.queue", outcome.arrival_seconds,
                           service_start, parent_id=span_id)
                tracer.add("request.compute", service_start,
                           outcome.completion_seconds,
                           parent_id=span_id)
            close_attrs = {
                "status": outcome.status.value,
                "batch_index": outcome.batch_index,
                "tier": outcome.degraded_tier,
                "n_retries": outcome.n_retries,
                "deadline_missed": outcome.deadline_missed,
            }
            if outcome.detail:
                close_attrs["detail"] = outcome.detail
            tracer.end(span_id, outcome.completion_seconds,
                       attributes=close_attrs)

        def fail_batch(live, batch, when, detail) -> None:
            for req in live:
                finish(req, status=RequestStatus.FAILED,
                       ids=None, dists=None, completion_seconds=when,
                       queue_seconds=when - req.arrival_seconds,
                       batch_index=batch.index, detail=detail)

        def record_batch(batch: Batch, n_queries: int) -> None:
            batch_sizes.append(n_queries)
            batch_triggers.append(batch.trigger)
            registry.counter("serve.batches").inc()
            registry.counter(f"serve.batches.{batch.trigger}").inc()
            registry.counter("serve.queries_dispatched").inc(n_queries)
            size_hist.observe(n_queries)
            if rerank_hist is not None:
                registry.counter("quant.batches").inc()
                rerank_hist.observe(rerank_pool)

        def attempt_spans(batch_span, ready: float, attempt: int,
                          slots: EngineSlots, end: float,
                          failed: bool) -> Optional[int]:
            """Trace one dispatch attempt's engine occupancy."""
            if tracer is None:
                return None
            span = tracer.begin("attempt", ready, parent_id=batch_span,
                                attributes={"attempt": attempt})
            tracer.add("upload", slots.upload_start, slots.upload_end,
                       parent_id=span, lane="engine/upload")
            compute_id = tracer.add(
                "compute", slots.compute_start, slots.compute_end,
                parent_id=span, lane="engine/compute")
            if not failed:
                tracer.add("download", slots.download_start,
                           slots.download_end, parent_id=span,
                           lane="engine/download")
            tracer.end(span, end, attributes={
                "outcome": "failed" if failed else "ok"})
            return compute_id

        def dispatch(batch: Batch) -> None:
            nonlocal gpu_busy
            now = batch.flush_seconds
            batch_span = None
            if tracer is not None:
                batch_span = tracer.begin(
                    "batch", batch.open_seconds, parent_id=root_span,
                    lane_group="batches",
                    attributes={"batch_index": batch.index,
                                "trigger": batch.trigger,
                                "n_requests": batch.n_requests,
                                "n_queries": batch.n_queries})
                tracer.add("batch.form", batch.open_seconds, now,
                           parent_id=batch_span)

            # Deadline load-shedding: a request already past its
            # deadline gains nothing from dispatch — drop it before it
            # wastes device time.
            live = []
            for req in batch.requests:
                deadline = self._deadline_of(req)
                if deadline is not None and deadline <= now:
                    if batch_span is not None:
                        tracer.event(batch_span, now, "deadline_drop",
                                     {"request_id": req.request_id})
                    finish(req, status=RequestStatus.TIMED_OUT,
                           ids=None, dists=None, completion_seconds=now,
                           queue_seconds=now - req.arrival_seconds,
                           batch_index=batch.index,
                           detail="deadline expired while queued")
                    fault_report.deadline_dropped_requests += 1
                    registry.counter("faults.deadline_dropped").inc()
                else:
                    live.append(req)
            if not live:
                if batch_span is not None:
                    tracer.end(batch_span, now,
                               attributes={"outcome": "all_dropped"})
                return

            # Circuit breaker: while open, fail fast instead of feeding
            # a dying kernel more work.
            if breaker is not None and not breaker.allow(now):
                if batch_span is not None:
                    tracer.event(batch_span, now, "breaker_open")
                fail_batch(live, batch, now, "circuit breaker open")
                fault_report.fast_failed_requests += len(live)
                registry.counter("faults.fast_failed").inc(len(live))
                if batch_span is not None:
                    tracer.end(batch_span, now,
                               attributes={"outcome": "fast_failed"})
                return

            # Graceful degradation: pick this dispatch's quality tier.
            tier = 0
            params = self.params
            if self.governor is not None:
                inflight_queries = sum(n for c, n in in_flight if c > now)
                pressure = ((batch.n_queries + inflight_queries
                             + scheduler.pending_queries)
                            / self.policy.max_queue)
                impaired = breaker is not None and breaker.impaired
                tier = self.governor.select_tier(pressure, impaired)
                if tier > 0:
                    params = self.governor.params_for(tier, self.params)
                    reason = (DEGRADE_BREAKER if impaired
                              else DEGRADE_PRESSURE)
                    fault_report.degradations.append(DegradationRecord(
                        seconds=now, batch_index=batch.index, tier=tier,
                        reason=reason))
                    registry.counter("faults.degraded_batches").inc()
                    if batch_span is not None:
                        tracer.event(batch_span, now, "degrade",
                                     {"tier": tier, "reason": reason})

            queries = np.concatenate(
                [req.queries for req in live], axis=0)

            ready = now
            attempt = 0
            while True:
                consumed: List = []
                hook = (injector.hook(ready, sink=consumed,
                                      metrics=registry)
                        if injector is not None else None)
                try:
                    stream = stream_batches(
                        self.graph, self.points, queries, params,
                        batch_size=len(queries), device=self.device,
                        costs=self.costs, entry=self.entry,
                        fault_hook=hook)
                except FaultError as err:
                    fault_report.injections.append(InjectionRecord(
                        seconds=ready, kind=err.kind,
                        batch_index=batch.index, attempt=attempt,
                        fatal=True))
                    registry.counter("faults.injected").inc()
                    registry.counter("faults.fatal").inc()
                    slots = clock.charge_failure(
                        ready, err.upload_seconds, err.compute_seconds)
                    failed_at = slots.compute_end
                    gpu_busy += err.compute_seconds
                    if tracer is not None:
                        att = tracer.begin(
                            "attempt", ready, parent_id=batch_span,
                            attributes={"attempt": attempt})
                        tracer.add("upload", slots.upload_start,
                                   slots.upload_end, parent_id=att,
                                   lane="engine/upload")
                        tracer.add("compute", slots.compute_start,
                                   slots.compute_end, parent_id=att,
                                   lane="engine/compute")
                        tracer.event(att, failed_at, "fault",
                                     {"kind": err.kind, "fatal": True})
                        tracer.end(att, failed_at, attributes={
                            "outcome": "failed"})
                    if breaker is not None:
                        breaker.record_failure(failed_at)
                    tripped = (breaker is not None
                               and not breaker.allow(failed_at))
                    exhausted = (self.retry is None
                                 or attempt >= self.retry.max_retries)
                    if tripped or exhausted:
                        detail = ("circuit breaker open" if tripped
                                  else f"retries exhausted after "
                                       f"{attempt + 1} attempts "
                                       f"({err.kind})")
                        fail_batch(live, batch, failed_at, detail)
                        in_flight.append((failed_at, len(queries)))
                        record_batch(batch, len(queries))
                        if batch_span is not None:
                            tracer.end(batch_span, failed_at,
                                       attributes={"outcome": "failed",
                                                   "detail": detail})
                        return
                    attempt += 1
                    backoff = self.retry.backoff_seconds(
                        attempt, jitter_rng)
                    fault_report.retries.append(RetryRecord(
                        seconds=failed_at, batch_index=batch.index,
                        attempt=attempt, backoff_seconds=backoff))
                    registry.counter("faults.retries").inc()
                    if tracer is not None:
                        tracer.add("retry.backoff", failed_at,
                                   failed_at + backoff,
                                   parent_id=batch_span,
                                   attributes={"attempt": attempt})
                    ready = failed_at + backoff
                    continue
                break

            # Survivable faults (stalls) consumed by the winning attempt.
            for event in consumed:
                fault_report.injections.append(InjectionRecord(
                    seconds=ready, kind=event.kind,
                    batch_index=batch.index, attempt=attempt,
                    fatal=False))
                registry.counter("faults.injected").inc()

            timing = stream.batches[0]
            slots = clock.schedule(
                ready, timing.upload_seconds,
                timing.compute_seconds, timing.download_seconds)
            start, completion = slots.service_start, slots.completion
            compute_span = attempt_spans(batch_span, ready, attempt,
                                         slots, completion, False)
            kernel_tracker = stream.reports[0].tracker
            publish_tracker_totals(registry, kernel_tracker)
            if compute_span is not None:
                cycle_attrs = {
                    f"cycles.{phase}": total for phase, total
                    in kernel_tracker.phase_totals().items()}
                cycle_attrs["cycles_total"] = \
                    kernel_tracker.total_cycles()
                if quant_mode is not None:
                    cycle_attrs["quant.mode"] = quant_mode
                    cycle_attrs["quant.bits"] = QUANT_BITS[quant_mode]
                    cycle_attrs["quant.rerank"] = \
                        self.params.rerank_factor
                tracer.spans[compute_span].attributes.update(
                    cycle_attrs)
                for event in consumed:
                    tracer.event(compute_span, slots.compute_start,
                                 "fault", {"kind": event.kind,
                                           "fatal": False})
            if breaker is not None:
                breaker.record_success(completion)
            gpu_busy += timing.compute_seconds
            in_flight.append((completion, len(queries)))
            record_batch(batch, len(queries))
            if batch_span is not None:
                tracer.end(batch_span, completion,
                           attributes={"outcome": "served",
                                       "tier": tier,
                                       "n_attempts": attempt + 1})

            offset = 0
            for req in live:
                ids = stream.ids[offset:offset + req.n_queries]
                dists = stream.dists[offset:offset + req.n_queries]
                offset += req.n_queries
                deadline = self._deadline_of(req)
                finish(req, status=RequestStatus.SERVED,
                       ids=ids.copy(), dists=dists.copy(),
                       completion_seconds=completion,
                       queue_seconds=start - req.arrival_seconds,
                       compute_seconds=completion - start,
                       batch_index=batch.index,
                       degraded_tier=tier,
                       deadline_missed=(deadline is not None
                                        and completion > deadline),
                       n_retries=attempt)
                # Only full-quality answers enter the cache: a degraded
                # result under the tier-0 signature would be a silent
                # quality lie on the next hit.
                if self.cache is not None and tier == 0:
                    for row in range(req.n_queries):
                        self.cache.put(req.queries[row], signature,
                                       ids[row], dists[row])

        last_arrival = float("-inf")
        for pos, req in enumerate(trace):
            if req.arrival_seconds < last_arrival:
                raise ServeError(
                    f"trace is not arrival-ordered: request "
                    f"{req.request_id} at {req.arrival_seconds} after "
                    f"{last_arrival}"
                )
            last_arrival = req.arrival_seconds
            if req.queries.shape[1] != self.points.shape[1]:
                raise ServeError(
                    f"request {req.request_id}: query dimensionality "
                    f"{req.queries.shape[1]} does not match the index "
                    f"({self.points.shape[1]})"
                )
            now = req.arrival_seconds
            registry.counter("serve.requests").inc()
            if tracer is not None:
                request_spans[id(req)] = tracer.begin(
                    "request", now, parent_id=root_span,
                    lane_group="requests",
                    attributes={"request_id": req.request_id,
                                "n_queries": req.n_queries})
            for batch in scheduler.poll(now):
                dispatch(batch)

            hit = self._cache_lookup(req, signature)
            if hit is not None:
                ids, dists = hit
                registry.counter("serve.cache_hits").inc()
                finish(req, status=RequestStatus.CACHE_HIT,
                       ids=ids, dists=dists, completion_seconds=now)
                continue

            in_flight[:] = [(c, n) for c, n in in_flight if c > now]
            backlog = scheduler.pending_queries \
                + sum(n for _, n in in_flight)
            if backlog + req.n_queries > self.policy.max_queue:
                finish(req, status=RequestStatus.REJECTED,
                       ids=None, dists=None, completion_seconds=now,
                       detail="admission queue full")
                continue

            for batch in scheduler.submit(req, now):
                dispatch(batch)

        for batch in scheduler.drain():
            dispatch(batch)

        assert all(outcome is not None for outcome in outcomes)
        if breaker is not None:
            fault_report.breaker_transitions = list(breaker.transitions)
            fault_report.probe_successes = breaker.probe_successes
            for transition in breaker.transitions:
                registry.counter(
                    f"faults.breaker.{transition.to_state}").inc()
            registry.counter("faults.breaker.probe_successes").inc(
                breaker.probe_successes)
        first_arrival = trace[0].arrival_seconds if trace else 0.0
        last_completion = max(
            (o.completion_seconds for o in outcomes), default=0.0)
        makespan = max(last_completion - first_arrival, 0.0)
        registry.gauge("serve.makespan_seconds").set(makespan)
        registry.gauge("serve.gpu_busy_seconds").set(gpu_busy)
        # Host wall-clock of this replay — the one *volatile* metric the
        # engine publishes (excluded from canonical snapshots; see
        # repro.observability.metrics.VOLATILE_PREFIX).
        wallclock = time.perf_counter() - wall_start
        registry.gauge("perf.wallclock_seconds").set(wallclock)
        if tracer is not None:
            root_end = max(last_completion, last_arrival, root_start) \
                if trace else root_start
            tracer.end(root_span, root_end)
        has_fault_machinery = (self.faults is not None
                               or self.breaker_policy is not None
                               or self.governor is not None
                               or self.default_deadline_seconds is not None)
        return ServeReport(
            outcomes=outcomes,
            batch_sizes=batch_sizes,
            batch_triggers=batch_triggers,
            makespan_seconds=makespan,
            gpu_busy_seconds=gpu_busy,
            cache_stats=self.cache.stats if self.cache is not None
            else None,
            fault_report=fault_report if has_fault_machinery else None,
            metrics=registry,
            wallclock_seconds=wallclock,
            quant=quant_mode,
        )

    def _cache_lookup(self, req: QueryRequest, signature: tuple
                      ) -> Optional[tuple]:
        """All-or-nothing cache lookup for one request.

        Every vector of the request must hit for the request to be a
        cache hit (a request's queries are answered together); a partial
        hit falls through to batching and the hit vectors are simply
        recomputed — the per-vector counters in ``cache.stats`` record
        the partial hits.
        """
        if self.cache is None:
            return None
        rows = []
        for row in range(req.n_queries):
            found = self.cache.get(req.queries[row], signature)
            if found is None:
                return None
            rows.append(found)
        ids = np.stack([r[0] for r in rows], axis=0)
        dists = np.stack([r[1] for r in rows], axis=0)
        return ids, dists
