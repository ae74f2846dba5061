"""The serving engine: admission, batching, dispatch, fault tolerance.

Serving heavy traffic needs this layer on top of the paper's kernel:
individual requests arrive at arbitrary times, but the GPU only pays
off on large batches (Section III-B's stream-overlap remark assumes
thousands of queries in flight).  The engine closes that gap:

1. **Admission** — a bounded queue; requests beyond ``max_queue``
   waiting-or-in-flight queries are rejected explicitly
   (:class:`repro.errors.OverloadError` semantics) instead of growing
   tail latency without bound.
2. **Cache** — the engine's own LRU result cache answers repeated
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
from typing import Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.core.params import SearchParams
from repro.core.pipeline import (
    EngineClock,
    EngineSlots,
    StreamResult,
    _LaneStore,
    stream_batches,
)
from repro.errors import DeviceError, FaultError, ReproError, ServeError
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
from repro.gpusim.device import QUADRO_P5000
from repro.gpusim.memory import SharedMemoryBudget
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
from repro.serve.request import (
    QueryRequest,
    RequestOutcome,
    RequestStatus,
    check_deadline,
    validate_trace,
)
from repro.serve.scheduler import Batch, BatchPolicy, MicroBatchScheduler


def check_pool_fits(params: SearchParams, d_max: int,
                    error: Type[ReproError]) -> None:
    """Refuse ``params`` whose search block would not fit the shared
    memory of ``QUADRO_P5000``: the pool the search allocates
    (``rerank_factor * l_n`` under ``quant``) beside a ``d_max``-wide
    neighbor buffer.  Without this, the first dispatched batch raises
    instead."""
    pool = params.l_n * (params.rerank_factor
                         if params.quant is not None else 1)
    try:
        SharedMemoryBudget(l_n=pool, l_t=d_max).validate(QUADRO_P5000)
    except DeviceError as exc:
        raise error(
            f"l_n={params.l_n} (a pool of {pool}) over graph d_max={d_max} "
            f"does not fit in shared memory: {exc}") from exc


class ServeEngine:
    """Batched query-serving over one shared GANNS index.

    Args:
        graph: Proximity graph over ``points`` (a flat NSW/KNN graph).
        points: ``(n, d)`` data matrix the graph was built on.
        params: Search parameters applied to every dispatched batch.
        policy: Micro-batching and admission knobs.
        cache: Result cache; ``None`` disables caching entirely.  The
            engine binds it: a cache serves one engine (its graph, corpus
            and tier-0 parameters), so its key is the query alone.
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
            no deadline, anything else must be finite and positive.

    Raises:
        ServeError: On ``points`` that is not a 2-D matrix, ``k`` above
            the graph's vertex count, a search block that does not
            fit the device's shared memory (:func:`check_pool_fits`),
            or a ``cache`` another engine already serves.
    """

    def __init__(self, graph: ProximityGraph, points: np.ndarray,
                 params: Optional[SearchParams] = None,
                 policy: Optional[BatchPolicy] = None,
                 cache: Optional[ResultCache] = None,
                 faults: Optional[FaultPlan] = None,
                 retry: Optional[RetryPolicy] = None,
                 breaker: Optional[BreakerPolicy] = None,
                 governor: Optional[AdmissionGovernor] = None,
                 default_deadline_seconds: Optional[float] = None):
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
        if self.params.k > graph.n_vertices:
            raise ServeError(
                f"k={self.params.k} exceeds the {graph.n_vertices} "
                f"vertices of the served graph")
        check_pool_fits(self.params, graph.d_max, ServeError)
        self.default_deadline_seconds = check_deadline(
            default_deadline_seconds, "default_deadline_seconds")
        if cache is not None:
            if cache.owner is not None:
                raise ServeError(
                    "this ResultCache already serves another ServeEngine; "
                    "its entries answer that engine's graph and params, "
                    "so give each engine its own cache")
            cache.owner = self

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------

    def replay(self, trace: Sequence[QueryRequest],
               tracer: Optional[SpanTracer] = None,
               metrics: Optional[MetricsRegistry] = None,
               _lanes: Optional[_LaneStore] = None) -> ServeReport:
        """Replay an arrival-ordered trace to quiescence.

        A short driver over the stages of :class:`_Replay`: every
        request is admitted in arrival order (which dispatches the
        batches that flush on the way), the scheduler is drained, and
        the replay is closed into its report.

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
            _lanes: Package-internal: a lane store to dispatch through
                in place of this replay's own (a cluster replay's,
                shared by every shard's replica slots).

        Returns:
            A :class:`ServeReport` holding every request's outcome and,
            when fault machinery is configured, a
            :class:`FaultReport` of every fault-tolerance event.

        Raises:
            ServeError: On an out-of-order trace, a query matrix whose
                dimensionality or dtype does not match the served
                points or that holds NaN / infinite values, or a
                request object that appears twice.
        """
        wall_start = time.perf_counter()
        trace = list(trace)
        validate_trace(trace, self.points)
        registry = metrics if metrics is not None else MetricsRegistry()
        if _lanes is None:
            _lanes = _LaneStore(
                [(self.graph, self.points, [req.queries for req in trace])],
                self.params)
        run = _Replay(self, trace, tracer, registry, _lanes)
        for req in trace:
            run.admit(req)
        for batch in run.scheduler.drain():
            run.dispatch(batch)
        report = run.close()
        # Host wall-clock of this replay — the one *volatile* metric the
        # engine publishes (excluded from canonical snapshots; see
        # repro.observability.metrics.VOLATILE_PREFIX).
        report.wallclock_seconds = time.perf_counter() - wall_start
        registry.gauge("perf.wallclock_seconds").set(
            report.wallclock_seconds)
        return report

    def _cache_lookup(self, req: QueryRequest) -> Optional[tuple]:
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
            found = self.cache.get(req.queries[row])
            if found is None:
                return None
            rows.append(found)
        ids = np.stack([r[0] for r in rows], axis=0)
        dists = np.stack([r[1] for r in rows], axis=0)
        return ids, dists


class _Replay:
    """State of one :meth:`ServeEngine.replay`, one method per stage.

    ``admit`` takes each arrival through cache and admission control
    into the micro-batch queue; every batch the scheduler flushes goes
    through ``dispatch`` = ``shed_expired`` → ``breaker_gate`` →
    ``select_tier`` → ``run_attempts`` → ``deliver``; ``close`` turns
    the finished replay into its report.  Span ids are creation-ordered
    and the golden trace pins them, so the stages emit spans as they
    go, never retroactively.
    """

    def __init__(self, engine: ServeEngine, trace: List[QueryRequest],
                 tracer: Optional[SpanTracer],
                 registry: MetricsRegistry, lanes: _LaneStore):
        self.engine = engine
        self.trace = trace
        self.tracer = tracer
        self.registry = registry
        #: Where every dispatch attempt of this replay is searched.
        self.lanes = lanes
        self.positions: Dict[int, int] = {}
        for pos, req in enumerate(trace):
            if id(req) in self.positions:
                raise ServeError(
                    f"trace contains the same request object twice "
                    f"(request_id {req.request_id}); construct a fresh "
                    f"QueryRequest per arrival"
                )
            self.positions[id(req)] = pos
        params = engine.params
        self.scheduler = MicroBatchScheduler(engine.policy)
        self.clock = EngineClock()
        self.injector = (FaultInjector(engine.faults)
                         if engine.faults is not None else None)
        self.breaker = (CircuitBreaker(engine.breaker_policy)
                        if engine.breaker_policy is not None else None)
        self.jitter_rng = (self.injector.jitter_rng
                           if self.injector is not None
                           else np.random.default_rng(0))
        #: The ledger the stages write as they go; the registry is the
        #: independent second account of the same events.
        self.report = ServeReport(
            outcomes=[None] * len(trace),
            cache_stats=(engine.cache.stats if engine.cache is not None
                         else None),
            fault_report=FaultReport(
                scheduled_faults=len(engine.faults.kernel_events())
                if engine.faults is not None else 0),
            metrics=registry, quant=params.quant)
        self.fault_report = self.report.fault_report
        registry.counter("faults.scheduled").inc(
            self.fault_report.scheduled_faults)
        self.latency_hist = registry.histogram(
            "serve.latency_seconds", DEFAULT_LATENCY_BUCKETS)
        self.queue_hist = registry.histogram(
            "serve.queue_seconds", DEFAULT_LATENCY_BUCKETS)
        self.size_hist = registry.histogram(
            "serve.batch_size", DEFAULT_SIZE_BUCKETS)
        # Quant metrics exist only when the replay actually runs the
        # staged pipeline — an exact replay publishes nothing under
        # ``quant.*``, so committed golden traces are quant-silent.
        self.rerank_hist = (registry.histogram("quant.rerank_pool_size",
                                               DEFAULT_SIZE_BUCKETS)
                            if params.quant is not None else None)
        #: ``(completion_seconds, n_queries)`` of dispatched batches.
        self.in_flight: List[Tuple[float, int]] = []
        self.root_start = trace[0].arrival_seconds if trace else 0.0
        self.root_span = (tracer.begin(
            "serve.replay", self.root_start, lane="engine",
            attributes={"n_requests": len(trace)})
            if tracer is not None else None)
        self.request_spans: Dict[int, int] = {}

    # ---- Bookkeeping shared by the stages --------------------------

    def deadline(self, req: QueryRequest) -> Optional[float]:
        """Absolute deadline of one request, or ``None``."""
        relative = req.deadline_or(self.engine.default_deadline_seconds)
        return None if relative is None else req.arrival_seconds + relative

    def _event(self, span: Optional[int], when: float, name: str,
               attributes: Optional[dict] = None) -> None:
        if span is not None:
            self.tracer.event(span, when, name, attributes)

    def _end(self, span: Optional[int], when: float, **attributes
             ) -> None:
        if span is not None:
            self.tracer.end(span, when, attributes=attributes)

    def finish(self, req: QueryRequest, **kwargs) -> None:
        """Record one request's outcome: ledger, registry, span."""
        registry = self.registry
        outcome = RequestOutcome(
            request_id=req.request_id,
            arrival_seconds=req.arrival_seconds, **kwargs)
        self.report.outcomes[self.positions[id(req)]] = outcome
        registry.counter(f"serve.outcomes.{outcome.status.value}").inc()
        if outcome.served:
            registry.counter("serve.served").inc()
            registry.counter("serve.queries_served").inc(req.n_queries)
            registry.counter(
                f"serve.served_tier.{outcome.degraded_tier}").inc()
            self.latency_hist.observe(outcome.latency_seconds)
            self.queue_hist.observe(outcome.queue_seconds)
            if outcome.degraded:
                registry.counter("serve.degraded").inc()
            if outcome.deadline_missed:
                registry.counter("serve.deadline_missed").inc()
        span_id = self.request_spans.pop(id(req), None)
        if span_id is None:
            return
        if outcome.status is RequestStatus.SERVED:
            service_start = (outcome.arrival_seconds
                             + outcome.queue_seconds)
            self.tracer.add("request.queue", outcome.arrival_seconds,
                            service_start, parent_id=span_id)
            self.tracer.add("request.compute", service_start,
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
        self.tracer.end(span_id, outcome.completion_seconds,
                        attributes=close_attrs)

    def fail_batch(self, live: List[QueryRequest], batch: Batch,
                   when: float, detail: str) -> None:
        for req in live:
            self.finish(req, status=RequestStatus.FAILED,
                        ids=None, dists=None, completion_seconds=when,
                        queue_seconds=when - req.arrival_seconds,
                        batch_index=batch.index, detail=detail)

    def record_batch(self, batch: Batch, n_queries: int) -> None:
        """Count one batch that occupied the device."""
        registry = self.registry
        self.report.batch_sizes.append(n_queries)
        self.report.batch_triggers.append(batch.trigger)
        registry.counter("serve.batches").inc()
        registry.counter(f"serve.batches.{batch.trigger}").inc()
        registry.counter("serve.queries_dispatched").inc(n_queries)
        self.size_hist.observe(n_queries)
        if self.rerank_hist is not None:
            registry.counter("quant.batches").inc()
            self.rerank_hist.observe(self.engine.params.rerank_factor
                                     * self.engine.params.l_n)

    def attempt_spans(self, batch_span: Optional[int], ready: float,
                      attempt: int, slots: EngineSlots,
                      fatal_kind: Optional[str] = None) -> Optional[int]:
        """Trace one dispatch attempt's engine occupancy.

        ``fatal_kind`` names the fault that killed a failed attempt
        (nothing downloaded).  Returns the compute span's id.
        """
        tracer = self.tracer
        if tracer is None:
            return None
        failed = fatal_kind is not None
        span = tracer.begin("attempt", ready, parent_id=batch_span,
                            attributes={"attempt": attempt})
        tracer.add("upload", slots.upload_start, slots.upload_end,
                   parent_id=span, lane="engine/upload")
        compute_id = tracer.add(
            "compute", slots.compute_start, slots.compute_end,
            parent_id=span, lane="engine/compute")
        if failed:
            tracer.event(span, slots.download_end, "fault",
                         {"kind": fatal_kind, "fatal": True})
        else:
            tracer.add("download", slots.download_start,
                       slots.download_end, parent_id=span,
                       lane="engine/download")
        tracer.end(span, slots.download_end, attributes={
            "outcome": "failed" if failed else "ok"})
        return compute_id

    # ---- Stages, in replay order -----------------------------------

    def admit(self, req: QueryRequest) -> None:
        """One arrival: flush due batches, then cache, admission
        control and the micro-batch queue."""
        engine, now = self.engine, req.arrival_seconds
        self.registry.counter("serve.requests").inc()
        if self.tracer is not None:
            self.request_spans[id(req)] = self.tracer.begin(
                "request", now, parent_id=self.root_span,
                lane_group="requests",
                attributes={"request_id": req.request_id,
                            "n_queries": req.n_queries})
        for batch in self.scheduler.poll(now):
            self.dispatch(batch)

        hit = engine._cache_lookup(req)
        if hit is not None:
            self.registry.counter("serve.cache_hits").inc()
            self.finish(req, status=RequestStatus.CACHE_HIT,
                        ids=hit[0], dists=hit[1], completion_seconds=now)
            return

        self.in_flight = [(c, n) for c, n in self.in_flight if c > now]
        backlog = self.scheduler.pending_queries \
            + sum(n for _, n in self.in_flight)
        if backlog + req.n_queries > engine.policy.max_queue:
            self.finish(req, status=RequestStatus.REJECTED,
                        ids=None, dists=None, completion_seconds=now,
                        detail="admission queue full")
            return

        for batch in self.scheduler.submit(req, now):
            self.dispatch(batch)

    def dispatch(self, batch: Batch) -> None:
        """Run one flushed batch through the dispatch stages."""
        now = batch.flush_seconds
        span = None
        if self.tracer is not None:
            span = self.tracer.begin(
                "batch", batch.open_seconds, parent_id=self.root_span,
                lane_group="batches",
                attributes={"batch_index": batch.index,
                            "trigger": batch.trigger,
                            "n_requests": batch.n_requests,
                            "n_queries": batch.n_queries})
            self.tracer.add("batch.form", batch.open_seconds, now,
                            parent_id=span)
        live = self.shed_expired(batch, span)
        if not live:
            self._end(span, now, outcome="all_dropped")
            return
        if not self.breaker_gate(batch, live, span):
            return
        tier, params = self.select_tier(batch, span)
        queries = np.concatenate([req.queries for req in live], axis=0)
        won = self.run_attempts(batch, live, queries, params, span)
        if won is not None:
            self.deliver(batch, live, tier, span, *won)

    def shed_expired(self, batch: Batch, span: Optional[int]
                     ) -> List[QueryRequest]:
        """Deadline load-shedding: a request already past its deadline
        gains nothing from dispatch — drop it before it wastes device
        time.  Returns the requests still worth dispatching."""
        now = batch.flush_seconds
        live = []
        for req in batch.requests:
            deadline = self.deadline(req)
            if deadline is None or deadline > now:
                live.append(req)
                continue
            self._event(span, now, "deadline_drop",
                        {"request_id": req.request_id})
            self.finish(req, status=RequestStatus.TIMED_OUT,
                        ids=None, dists=None, completion_seconds=now,
                        queue_seconds=now - req.arrival_seconds,
                        batch_index=batch.index,
                        detail="deadline expired while queued")
            self.fault_report.deadline_dropped_requests += 1
            self.registry.counter("faults.deadline_dropped").inc()
        return live

    def breaker_gate(self, batch: Batch, live: List[QueryRequest],
                     span: Optional[int]) -> bool:
        """Circuit breaker: while open, fail the batch fast instead of
        feeding a dying kernel more work.  True when dispatch may go on."""
        now = batch.flush_seconds
        if self.breaker is None or self.breaker.allow(now):
            return True
        self._event(span, now, "breaker_open")
        self.fail_batch(live, batch, now, "circuit breaker open")
        self.fault_report.fast_failed_requests += len(live)
        self.registry.counter("faults.fast_failed").inc(len(live))
        self._end(span, now, outcome="fast_failed")
        return False

    def select_tier(self, batch: Batch, span: Optional[int]
                    ) -> Tuple[int, SearchParams]:
        """Graceful degradation: pick this dispatch's quality tier."""
        engine, now = self.engine, batch.flush_seconds
        if engine.governor is None:
            return 0, engine.params
        inflight_queries = sum(n for c, n in self.in_flight if c > now)
        pressure = ((batch.n_queries + inflight_queries
                     + self.scheduler.pending_queries)
                    / engine.policy.max_queue)
        impaired = self.breaker is not None and self.breaker.impaired
        tier = engine.governor.select_tier(pressure, impaired)
        if tier == 0:
            return 0, engine.params
        reason = DEGRADE_BREAKER if impaired else DEGRADE_PRESSURE
        self.fault_report.degradations.append(DegradationRecord(
            seconds=now, batch_index=batch.index, tier=tier,
            reason=reason))
        self.registry.counter("faults.degraded_batches").inc()
        self._event(span, now, "degrade",
                    {"tier": tier, "reason": reason})
        return tier, engine.governor.params_for(tier, engine.params)

    def run_attempts(self, batch: Batch, live: List[QueryRequest],
                     queries: np.ndarray, params: SearchParams,
                     span: Optional[int]
                     ) -> Optional[Tuple[StreamResult, list, float, int]]:
        """Dispatch until an attempt survives its injected faults.

        Returns ``(stream, consumed, ready, attempt)`` of the winning
        attempt — its results, the survivable faults it absorbed, when
        it was ready and its attempt number — or ``None`` once the
        batch failed for good (retries exhausted or breaker tripped).
        """
        engine = self.engine
        ready, attempt = batch.flush_seconds, 0
        while True:
            consumed: list = []
            hook = (self.injector.hook(ready, sink=consumed,
                                       metrics=self.registry)
                    if self.injector is not None else None)
            try:
                stream = stream_batches(
                    engine.graph, engine.points, queries, params,
                    batch_size=len(queries), fault_hook=hook,
                    _lanes=self.lanes)
            except FaultError as err:
                failed_at, detail = self._attempt_failed(
                    batch, span, ready, attempt, err)
            else:
                return stream, consumed, ready, attempt
            if detail is not None:
                self.fail_batch(live, batch, failed_at, detail)
                self.in_flight.append((failed_at, len(queries)))
                self.record_batch(batch, len(queries))
                self._end(span, failed_at, outcome="failed",
                          detail=detail)
                return None
            attempt += 1
            backoff = engine.retry.backoff_seconds(attempt,
                                                   self.jitter_rng)
            self.fault_report.retries.append(RetryRecord(
                seconds=failed_at, batch_index=batch.index,
                attempt=attempt, backoff_seconds=backoff))
            self.registry.counter("faults.retries").inc()
            if span is not None:
                self.tracer.add("retry.backoff", failed_at,
                                failed_at + backoff, parent_id=span,
                                attributes={"attempt": attempt})
            ready = failed_at + backoff

    def _attempt_failed(self, batch: Batch, span: Optional[int],
                        ready: float, attempt: int, err: FaultError
                        ) -> Tuple[float, Optional[str]]:
        """Charge one attempt a fatal fault killed.

        Returns when the failure was detected, and why the batch must
        now be given up (``None``: back off and retry).
        """
        engine, breaker = self.engine, self.breaker
        self.fault_report.injections.append(InjectionRecord(
            seconds=ready, kind=err.kind, batch_index=batch.index,
            attempt=attempt, fatal=True))
        self.registry.counter("faults.injected").inc()
        self.registry.counter("faults.fatal").inc()
        slots = self.clock.schedule(ready, err.upload_seconds,
                                    err.compute_seconds, None)
        failed_at = slots.compute_end
        self.report.gpu_busy_seconds += err.compute_seconds
        self.attempt_spans(span, ready, attempt, slots,
                           fatal_kind=err.kind)
        if breaker is not None:
            breaker.record_failure(failed_at)
        if breaker is not None and not breaker.allow(failed_at):
            return failed_at, "circuit breaker open"
        if engine.retry is None or attempt >= engine.retry.max_retries:
            return failed_at, (f"retries exhausted after {attempt + 1} "
                               f"attempts ({err.kind})")
        return failed_at, None

    def deliver(self, batch: Batch, live: List[QueryRequest], tier: int,
                span: Optional[int], stream: StreamResult,
                consumed: list, ready: float, attempt: int) -> None:
        """Schedule the winning attempt and hand out its results."""
        engine, registry = self.engine, self.registry
        # Survivable faults (stalls) consumed by the winning attempt.
        for event in consumed:
            self.fault_report.injections.append(InjectionRecord(
                seconds=ready, kind=event.kind, batch_index=batch.index,
                attempt=attempt, fatal=False))
            registry.counter("faults.injected").inc()
        timing = stream.batches[0]
        slots = self.clock.schedule(
            ready, timing.upload_seconds, timing.compute_seconds,
            timing.download_seconds)
        start, completion = slots.upload_start, slots.download_end
        compute_span = self.attempt_spans(span, ready, attempt, slots)
        kernel_tracker = stream.reports[0].tracker
        publish_tracker_totals(registry, kernel_tracker)
        if compute_span is not None:
            cycle_attrs = {
                f"cycles.{phase}": total for phase, total
                in kernel_tracker.phase_totals().items()}
            cycle_attrs["cycles_total"] = kernel_tracker.total_cycles()
            if engine.params.quant is not None:
                cycle_attrs["quant.mode"] = engine.params.quant
                cycle_attrs["quant.bits"] = QUANT_BITS[engine.params.quant]
                cycle_attrs["quant.rerank"] = engine.params.rerank_factor
            self.tracer.spans[compute_span].attributes.update(
                cycle_attrs)
            for event in consumed:
                self.tracer.event(compute_span, slots.compute_start,
                                  "fault", {"kind": event.kind,
                                            "fatal": False})
        if self.breaker is not None:
            self.breaker.record_success(completion)
        self.report.gpu_busy_seconds += timing.compute_seconds
        self.in_flight.append((completion, len(stream.ids)))
        self.record_batch(batch, len(stream.ids))
        self._end(span, completion, outcome="served", tier=tier,
                  n_attempts=attempt + 1)

        offset = 0
        for req in live:
            ids = stream.ids[offset:offset + req.n_queries]
            dists = stream.dists[offset:offset + req.n_queries]
            offset += req.n_queries
            deadline = self.deadline(req)
            self.finish(req, status=RequestStatus.SERVED,
                        ids=ids.copy(), dists=dists.copy(),
                        completion_seconds=completion,
                        queue_seconds=start - req.arrival_seconds,
                        compute_seconds=completion - start,
                        batch_index=batch.index, degraded_tier=tier,
                        deadline_missed=(deadline is not None
                                         and completion > deadline),
                        n_retries=attempt)
            # Only full-quality answers enter the cache: the cache holds
            # the engine's tier-0 answers, and a degraded result would
            # be a silent quality lie on the next hit.
            if engine.cache is not None and tier == 0:
                for row in range(req.n_queries):
                    engine.cache.put(req.queries[row], ids[row], dists[row])

    def close(self) -> ServeReport:
        """Quiescence: publish the closing metrics, end the root span
        and hand over the report (wall-clock is the driver's to add)."""
        engine, registry, report = self.engine, self.registry, self.report
        assert all(outcome is not None for outcome in report.outcomes)
        if self.breaker is not None:
            self.fault_report.breaker_transitions = list(
                self.breaker.transitions)
            self.fault_report.probe_successes = \
                self.breaker.probe_successes
            for transition in self.breaker.transitions:
                registry.counter(
                    f"faults.breaker.{transition.to_state}").inc()
            registry.counter("faults.breaker.probe_successes").inc(
                self.breaker.probe_successes)
        last_completion = max(
            (o.completion_seconds for o in report.outcomes), default=0.0)
        report.makespan_seconds = max(last_completion - self.root_start,
                                      0.0)
        registry.gauge("serve.makespan_seconds").set(
            report.makespan_seconds)
        registry.gauge("serve.gpu_busy_seconds").set(
            report.gpu_busy_seconds)
        last_arrival = (self.trace[-1].arrival_seconds if self.trace
                        else self.root_start)
        self._end(self.root_span, max(last_completion, last_arrival))
        if (engine.faults is None and engine.breaker_policy is None
                and engine.governor is None
                and engine.default_deadline_seconds is None):
            report.fault_report = None  # no fault machinery configured
        return report
