"""The sharded serving cluster: N index shards x M replicas, one clock.

This module is the *query-path* topology — the "serving heavy traffic"
step and the shard/replica decomposition GGNN demonstrates for
multi-GPU graph ANN:

1. **Placement** — a consistent-hash ring assigns every corpus point to
   one of ``n_shards`` disjoint shards; each shard gets its own graph,
   built by its family's own build (:mod:`repro.cluster.placement`,
   :meth:`repro.core.backend.IndexBackend.serving_graphs`).
2. **Replication** — each shard runs ``n_replicas`` interchangeable
   :class:`~repro.serve.engine.ServeEngine` instances over identical
   shard data, all on the shared simulated clock.
3. **Routing** — per shard, a round-robin router with health masking
   picks the serving replica; an undetected replica death bounces the
   query to a sibling at a failover penalty
   (:mod:`repro.cluster.router`).
4. **Scatter-gather** — every request fans out to all shards (queries
   are broadcast, charged to the
   :class:`~repro.gpusim.memory.NetworkModel`), each shard
   answers its local top-k, and the coordinator reduces the runs with
   the exact bitonic-cost merge (:mod:`repro.cluster.merge`), waiting
   on the *slowest* shard — the tail-amplification structure the
   cluster report quantifies.
5. **Failover** — ``worker_loss`` events in the fault plan kill
   shard-replica slots on the query path.  A failed dispatch (retries
   exhausted, breaker open, deadline, overload) re-executes on a live
   sibling through a dedicated retry lane; only when a *whole shard*
   is gone does the cluster degrade — to an explicitly flagged
   ``PARTIAL`` answer, never silently.

Determinism: routing, sub-trace construction, per-replica replays, the
retry lane and the merge are all pure functions of (trace, topology,
fault plan, seeds), so repeated :meth:`ClusterEngine.replay` calls
produce byte-identical :class:`~repro.cluster.report.ClusterReport`
encodings.  The retry lane deliberately dispatches *outside* the
sibling's micro-batch queue (a dedicated spare-capacity path at serial
stream cost): failed work re-executes without perturbing the sibling's
own deterministic schedule.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.construction import validated_points
from repro.core.params import SearchParams, as_count
from repro.core.pipeline import _LaneStore, stream_batches
from repro.errors import ClusterError, ConstructionError
from repro.faults.plan import FaultPlan
from repro.faults.policy import (
    AdmissionGovernor,
    BreakerPolicy,
    RetryPolicy,
)
from repro.gpusim.memory import NetworkModel
from repro.observability.metrics import MetricsRegistry
from repro.observability.span import SpanTracer
from repro.serve.cache import ResultCache
from repro.serve.engine import ServeEngine, check_pool_fits
from repro.serve.request import (
    QueryRequest,
    check_deadline,
    validate_trace,
)
from repro.serve.scheduler import BatchPolicy
from repro.cluster.merge import merge_launch, merge_topk
from repro.cluster.placement import ConsistentHashRing, ShardMap
from repro.cluster.report import (
    ClusterOutcome,
    ClusterReport,
    ClusterStatus,
)
from repro.cluster.router import (
    ReplicaRouter,
    RouteDecision,
    RouterPolicy,
)
from repro.heal.controller import RepairController, RepairRecord
from repro.heal.policy import HealPolicy
from repro.heal.source import StaticShardSource, StoreShardSource

#: Bytes of one result entry on the wire (id + distance).
_EDGE_BYTES = 12


class ClusterEngine:
    """Scatter-gather serving over a sharded, replicated GANNS index.

    Args:
        points: ``(n, d)`` corpus, split across shards by consistent
            hashing of the global point id.
        n_shards: Index shard count.
        n_replicas: Serving replicas per shard.
        params: Search parameters every shard serves with.
        d_min: Degree lower bound of every shard graph.
        d_max: Degree upper bound (and ``knn_k``) of every shard graph.
            Each shard graph is ``family``'s own build at
            ``BuildParams(d_min, d_max, n_blocks=SERVING_N_BLOCKS)``
            (:meth:`repro.core.backend.IndexBackend.serving_graphs`), so
            invalid degrees raise its
            :class:`~repro.errors.ConfigurationError`.
        metric: Distance metric name.
        policy: Micro-batching policy of every shard replica.
        cache_capacity: Per-replica result-cache entries (0 disables).
            Caches are rebuilt per replay so repeated replays match.
        faults: Optional :class:`FaultPlan`.  Kernel-scope events are
            delivered inside every replica's dispatch path;
            ``worker_loss`` events kill shard-replica slots on the
            query path; ``network_partition`` events delay scatter
            delivery for their duration.
        retry: Per-replica dispatch retry policy.
        breaker: Per-replica circuit-breaker policy.
        governor: Optional graceful-degradation governor (per replica).
        default_deadline_seconds: Default per-request deadline applied
            by every replica.
        router_policy: Heartbeat and failover-penalty knobs.
        family: Registered index family the per-shard graphs are built
            as (default ``"nsw"``); resolved through
            :func:`repro.core.backend.get_backend`, so unknown names
            raise a typed error and families without a flat serving
            graph raise :class:`~repro.errors.UnsupportedOperationError`
            at construction.
        heal: Optional :class:`repro.heal.policy.HealPolicy`.  When
            armed, a :class:`repro.heal.controller.RepairController`
            rebuilds every dead replica from the owning shard's latest
            snapshot (rate-limited transfer + deserialize + WAL-delta
            catch-up + anti-entropy digest verification) and re-admits
            it to routing — replays publish ``heal.*`` metrics/spans
            and the report carries the repair records.  ``None``
            (default) reproduces the pre-heal cluster byte-for-byte.
        repair_store: Optional :class:`repro.mutable.wal.DurableStore`
            backing the served corpus (pass it alongside
            :meth:`from_snapshot`): rebuilds then charge the store's
            surviving WAL delta as catch-up work through
            :mod:`repro.mutable.recovery`.

    Raises:
        ClusterError: On a corpus that is not a non-empty finite 2-D
            matrix, an invalid topology, an empty shard, a shard
            holding fewer than ``params.k`` points, a search block
            that does not fit the device's shared memory
            (:func:`repro.serve.engine.check_pool_fits`), or a default
            deadline that is not finite and positive.
    """

    def __init__(self, points: np.ndarray, n_shards: int,
                 n_replicas: int,
                 params: Optional[SearchParams] = None,
                 d_min: int = 8, d_max: int = 16,
                 metric: str = "euclidean",
                 policy: Optional[BatchPolicy] = None,
                 cache_capacity: int = 0,
                 faults: Optional[FaultPlan] = None,
                 retry: Optional[RetryPolicy] = None,
                 breaker: Optional[BreakerPolicy] = None,
                 governor: Optional[AdmissionGovernor] = None,
                 default_deadline_seconds: Optional[float] = None,
                 router_policy: Optional[RouterPolicy] = None,
                 family: str = "nsw",
                 heal: Optional[HealPolicy] = None,
                 repair_store=None):
        from repro.core.backend import get_backend
        backend = get_backend(family)  # typed error on unknown names
        try:
            points = validated_points(points)
        except ConstructionError as exc:
            raise ClusterError(str(exc)) from exc
        self.n_shards = as_count(n_shards, "n_shards", 1, ClusterError)
        self.n_replicas = as_count(n_replicas, "n_replicas", 1,
                                   ClusterError)
        self.cache_capacity = as_count(cache_capacity, "cache_capacity", 0,
                                       ClusterError)
        self.points = points
        self.params = params if params is not None else SearchParams()
        self.ring = ConsistentHashRing(n_shards)
        self.shard_map = ShardMap.from_ring(len(points), self.ring)
        undersized = [s for s, size
                      in enumerate(self.shard_map.shard_sizes())
                      if size < self.params.k]
        if undersized:
            raise ClusterError(
                f"shard(s) {undersized} hold fewer than k="
                f"{self.params.k} points; use fewer shards (sizes: "
                f"{self.shard_map.shard_sizes()})"
            )
        check_pool_fits(self.params, d_max, ClusterError)
        self.policy = policy
        self.faults = faults
        self.retry = retry
        self.breaker = breaker
        self.governor = governor
        self.default_deadline_seconds = check_deadline(
            default_deadline_seconds, "default_deadline_seconds",
            ClusterError)
        #: Cluster interconnect model for scatter/gather costs.
        self.network = NetworkModel()
        self.router_policy = (router_policy if router_policy is not None
                              else RouterPolicy())
        self.metric = metric
        self.shard_points: List[np.ndarray] = [
            np.ascontiguousarray(points[self.shard_map.members[shard]])
            for shard in range(self.n_shards)]
        # Every shard graph in one build: NSW shards share one GGraphCon
        # run, each byte-equal to its solo build.
        self.shard_graphs: List[object] = backend.serving_graphs(
            self.shard_points, d_min=d_min, d_max=d_max, metric=metric)
        #: Dense-row -> external-id mapping when the cluster serves a
        #: mutable-index snapshot (``None`` for a plain corpus).
        self.external_ids: Optional[np.ndarray] = None
        self.heal = heal
        self.repair_store = repair_store
        self._repair_sources_cache: Optional[
            List[StaticShardSource]] = None

    @classmethod
    def from_snapshot(cls, handle, n_shards: int, n_replicas: int,
                      **kwargs) -> "ClusterEngine":
        """Shard one pinned epoch of a mutable index across a cluster.

        The handle's *live* points (tombstoned slots excluded) become
        the cluster corpus, re-sharded by consistent hashing of their
        dense row index.  Because the cluster renumbers rows densely,
        the returned engine carries an ``external_ids`` mapping; pass
        merged result ids through :meth:`map_to_external` to translate
        them back to the mutable index's stable slot ids.

        Args:
            handle: A :class:`repro.mutable.snapshot.SnapshotHandle`.
            n_shards: Index shard count.
            n_replicas: Serving replicas per shard.
            **kwargs: Everything the constructor accepts except
                ``points``; ``metric`` defaults to the pinned graph's.
        """
        live = handle.live_ids()
        kwargs.setdefault("metric", handle.graph.metric_name)
        engine = cls(np.ascontiguousarray(handle.points[live]),
                     n_shards, n_replicas, **kwargs)
        engine.external_ids = live
        return engine

    def map_to_external(self, ids: np.ndarray) -> np.ndarray:
        """Translate dense result ids to the snapshot's slot ids.

        ``-1`` padding passes through.  Identity for engines built
        directly over a corpus.
        """
        ids = np.asarray(ids)
        if self.external_ids is None:
            return ids
        return np.where(ids >= 0,
                        self.external_ids[np.where(ids < 0, 0, ids)],
                        ids)

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------

    def _slot(self, shard: int, replica: int) -> int:
        return shard * self.n_replicas + replica

    def _repair_sources(self) -> List[StaticShardSource]:
        """One snapshot source per shard for the repair controller.

        The shard's own graph + points are the snapshot a rebuilt
        replica receives.  When the cluster serves a durable store's
        epoch, every rebuild additionally replays the store's
        surviving WAL delta — the catch-up charge comes from
        :class:`repro.heal.source.StoreShardSource`, i.e. from a real
        :func:`repro.mutable.recovery.recover` pass over the store.
        Cached: sources are pure functions of the (immutable) shard
        state, so repeated replays agree.
        """
        if self._repair_sources_cache is None:
            catchup = 0.0
            wal_records = 0
            if self.repair_store is not None:
                delta = StoreShardSource(self.repair_store)
                catchup = delta.catchup_seconds
                wal_records = delta.wal_records
            self._repair_sources_cache = [
                StaticShardSource(self.shard_graphs[shard],
                                  self.shard_points[shard],
                                  catchup_seconds=catchup,
                                  wal_records=wal_records)
                for shard in range(self.n_shards)]
        return self._repair_sources_cache

    def _make_engine(self, shard: int) -> ServeEngine:
        """A fresh serving engine over one shard (fresh cache state)."""
        cache = (ResultCache(capacity=self.cache_capacity)
                 if self.cache_capacity > 0 else None)
        return ServeEngine(
            self.shard_graphs[shard], self.shard_points[shard],
            self.params, policy=self.policy, cache=cache,
            faults=self.faults,
            retry=self.retry, breaker=self.breaker,
            governor=self.governor,
            default_deadline_seconds=self.default_deadline_seconds)

    def replay(self, trace: Sequence[QueryRequest],
               tracer: Optional[SpanTracer] = None,
               metrics: Optional[MetricsRegistry] = None
               ) -> ClusterReport:
        """Replay an arrival-ordered trace through the whole topology.

        A short driver over the stages of :class:`_ClusterReplay`:
        validate, route, replay the routed slots, assemble the merged
        outcomes, publish the report's metric table, emit spans.

        Args:
            trace: Requests with non-decreasing ``arrival_seconds``.
            tracer: Optional :class:`SpanTracer`; the replay records
                cluster-level spans (``cluster.replay`` root, one
                ``cluster.replica`` span per active shard-replica, and
                per-request ``cluster.request`` spans with scatter /
                wait / merge children plus failover events).  Shard
                replicas replay untraced — their internal spans live at
                a different granularity than the cluster clock view.
            metrics: Optional registry to publish ``cluster.*`` metrics
                into; created internally when omitted and attached to
                the returned report for
                :meth:`~repro.cluster.report.ClusterReport
                .verify_against_metrics`.

        Returns:
            A :class:`ClusterReport`; byte-identical across repeated
            calls with the same inputs.

        Raises:
            ClusterError: On an out-of-order trace, or a query matrix
                whose dimensionality or dtype does not match the corpus
                or that holds NaN / infinite values.
        """
        wall_start = time.perf_counter()
        trace = list(trace)
        validate_trace(trace, self.points, ClusterError)
        registry = metrics if metrics is not None else MetricsRegistry()
        run = _ClusterReplay(self, trace)
        run.route()
        run.replay_slots()
        report = run.assemble()
        report.metrics = registry
        report.publish_metrics(registry)
        if tracer is not None:
            run.emit_spans(tracer, report)
        # Host wall-clock: the one volatile metric (see
        # repro.observability.metrics.VOLATILE_PREFIX).
        report.wallclock_seconds = time.perf_counter() - wall_start
        registry.gauge("perf.wallclock_seconds").set(
            report.wallclock_seconds)
        return report


class _ClusterReplay:
    """State of one :meth:`ClusterEngine.replay`, one method per stage.

    Every stage is a pure function of (trace, topology, fault plan,
    seeds) and of the stages before it; they run once each, in the
    order they are defined.
    """

    def __init__(self, engine: ClusterEngine,
                 trace: List[QueryRequest]):
        self.engine = engine
        self.trace = trace
        self.router = ReplicaRouter(engine.n_shards, engine.n_replicas,
                                    policy=engine.router_policy,
                                    plan=engine.faults)
        self.repairs: List[RepairRecord] = []
        if engine.heal is not None:
            controller = RepairController(engine.heal)
            self.repairs = controller.plan_repairs(
                self.router, engine._repair_sources(),
                plan=engine.faults)
        #: Per request: broadcast cost of its fan-out.
        self.scatter_cost: List[float] = []
        #: Per request: ``(RouteDecision, sub_arrival)`` per shard, or
        #: ``None`` when it failed fast before fan-out.
        self.routes: List[Optional[List[Tuple[RouteDecision,
                                              float]]]] = []
        #: Slot -> ``(sub_arrival, request position)`` routed at it.
        self.slot_subtrace: Dict[int, List[Tuple[float, int]]] = {}
        #: Where every slot and retry lane is searched: one store over
        #: every shard, built by :meth:`replay_slots`.
        self.lanes: Optional[_LaneStore] = None
        #: Slot -> request position -> the replica's outcome.
        self.slot_outcomes: Dict[int, Dict[int, object]] = {}
        #: Slot -> (first arrival, last completion, requests, served).
        self.slot_spans: Dict[int, Tuple[float, float, int, int]] = {}
        self.shard_lat: List[List[float]] = [
            [] for _ in range(engine.n_shards)]
        #: Per request: span events, and when its slowest shard path
        #: resolved (the start of gather + merge).
        self.request_events: List[List[Tuple[str, float, Dict]]] = []
        self.request_base: List[float] = []

    # ---- Routing pass ----------------------------------------------

    def route(self) -> None:
        """Pick a replica per (request, shard); build the sub-traces."""
        engine = self.engine
        partitions = self.router.partition_windows(engine.faults)
        dims = engine.points.shape[1]
        for pos, req in enumerate(self.trace):
            scatter = engine.network.broadcast_seconds(
                req.n_queries * dims * 4, engine.n_shards)
            self.scatter_cost.append(scatter)
            deadline = req.deadline_or(engine.default_deadline_seconds)
            if deadline is not None and deadline <= scatter:
                # The deadline expires within one scatter round-trip:
                # fanning out would burn every shard on an answer that
                # is already guaranteed late.  Fail fast before
                # scatter (no shard ever sees the request).
                self.routes.append(None)
                continue
            per_shard = []
            for shard in range(engine.n_shards):
                decision = self.router.route(shard, req.arrival_seconds)
                if decision.shard_dead:
                    per_shard.append((decision, req.arrival_seconds
                                      + decision.penalty_seconds))
                    continue
                sub_arrival = (req.arrival_seconds + scatter
                               + decision.penalty_seconds)
                # Windows are sorted by start; a delivery pushed to one
                # window's end may land inside a later window.
                for start, end in partitions:
                    if start <= sub_arrival < end:
                        sub_arrival = end
                per_shard.append((decision, sub_arrival))
                self.slot_subtrace.setdefault(
                    engine._slot(shard, decision.replica), []
                ).append((sub_arrival, pos))
            self.routes.append(per_shard)

    # ---- Per-replica replays ---------------------------------------

    def replay_slots(self) -> None:
        """Replay every routed slot's sub-trace on a fresh engine."""
        engine, trace = self.engine, self.trace
        routed: List[List[int]] = [[] for _ in range(engine.n_shards)]
        for slot, entries in self.slot_subtrace.items():
            routed[slot // engine.n_replicas] += [pos for _, pos in entries]
        self.lanes = _LaneStore(
            [(engine.shard_graphs[shard], engine.shard_points[shard],
              [trace[pos].queries for pos in sorted(positions)])
             for shard, positions in enumerate(routed)],
            engine.params)
        for slot in sorted(self.slot_subtrace):
            shard = slot // engine.n_replicas
            entries = sorted(self.slot_subtrace[slot])
            sub_trace = [
                QueryRequest(
                    request_id=pos,
                    queries=trace[pos].queries,
                    arrival_seconds=sub_arrival,
                    deadline_seconds=trace[pos].deadline_seconds)
                for sub_arrival, pos in entries]
            sub_report = engine._make_engine(shard).replay(
                sub_trace, _lanes=self.lanes)
            self.slot_outcomes[slot] = {
                o.request_id: o for o in sub_report.outcomes}
            first = entries[0][0]
            last = max((o.completion_seconds
                        for o in sub_report.outcomes), default=first)
            self.slot_spans[slot] = (first, max(last, first),
                                     len(entries), sub_report.n_served)

    # ---- Assembly: retries, gather, merge --------------------------

    def assemble(self) -> ClusterReport:
        """Merge the shard answers of every request into the report."""
        engine, trace = self.engine, self.trace
        outcomes = [self._assemble_request(pos)
                    for pos in range(len(trace))]
        last_completion = max(
            (o.completion_seconds for o in outcomes), default=0.0)
        makespan = (max(last_completion - trace[0].arrival_seconds, 0.0)
                    if trace else 0.0)
        return ClusterReport(
            outcomes=outcomes,
            n_shards=engine.n_shards,
            n_replicas=engine.n_replicas,
            shard_sizes=engine.shard_map.shard_sizes(),
            shard_latencies=[np.array(lat, dtype=np.float64)
                             for lat in self.shard_lat],
            makespan_seconds=makespan,
            n_replica_deaths=self.router.n_loss_events,
            heal_enabled=engine.heal is not None,
            repairs=tuple(self.repairs),
            mttr_bound_seconds=(engine.heal.mttr_bound_seconds
                                if engine.heal is not None else 0.0),
        )

    def _assemble_request(self, pos: int) -> ClusterOutcome:
        """Gather one request's shard answers and merge them."""
        engine, req = self.engine, self.trace[pos]
        arrival = req.arrival_seconds
        scatter = self.scatter_cost[pos]
        if self.routes[pos] is None:
            self.request_base.append(arrival)
            self.request_events.append([])
            deadline = req.deadline_or(engine.default_deadline_seconds)
            return ClusterOutcome(
                request_id=req.request_id,
                status=ClusterStatus.DEADLINE, ids=None, dists=None,
                arrival_seconds=arrival, completion_seconds=arrival,
                scatter_seconds=0.0,
                detail=(f"DeadlineExceededError: deadline "
                        f"{deadline!r}s within one scatter "
                        f"round-trip ({scatter!r}s)"))
        events: List[Tuple[str, float, Dict]] = []
        run_ids: List[np.ndarray] = []
        run_dists: List[np.ndarray] = []
        missing: List[int] = []
        base = arrival + scatter
        failovers = 0
        tier = 0
        for shard in range(engine.n_shards):
            answer, resolved, bounces, shard_tier = self._shard_answer(
                pos, shard, events)
            base = max(base, resolved)
            failovers += bounces
            if answer is None:
                missing.append(shard)
                continue
            run_ids.append(engine.shard_map.to_global(shard, answer[0]))
            run_dists.append(answer[1])
            self.shard_lat[shard].append(resolved - arrival)
            tier = max(tier, shard_tier)
        self.request_base.append(base)
        self.request_events.append(events)
        if not run_ids:
            return ClusterOutcome(
                request_id=req.request_id,
                status=ClusterStatus.FAILED, ids=None, dists=None,
                arrival_seconds=arrival, completion_seconds=base,
                scatter_seconds=scatter, missing_shards=tuple(missing),
                n_failovers=failovers, detail="no shard answered")
        k = engine.params.k
        gather = engine.network.gather_seconds(
            len(run_ids) * req.n_queries * k * _EDGE_BYTES,
            len(run_ids))
        cycles, merge_seconds = merge_launch(
            req.n_queries, len(run_ids), k,
            n_threads=engine.params.n_threads)
        ids, dists = merge_topk(k, run_ids, run_dists)
        return ClusterOutcome(
            request_id=req.request_id,
            status=(ClusterStatus.SERVED if not missing
                    else ClusterStatus.PARTIAL),
            ids=ids, dists=dists, arrival_seconds=arrival,
            completion_seconds=base + gather + merge_seconds,
            scatter_seconds=scatter, gather_seconds=gather,
            merge_seconds=merge_seconds, merge_cycles=cycles,
            n_shards_answered=len(run_ids),
            missing_shards=tuple(missing), n_failovers=failovers,
            degraded_tier=tier,
            detail="" if not missing else f"shards {missing} missing")

    def _shard_answer(self, pos: int, shard: int,
                      events: List[Tuple[str, float, Dict]]):
        """One shard's contribution to request ``pos``.

        Returns ``(answer, resolved_seconds, n_failovers, tier)``;
        ``answer`` is the shard-local ``(ids, dists)``, or ``None``
        when the shard is missing (dead, or its dispatch failed with no
        live sibling).  Failover incidents are appended to ``events``.
        """
        engine, req = self.engine, self.trace[pos]
        arrival = req.arrival_seconds
        decision, sub_arrival = self.routes[pos][shard]
        failovers = decision.n_failovers
        if decision.shard_dead:
            events.append(("cluster.shard_dead", arrival,
                           {"shard": shard}))
            return None, sub_arrival, failovers, 0
        if failovers:
            events.append(("cluster.failover", arrival,
                           {"shard": shard, "n_bounces": failovers,
                            "stage": "route"}))
        outcome = self.slot_outcomes[
            engine._slot(shard, decision.replica)][pos]
        if outcome.served:
            return ((outcome.ids, outcome.dists),
                    outcome.completion_seconds, failovers,
                    outcome.degraded_tier)
        # Dispatch failed on the routed replica: retry lane on a live
        # sibling at serial stream cost.
        retry_at = (outcome.completion_seconds
                    + engine.router_policy.failover_penalty_seconds)
        sibling = self.router.sibling(shard, (decision.replica,),
                                      retry_at)
        if sibling is None:
            events.append(("cluster.shard_dead", retry_at,
                           {"shard": shard, "stage": "retry"}))
            return None, retry_at, failovers, 0
        events.append(("cluster.failover", retry_at,
                       {"shard": shard, "replica": sibling,
                        "stage": "retry"}))
        stream = stream_batches(
            engine.shard_graphs[shard], engine.shard_points[shard],
            req.queries, engine.params, batch_size=req.n_queries,
            _lanes=self.lanes)
        return ((stream.ids, stream.dists),
                retry_at + stream.serial_seconds, failovers + 1, 0)

    # ---- Spans (deterministic retroactive emission) ----------------

    def emit_spans(self, tracer: SpanTracer,
                   report: ClusterReport) -> None:
        """Record the finished replay on the simulated clock."""
        engine, trace = self.engine, self.trace
        root_start = root_end = (trace[0].arrival_seconds if trace
                                 else 0.0)
        for _, last, _, _ in self.slot_spans.values():
            root_end = max(root_end, last)
        if trace:
            root_end = max(root_end, trace[-1].arrival_seconds, max(
                o.completion_seconds for o in report.outcomes))
        for r in self.repairs:
            root_start = min(root_start, r.death_seconds)
            root_end = max(root_end, r.attempts[-1].end_seconds)
        root_attrs = {"n_requests": len(trace),
                      "n_shards": engine.n_shards,
                      "n_replicas": engine.n_replicas}
        # Quant attrs only when the shards actually ran the staged
        # pipeline — exact cluster traces (incl. the committed golden)
        # stay quant-silent.  The per-shard ServeEngines share
        # engine.params, and each holds its own cache.
        if engine.params.quant is not None:
            root_attrs["quant.mode"] = engine.params.quant
            root_attrs["quant.rerank"] = engine.params.rerank_factor
        root = tracer.begin("cluster.replay", root_start,
                            lane="cluster", attributes=root_attrs)
        for slot in sorted(self.slot_spans):
            first, last, n_requests, n_served = self.slot_spans[slot]
            shard, replica = divmod(slot, engine.n_replicas)
            tracer.add(
                "cluster.replica", first, last, parent_id=root,
                lane=f"cluster/s{shard}r{replica}",
                attributes={"shard": shard, "replica": replica,
                            "n_requests": n_requests,
                            "n_served": n_served})
        for r in self.repairs:
            self._repair_span(tracer, root, r)
        for pos, outcome in enumerate(report.outcomes):
            self._request_span(tracer, root, pos, outcome)
        tracer.end(root, root_end)

    @staticmethod
    def _repair_span(tracer: SpanTracer, root: int,
                     r: RepairRecord) -> None:
        span = tracer.begin(
            "heal.repair", r.death_seconds, parent_id=root,
            lane_group="heal.repairs",
            attributes={"shard": r.shard, "replica": r.replica,
                        "snapshot_bytes": r.snapshot_bytes,
                        "wal_records": r.wal_records})
        tracer.event(span, r.detect_seconds, "heal.detected")
        for index, attempt in enumerate(r.attempts):
            t = attempt.start_seconds
            tracer.add("heal.transfer", t, t + attempt.transfer_seconds,
                       parent_id=span)
            t += attempt.transfer_seconds
            tracer.add("heal.deserialize", t,
                       t + attempt.deserialize_seconds, parent_id=span)
            t += attempt.deserialize_seconds
            if attempt.catchup_seconds > 0:
                tracer.add("heal.catchup", t,
                           t + attempt.catchup_seconds, parent_id=span)
            t += attempt.catchup_seconds
            tracer.add("heal.verify", t, t + attempt.verify_seconds,
                       parent_id=span)
            if not attempt.digest_matched:
                tracer.event(span, attempt.end_seconds,
                             "heal.quarantine", {"attempt": index})
        tracer.end(span, r.attempts[-1].end_seconds, attributes={
            "status": r.status, "n_attempts": r.n_attempts,
            "mttr_seconds": r.mttr_seconds if r.healed else -1.0})

    def _request_span(self, tracer: SpanTracer, root: int, pos: int,
                      outcome: ClusterOutcome) -> None:
        arrival = outcome.arrival_seconds
        base = self.request_base[pos]
        span = tracer.begin(
            "cluster.request", arrival, parent_id=root,
            lane_group="cluster.requests",
            attributes={"request_id": outcome.request_id,
                        "n_queries": self.trace[pos].n_queries})
        if outcome.status is not ClusterStatus.DEADLINE:
            scatter_end = arrival + outcome.scatter_seconds
            tracer.add("cluster.scatter", arrival, scatter_end,
                       parent_id=span)
            tracer.add("cluster.wait", scatter_end, base,
                       parent_id=span)
        if outcome.answered:
            tracer.add("cluster.merge", base,
                       outcome.completion_seconds, parent_id=span,
                       attributes={
                           "merge_cycles": outcome.merge_cycles,
                           "n_runs": outcome.n_shards_answered})
        for name, seconds, attrs in self.request_events[pos]:
            tracer.event(span, seconds, name, attrs)
        tracer.end(span, outcome.completion_seconds, attributes={
            "status": outcome.status.value,
            "n_shards_answered": outcome.n_shards_answered,
            "n_failovers": outcome.n_failovers})
