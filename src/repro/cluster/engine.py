"""The sharded serving cluster: N index shards x M replicas, one clock.

This module promotes :mod:`repro.extensions.distributed` from a
construction-time helper to a *query-path* topology — the ROADMAP's
"serving heavy traffic" step and the shard/replica decomposition GGNN
demonstrates for multi-GPU graph ANN:

1. **Placement** — a consistent-hash ring assigns every corpus point to
   one of ``n_shards`` disjoint shards; each shard gets its own NSW
   graph (:mod:`repro.cluster.placement`).
2. **Replication** — each shard runs ``n_replicas`` interchangeable
   :class:`~repro.serve.engine.ServeEngine` instances over identical
   shard data, all on the shared simulated clock.
3. **Routing** — per shard, a round-robin router with health masking
   picks the serving replica; an undetected replica death bounces the
   query to a sibling at a failover penalty
   (:mod:`repro.cluster.router`).
4. **Scatter-gather** — every request fans out to all shards (queries
   are broadcast, charged to the
   :class:`~repro.extensions.distributed.NetworkModel`), each shard
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

from repro.core.params import SearchParams
from repro.core.pipeline import stream_batches
from repro.errors import ClusterError
from repro.extensions.distributed import NetworkModel, _EDGE_BYTES
from repro.faults.plan import FaultPlan
from repro.faults.policy import (
    AdmissionGovernor,
    BreakerPolicy,
    RetryPolicy,
)
from repro.gpusim.costs import CostTable, DEFAULT_COSTS
from repro.gpusim.device import DeviceSpec, QUADRO_P5000
from repro.observability.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
)
from repro.observability.span import SpanTracer
from repro.serve.cache import ResultCache
from repro.serve.engine import ServeEngine
from repro.serve.report import ServeReport
from repro.serve.request import QueryRequest
from repro.serve.scheduler import BatchPolicy
from repro.cluster.merge import merge_launch, merge_topk
from repro.cluster.placement import ConsistentHashRing, ShardMap
from repro.cluster.report import (
    ClusterOutcome,
    ClusterReport,
    ClusterStatus,
)
from repro.cluster.router import ReplicaRouter, RouterPolicy
from repro.heal.controller import RepairController, RepairRecord
from repro.heal.policy import HealPolicy
from repro.heal.source import StaticShardSource, StoreShardSource


class _ShardRoute:
    """Bookkeeping of one (request, shard) routing decision."""

    __slots__ = ("replica", "penalty", "failovers", "sub_arrival",
                 "dead")

    def __init__(self, replica: int, penalty: float, failovers: int,
                 sub_arrival: float, dead: bool):
        self.replica = replica
        self.penalty = penalty
        self.failovers = failovers
        self.sub_arrival = sub_arrival
        self.dead = dead


class ClusterEngine:
    """Scatter-gather serving over a sharded, replicated GANNS index.

    Args:
        points: ``(n, d)`` corpus, split across shards by consistent
            hashing of the global point id.
        n_shards: Index shard count.
        n_replicas: Serving replicas per shard.
        params: Search parameters every shard serves with.
        d_min: NSW degree lower bound for the per-shard graph builds.
        d_max: NSW degree upper bound.
        metric: Distance metric name.
        policy: Micro-batching policy of every shard replica.
        cache_capacity: Per-replica result-cache entries (0 disables).
            Caches are rebuilt per replay so repeated replays match.
        device: Simulated device each replica runs on.
        costs: Cycle cost table (also charges the merge).
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
        network: Cluster interconnect model for scatter/gather costs.
        router_policy: Heartbeat and failover-penalty knobs.
        n_vnodes: Virtual nodes per shard on the placement ring.
        placement_salt: Namespace for the placement hashes.
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
        ClusterError: On an invalid topology, an empty shard, or a
            shard holding fewer than ``params.k`` points.
    """

    def __init__(self, points: np.ndarray, n_shards: int,
                 n_replicas: int,
                 params: Optional[SearchParams] = None,
                 d_min: int = 8, d_max: int = 16,
                 metric: str = "euclidean",
                 policy: Optional[BatchPolicy] = None,
                 cache_capacity: int = 0,
                 device: DeviceSpec = QUADRO_P5000,
                 costs: CostTable = DEFAULT_COSTS,
                 faults: Optional[FaultPlan] = None,
                 retry: Optional[RetryPolicy] = None,
                 breaker: Optional[BreakerPolicy] = None,
                 governor: Optional[AdmissionGovernor] = None,
                 default_deadline_seconds: Optional[float] = None,
                 network: Optional[NetworkModel] = None,
                 router_policy: Optional[RouterPolicy] = None,
                 n_vnodes: int = 64, placement_salt: int = 0,
                 family: str = "nsw",
                 heal: Optional[HealPolicy] = None,
                 repair_store=None):
        from repro.core.backend import get_backend
        backend = get_backend(family)  # typed error on unknown names
        points = np.asarray(points)
        if points.ndim != 2 or len(points) == 0:
            raise ClusterError(
                f"points must be a non-empty 2-D matrix, got shape "
                f"{points.shape}"
            )
        if n_replicas <= 0:
            raise ClusterError(
                f"n_replicas must be positive, got {n_replicas}"
            )
        self.points = points
        self.params = params if params is not None else SearchParams()
        self.n_shards = int(n_shards)
        self.n_replicas = int(n_replicas)
        self.ring = ConsistentHashRing(n_shards, n_vnodes=n_vnodes,
                                       salt=placement_salt)
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
        self.policy = policy
        self.cache_capacity = int(cache_capacity)
        self.device = device
        self.costs = costs
        self.faults = faults
        self.retry = retry
        self.breaker = breaker
        self.governor = governor
        self.default_deadline_seconds = default_deadline_seconds
        self.network = network if network is not None else NetworkModel()
        self.router_policy = (router_policy if router_policy is not None
                              else RouterPolicy())
        self.metric = metric
        #: Index family the per-shard graphs are built as (the shard
        #: engines fold it into their cache signatures).
        self.family = family
        self.shard_points: List[np.ndarray] = []
        self.shard_graphs: List[object] = []
        for shard in range(self.n_shards):
            shard_pts = np.ascontiguousarray(
                points[self.shard_map.members[shard]])
            self.shard_points.append(shard_pts)
            self.shard_graphs.append(
                backend.serving_graph(shard_pts, d_min=d_min,
                                      d_max=d_max, metric=metric))
        #: Dense-row -> external-id mapping when the cluster serves a
        #: mutable-index snapshot (``None`` for a plain corpus).
        self.external_ids: Optional[np.ndarray] = None
        #: Epoch of the pinned snapshot, or ``None``.
        self.snapshot_epoch: Optional[int] = None
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
        engine.snapshot_epoch = handle.epoch
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
                delta = StoreShardSource(self.repair_store,
                                         device=self.device,
                                         costs=self.costs)
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
            device=self.device, costs=self.costs, faults=self.faults,
            retry=self.retry, breaker=self.breaker,
            governor=self.governor,
            default_deadline_seconds=self.default_deadline_seconds,
            family=self.family)

    def replay(self, trace: Sequence[QueryRequest],
               tracer: Optional[SpanTracer] = None,
               metrics: Optional[MetricsRegistry] = None
               ) -> ClusterReport:
        """Replay an arrival-ordered trace through the whole topology.

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
            ClusterError: On an out-of-order trace or a dimensionality
                mismatch.
        """
        wall_start = time.perf_counter()
        trace = list(trace)
        last_arrival = float("-inf")
        for req in trace:
            if req.arrival_seconds < last_arrival:
                raise ClusterError(
                    f"trace is not arrival-ordered: request "
                    f"{req.request_id} at {req.arrival_seconds} after "
                    f"{last_arrival}"
                )
            last_arrival = req.arrival_seconds
            if req.queries.shape[1] != self.points.shape[1]:
                raise ClusterError(
                    f"request {req.request_id}: query dimensionality "
                    f"{req.queries.shape[1]} does not match the corpus "
                    f"({self.points.shape[1]})"
                )
        registry = metrics if metrics is not None else MetricsRegistry()
        router = ReplicaRouter(self.n_shards, self.n_replicas,
                               policy=self.router_policy,
                               plan=self.faults)
        repairs: List[RepairRecord] = []
        if self.heal is not None:
            controller = RepairController(self.heal,
                                          network=self.network,
                                          device=self.device,
                                          costs=self.costs)
            repairs = controller.plan_repairs(
                router, self._repair_sources(), plan=self.faults)
        partitions = router.partition_windows(self.faults)
        dims = self.points.shape[1]
        k = self.params.k

        def partition_delay(t: float) -> float:
            # Windows are sorted by start; a delivery pushed to one
            # window's end may land inside a later window.
            for start, end in partitions:
                if start <= t < end:
                    t = end
            return t

        # ---- Routing pass ------------------------------------------
        scatter_cost: List[float] = []
        routes: List[Optional[List[_ShardRoute]]] = []
        slot_subtrace: Dict[int, List[Tuple[float, int]]] = {}
        for pos, req in enumerate(trace):
            scatter = self.network.broadcast_seconds(
                req.n_queries * dims * 4, self.n_shards)
            scatter_cost.append(scatter)
            deadline = (req.deadline_seconds
                        if req.deadline_seconds is not None
                        else self.default_deadline_seconds)
            if deadline is not None and deadline <= scatter:
                # The deadline expires within one scatter round-trip:
                # fanning out would burn every shard on an answer that
                # is already guaranteed late.  Fail fast before
                # scatter (no shard ever sees the request).
                routes.append(None)
                continue
            per_shard: List[_ShardRoute] = []
            for shard in range(self.n_shards):
                decision = router.route(shard, req.arrival_seconds)
                if decision.shard_dead:
                    per_shard.append(_ShardRoute(
                        replica=-1,
                        penalty=decision.penalty_seconds,
                        failovers=decision.n_failovers,
                        sub_arrival=req.arrival_seconds
                        + decision.penalty_seconds,
                        dead=True))
                    continue
                sub_arrival = partition_delay(
                    req.arrival_seconds + scatter
                    + decision.penalty_seconds)
                per_shard.append(_ShardRoute(
                    replica=decision.replica,
                    penalty=decision.penalty_seconds,
                    failovers=decision.n_failovers,
                    sub_arrival=sub_arrival, dead=False))
                slot = self._slot(shard, decision.replica)
                slot_subtrace.setdefault(slot, []).append(
                    (sub_arrival, pos))
            routes.append(per_shard)

        # ---- Per-replica replays -----------------------------------
        slot_outcomes: Dict[int, Dict[int, object]] = {}
        slot_spans: Dict[int, Tuple[float, float, int, int]] = {}
        slot_reports: Dict[int, ServeReport] = {}
        for slot in sorted(slot_subtrace):
            entries = sorted(slot_subtrace[slot])
            shard = slot // self.n_replicas
            sub_trace = [
                QueryRequest(
                    request_id=pos,
                    queries=trace[pos].queries,
                    arrival_seconds=sub_arrival,
                    deadline_seconds=trace[pos].deadline_seconds)
                for sub_arrival, pos in entries]
            engine = self._make_engine(shard)
            sub_report = engine.replay(sub_trace)
            slot_reports[slot] = sub_report
            slot_outcomes[slot] = {
                o.request_id: o for o in sub_report.outcomes}
            first = entries[0][0]
            last = max((o.completion_seconds
                        for o in sub_report.outcomes), default=first)
            slot_spans[slot] = (first, max(last, first),
                                len(entries), sub_report.n_served)

        # ---- Assembly: retries, gather, merge ----------------------
        outcomes: List[ClusterOutcome] = []
        shard_lat: List[List[float]] = [[] for _ in
                                        range(self.n_shards)]
        request_events: List[List[Tuple[str, float, Dict]]] = []
        request_base: List[float] = []
        for pos, req in enumerate(trace):
            arrival = req.arrival_seconds
            scatter = scatter_cost[pos]
            if routes[pos] is None:
                deadline = (req.deadline_seconds
                            if req.deadline_seconds is not None
                            else self.default_deadline_seconds)
                request_base.append(arrival)
                request_events.append([])
                outcomes.append(ClusterOutcome(
                    request_id=req.request_id,
                    status=ClusterStatus.DEADLINE,
                    ids=None, dists=None,
                    arrival_seconds=arrival,
                    completion_seconds=arrival,
                    scatter_seconds=0.0,
                    detail=(f"DeadlineExceededError: deadline "
                            f"{deadline!r}s within one scatter "
                            f"round-trip ({scatter!r}s)")))
                continue
            events: List[Tuple[str, float, Dict]] = []
            answered_ids: List[np.ndarray] = []
            answered_dists: List[np.ndarray] = []
            answered_shards: List[int] = []
            missing: List[int] = []
            resolutions: List[float] = [arrival + scatter]
            failovers = 0
            tier = 0
            for shard in range(self.n_shards):
                route = routes[pos][shard]
                failovers += route.failovers
                if route.dead:
                    missing.append(shard)
                    resolutions.append(route.sub_arrival)
                    events.append(("cluster.shard_dead", arrival,
                                   {"shard": shard}))
                    continue
                if route.failovers:
                    events.append(("cluster.failover", arrival,
                                   {"shard": shard,
                                    "n_bounces": route.failovers,
                                    "stage": "route"}))
                outcome = slot_outcomes[
                    self._slot(shard, route.replica)][pos]
                if outcome.served:
                    completion = outcome.completion_seconds
                    answered_ids.append(self.shard_map.to_global(
                        shard, outcome.ids))
                    answered_dists.append(outcome.dists)
                    answered_shards.append(shard)
                    resolutions.append(completion)
                    shard_lat[shard].append(completion - arrival)
                    tier = max(tier, outcome.degraded_tier)
                    continue
                # Dispatch failed on the routed replica: retry lane on
                # a live sibling at serial stream cost.
                retry_at = (outcome.completion_seconds
                            + self.router_policy
                            .failover_penalty_seconds)
                sibling = router.sibling(shard, (route.replica,),
                                         retry_at)
                if sibling is None:
                    missing.append(shard)
                    resolutions.append(retry_at)
                    events.append(("cluster.shard_dead", retry_at,
                                   {"shard": shard,
                                    "stage": "retry"}))
                    continue
                failovers += 1
                events.append(("cluster.failover", retry_at,
                               {"shard": shard, "replica": sibling,
                                "stage": "retry"}))
                stream = stream_batches(
                    self.shard_graphs[shard],
                    self.shard_points[shard], req.queries,
                    self.params, batch_size=req.n_queries,
                    device=self.device, costs=self.costs)
                completion = retry_at + stream.serial_seconds
                answered_ids.append(self.shard_map.to_global(
                    shard, stream.ids))
                answered_dists.append(stream.dists)
                answered_shards.append(shard)
                resolutions.append(completion)
                shard_lat[shard].append(completion - arrival)
            base = max(resolutions)
            request_base.append(base)
            if answered_shards:
                gather = self.network.gather_seconds(
                    len(answered_shards) * req.n_queries * k
                    * _EDGE_BYTES, len(answered_shards))
                cycles, merge_seconds = merge_launch(
                    req.n_queries, len(answered_shards), k,
                    n_threads=self.params.n_threads,
                    device=self.device, costs=self.costs)
                ids, dists = merge_topk(k, answered_ids,
                                        answered_dists)
                completion = base + gather + merge_seconds
                status = (ClusterStatus.SERVED if not missing
                          else ClusterStatus.PARTIAL)
                detail = ("" if not missing else
                          f"shards {missing} missing")
                outcomes.append(ClusterOutcome(
                    request_id=req.request_id, status=status,
                    ids=ids, dists=dists, arrival_seconds=arrival,
                    completion_seconds=completion,
                    scatter_seconds=scatter, gather_seconds=gather,
                    merge_seconds=merge_seconds, merge_cycles=cycles,
                    n_shards_answered=len(answered_shards),
                    missing_shards=tuple(missing),
                    n_failovers=failovers, degraded_tier=tier,
                    detail=detail))
            else:
                outcomes.append(ClusterOutcome(
                    request_id=req.request_id,
                    status=ClusterStatus.FAILED, ids=None, dists=None,
                    arrival_seconds=arrival, completion_seconds=base,
                    scatter_seconds=scatter,
                    missing_shards=tuple(missing),
                    n_failovers=failovers,
                    detail="no shard answered"))
            request_events.append(events)

        # ---- Metrics (publication order = arrival order) -----------
        latency_hist = registry.histogram("cluster.latency_seconds",
                                          DEFAULT_LATENCY_BUCKETS)
        registry.counter("cluster.replica_deaths").inc(
            router.n_loss_events)
        for outcome in outcomes:
            registry.counter("cluster.requests").inc()
            registry.counter(
                f"cluster.outcomes.{outcome.status.value}").inc()
            if outcome.status is ClusterStatus.DEADLINE:
                # Failed fast before fan-out: no shard saw the request.
                registry.counter("cluster.deadline_failfast").inc()
            else:
                registry.counter("cluster.shard_queries").inc(
                    self.n_shards)
            registry.counter("cluster.shards_answered").inc(
                outcome.n_shards_answered)
            registry.counter("cluster.failovers").inc(
                outcome.n_failovers)
            registry.counter("cluster.shard_misses").inc(
                len(outcome.missing_shards))
            registry.counter("cluster.merge_seconds").inc(
                outcome.merge_seconds)
            registry.counter("cluster.merge_cycles").inc(
                outcome.merge_cycles)
            registry.counter("cluster.gather_seconds").inc(
                outcome.gather_seconds)
            registry.counter("cluster.scatter_seconds").inc(
                outcome.scatter_seconds)
            if outcome.answered:
                registry.counter("cluster.queries_answered").inc(
                    outcome.n_queries)
                latency_hist.observe(outcome.latency_seconds)
        if self.heal is not None:
            mttr_hist = registry.histogram("heal.mttr_seconds",
                                           DEFAULT_LATENCY_BUCKETS)
            for r in repairs:
                registry.counter("heal.deaths_detected").inc()
                registry.counter("heal.rebuild_attempts").inc(
                    r.n_attempts)
                registry.counter("heal.quarantines").inc(
                    r.n_quarantined)
                registry.counter("heal.bytes_transferred").inc(
                    r.bytes_transferred)
                registry.counter("heal.wal_records_replayed").inc(
                    r.wal_records_replayed)
                registry.counter("heal.transfer_seconds").inc(
                    r.transfer_seconds)
                registry.counter("heal.catchup_seconds").inc(
                    r.catchup_seconds)
                registry.counter("heal.verify_seconds").inc(
                    r.verify_seconds)
                registry.counter("heal.deserialize_seconds").inc(
                    sum(a.deserialize_seconds for a in r.attempts))
                if r.healed:
                    registry.counter("heal.repairs_completed").inc()
                    mttr_hist.observe(r.mttr_seconds)
                else:
                    registry.counter("heal.repairs_abandoned").inc()
            registry.gauge("heal.unhealed_replicas").set(
                sum(1 for r in repairs if not r.healed))
        first_arrival = trace[0].arrival_seconds if trace else 0.0
        last_completion = max(
            (o.completion_seconds for o in outcomes), default=0.0)
        makespan = (max(last_completion - first_arrival, 0.0)
                    if trace else 0.0)
        registry.gauge("cluster.makespan_seconds").set(makespan)

        # ---- Spans (deterministic retroactive emission) ------------
        if tracer is not None:
            root_start = first_arrival if trace else 0.0
            root_end = root_start
            for first, last, _, _ in slot_spans.values():
                root_end = max(root_end, last)
            root_end = max(root_end, last_completion, last_arrival
                           if trace else root_start)
            for r in repairs:
                root_start = min(root_start, r.death_seconds)
                root_end = max(root_end,
                               r.attempts[-1].end_seconds)
            root_attrs = {"n_requests": len(trace),
                          "n_shards": self.n_shards,
                          "n_replicas": self.n_replicas}
            # Quant attrs only when the shards actually ran the staged
            # pipeline — exact cluster traces (incl. the committed
            # golden) stay quant-silent.  The per-shard ServeEngines
            # share self.params, so their caches are already namespaced
            # by the same mode.
            if self.params.quant is not None:
                root_attrs["quant.mode"] = self.params.quant
                root_attrs["quant.rerank"] = self.params.rerank_factor
            root = tracer.begin(
                "cluster.replay", root_start, lane="cluster",
                attributes=root_attrs)
            for slot in sorted(slot_spans):
                first, last, n_requests, n_served = slot_spans[slot]
                shard = slot // self.n_replicas
                replica = slot % self.n_replicas
                tracer.add(
                    "cluster.replica", first, last, parent_id=root,
                    lane=f"cluster/s{shard}r{replica}",
                    attributes={"shard": shard, "replica": replica,
                                "n_requests": n_requests,
                                "n_served": n_served})
            for r in repairs:
                span = tracer.begin(
                    "heal.repair", r.death_seconds, parent_id=root,
                    lane_group="heal.repairs",
                    attributes={"shard": r.shard,
                                "replica": r.replica,
                                "snapshot_bytes": r.snapshot_bytes,
                                "wal_records": r.wal_records})
                tracer.event(span, r.detect_seconds, "heal.detected")
                for index, attempt in enumerate(r.attempts):
                    t = attempt.start_seconds
                    tracer.add("heal.transfer", t,
                               t + attempt.transfer_seconds,
                               parent_id=span)
                    t += attempt.transfer_seconds
                    tracer.add("heal.deserialize", t,
                               t + attempt.deserialize_seconds,
                               parent_id=span)
                    t += attempt.deserialize_seconds
                    if attempt.catchup_seconds > 0:
                        tracer.add("heal.catchup", t,
                                   t + attempt.catchup_seconds,
                                   parent_id=span)
                    t += attempt.catchup_seconds
                    tracer.add("heal.verify", t,
                               t + attempt.verify_seconds,
                               parent_id=span)
                    if not attempt.digest_matched:
                        tracer.event(span, attempt.end_seconds,
                                     "heal.quarantine",
                                     {"attempt": index})
                tracer.end(span, r.attempts[-1].end_seconds,
                           attributes={
                               "status": r.status,
                               "n_attempts": r.n_attempts,
                               "mttr_seconds": (r.mttr_seconds
                                                if r.healed
                                                else -1.0)})
            for pos, outcome in enumerate(outcomes):
                arrival = outcome.arrival_seconds
                span = tracer.begin(
                    "cluster.request", arrival, parent_id=root,
                    lane_group="cluster.requests",
                    attributes={
                        "request_id": outcome.request_id,
                        "n_queries": trace[pos].n_queries})
                if outcome.status is not ClusterStatus.DEADLINE:
                    scatter_end = arrival + outcome.scatter_seconds
                    tracer.add("cluster.scatter", arrival,
                               scatter_end, parent_id=span)
                    tracer.add("cluster.wait", scatter_end,
                               request_base[pos], parent_id=span)
                if outcome.answered:
                    tracer.add("cluster.merge", request_base[pos],
                               outcome.completion_seconds,
                               parent_id=span,
                               attributes={
                                   "merge_cycles":
                                       outcome.merge_cycles,
                                   "n_runs":
                                       outcome.n_shards_answered})
                for name, seconds, attrs in request_events[pos]:
                    tracer.event(span, seconds, name, attrs)
                tracer.end(span, outcome.completion_seconds,
                           attributes={
                               "status": outcome.status.value,
                               "n_shards_answered":
                                   outcome.n_shards_answered,
                               "n_failovers": outcome.n_failovers})
            tracer.end(root, root_end)

        wallclock = time.perf_counter() - wall_start
        registry.gauge("perf.wallclock_seconds").set(wallclock)
        return ClusterReport(
            outcomes=outcomes,
            n_shards=self.n_shards,
            n_replicas=self.n_replicas,
            shard_sizes=self.shard_map.shard_sizes(),
            shard_latencies=[np.array(lat, dtype=np.float64)
                             for lat in shard_lat],
            makespan_seconds=makespan,
            n_replica_deaths=router.n_loss_events,
            metrics=registry,
            wallclock_seconds=wallclock,
            heal_enabled=self.heal is not None,
            repairs=tuple(repairs),
            mttr_bound_seconds=(self.heal.mttr_bound_seconds
                                if self.heal is not None else 0.0),
        )
