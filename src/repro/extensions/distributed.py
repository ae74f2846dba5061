"""GGraphCon on a distributed cluster (Section IV-B's second remark).

"In these system settings, each working unit can be individually
responsible for the construction of one local graph and the search of
nearest neighbors of one point in the merged local graph in each
iteration."  Here the working units are cluster workers, and — unlike
the multi-core case — moving data between units costs real time, so the
simulation adds an explicit network model:

- Phase 1 needs no communication: workers build disjoint local graphs.
- Each merge iteration is a round: the coordinator *broadcasts* the
  rows G_0 gained in the previous round, workers search their share of
  the group in parallel, and the resulting backward-edge list is
  *gathered* back.

The algorithm itself is byte-identical to the GPU/multicore paths (the
graphs match edge-for-edge); the point of the module is the cost
structure: construction becomes latency-bound when rounds are small and
bandwidth-bound when ``d_max`` grows, which is exactly the trade-off a
practitioner sizing such a cluster would need to see.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.baselines.cpu_cost import CpuModel, DEFAULT_CPU
from repro.core.params import BuildParams
from repro.core.results import ConstructionReport
from repro.errors import ConstructionError
from repro.extensions.multicore import build_nsw_multicore
from repro.faults.plan import (
    FAULT_NETWORK_PARTITION,
    FAULT_WORKER_LOSS,
    FaultPlan,
)
from repro.observability.metrics import MetricsRegistry
from repro.observability.span import SpanTracer


@dataclass(frozen=True)
class NetworkModel:
    """Point-to-point cluster network.

    Attributes:
        bandwidth_gbps: Link bandwidth in gigabytes per second.
        latency_ms: One-way message latency in milliseconds.
    """

    bandwidth_gbps: float = 1.25   # ~10 GbE
    latency_ms: float = 0.05       # datacenter RTT/2

    def __post_init__(self) -> None:
        if self.bandwidth_gbps <= 0:
            raise ConstructionError(
                f"bandwidth must be positive, got {self.bandwidth_gbps}"
            )
        if self.latency_ms < 0:
            raise ConstructionError(
                f"latency must be non-negative, got {self.latency_ms}"
            )

    def transfer_seconds(self, n_bytes: float) -> float:
        """One message of ``n_bytes``: latency + serialization."""
        return (self.latency_ms * 1e-3
                + n_bytes / (self.bandwidth_gbps * 1e9))

    def broadcast_seconds(self, n_bytes: float, n_workers: int) -> float:
        """Binomial-tree broadcast to ``n_workers`` receivers."""
        if n_workers <= 0:
            return 0.0
        rounds = max(int(np.ceil(np.log2(n_workers + 1))), 1)
        return rounds * self.transfer_seconds(n_bytes)

    def gather_seconds(self, n_bytes_total: float,
                       n_workers: int) -> float:
        """Gather of ``n_bytes_total`` spread over the workers."""
        if n_workers <= 0:
            return 0.0
        rounds = max(int(np.ceil(np.log2(n_workers + 1))), 1)
        return (rounds * self.latency_ms * 1e-3
                + n_bytes_total / (self.bandwidth_gbps * 1e9))


#: Bytes of one adjacency entry on the wire (id + distance).
_EDGE_BYTES = 12


def build_nsw_distributed(points: np.ndarray, params: BuildParams,
                          n_workers: int = 8, cores_per_worker: int = 4,
                          metric: str = "euclidean",
                          network: NetworkModel = NetworkModel(),
                          cpu: CpuModel = DEFAULT_CPU,
                          exact: bool = False,
                          fault_plan: Optional[FaultPlan] = None,
                          tracer: Optional[SpanTracer] = None,
                          metrics: Optional[MetricsRegistry] = None
                          ) -> ConstructionReport:
    """Build an NSW graph with GGraphCon across cluster workers.

    The compute schedule reuses the multicore engine with
    ``n_workers * cores_per_worker`` cores (work placement is identical);
    this function adds the per-round communication costs on top and
    reports them separately.

    With a ``fault_plan``, the cluster also survives injected
    infrastructure faults: a ``worker_loss`` event reassigns the dead
    worker's shard to a survivor (charging detection, the shard
    re-shipment, and the shard's re-execution), and a
    ``network_partition`` event stalls merge-round communication for
    its duration.  The resulting graph is byte-identical either way —
    failover costs time, never correctness.

    Args:
        points: ``(n, d)`` float matrix.
        params: Build parameters (``n_blocks`` = group count = rounds+1).
        n_workers: Cluster size.
        cores_per_worker: Cores each worker contributes.
        metric: Metric name.
        network: Cluster network model.
        cpu: Per-core timing model.
        exact: Exact-search (theorem) mode.
        fault_plan: Optional :class:`repro.faults.plan.FaultPlan` whose
            cluster-scope events (worker loss, network partition) are
            applied to the build timeline.
        tracer: Optional :class:`repro.observability.span.SpanTracer`;
            when given, the build emits a ``build.distributed`` span on
            the ``build`` lane with one child per timeline phase
            (local construction, failover, merge, communication) and
            attaches every cluster fault as a span event.
        metrics: Optional
            :class:`repro.observability.metrics.MetricsRegistry`; the
            build publishes ``build.*`` counters/gauges (workers,
            rounds, per-phase seconds, worker losses) that reconcile
            exactly with the returned report.

    Returns:
        A :class:`ConstructionReport` with ``phase_seconds`` split into
        compute, communication and failover, and per-round stats in
        ``details``.
    """
    if n_workers <= 0 or cores_per_worker <= 0:
        raise ConstructionError(
            f"n_workers and cores_per_worker must be positive, got "
            f"{n_workers}, {cores_per_worker}"
        )
    compute = build_nsw_multicore(points, params,
                                  n_cores=n_workers * cores_per_worker,
                                  metric=metric, cpu=cpu, exact=exact)
    n = len(points)
    n_groups = int(compute.details["n_groups"])
    group_size = n / n_groups
    d_max, d_min = params.d_max, params.d_min

    # Per merge round: broadcast the rows G_0 gained last round (the
    # previous group's adjacency rows), gather the new backward edges.
    broadcast_bytes = group_size * d_max * _EDGE_BYTES
    gather_bytes = group_size * d_min * _EDGE_BYTES
    per_round = (network.broadcast_seconds(broadcast_bytes, n_workers)
                 + network.gather_seconds(gather_bytes, n_workers))
    n_rounds = max(n_groups - 1, 0)
    comm_seconds = n_rounds * per_round
    # Phase 1 bootstrap: shipping each worker its point shard, once.
    shard_bytes = n * points.shape[1] * 4 / max(n_workers, 1)
    comm_seconds += network.broadcast_seconds(shard_bytes, n_workers)

    # Cluster-scope fault tolerance: worker failover and partitions.
    failover_seconds = 0.0
    partition_seconds = 0.0
    n_losses = 0
    loss_events: List = []
    partition_events: List = []
    if fault_plan is not None:
        local_seconds = compute.phase_seconds.get("local_construction",
                                                  0.0)
        shard_seconds = local_seconds / n_workers
        survivors = n_workers
        for event in fault_plan.cluster_events():
            if event.kind == FAULT_WORKER_LOSS:
                survivors -= 1
                if survivors <= 0:
                    raise ConstructionError(
                        f"fault plan kills all {n_workers} workers; "
                        f"no survivor can adopt the final shard"
                    )
                n_losses += 1
                loss_events.append(event)
                # Detection (missed heartbeat), shard re-shipment to a
                # survivor, then serial re-execution of the lost shard.
                failover_seconds += (
                    network.transfer_seconds(0.0)
                    + network.transfer_seconds(shard_bytes)
                    + shard_seconds)
            elif event.kind == FAULT_NETWORK_PARTITION:
                # Merge rounds block until the partition heals.
                partition_seconds += event.magnitude
                partition_events.append(event)

    phase_seconds: Dict[str, float] = dict(compute.phase_seconds)
    phase_seconds["communication"] = comm_seconds + partition_seconds
    if fault_plan is not None:
        phase_seconds["failover"] = failover_seconds
    total = (compute.seconds + comm_seconds + failover_seconds
             + partition_seconds)

    local_seconds = compute.phase_seconds.get("local_construction", 0.0)
    if metrics is not None:
        metrics.counter("build.builds").inc()
        metrics.counter("build.workers").inc(n_workers)
        metrics.counter("build.rounds").inc(n_rounds)
        metrics.counter("build.points").inc(n)
        metrics.counter("build.worker_losses").inc(n_losses)
        metrics.counter("build.comm_seconds").inc(comm_seconds)
        metrics.counter("build.failover_seconds").inc(failover_seconds)
        metrics.counter("build.partition_seconds").inc(
            partition_seconds)
        for phase, seconds in phase_seconds.items():
            metrics.counter(f"build.phase_seconds.{phase}").inc(seconds)
        metrics.gauge("build.total_seconds").set(total)
    if tracer is not None:
        # Lay the phases out sequentially on the simulated build
        # timeline (local shards, then failover recovery, then the
        # merge compute, then the round communication + any partition
        # stalls), exactly the additive structure ``total`` sums.
        root = tracer.begin(
            "build.distributed", 0.0, lane="build",
            attributes={"n_workers": n_workers,
                        "cores_per_worker": cores_per_worker,
                        "n_points": n, "n_rounds": n_rounds})
        cursor = 0.0
        end = cursor + local_seconds
        tracer.add("build.local_construction", cursor, end,
                   parent_id=root, lane="build",
                   attributes={"seconds": local_seconds})
        cursor = end
        if fault_plan is not None:
            end = cursor + failover_seconds
            span = tracer.add("build.failover", cursor, end,
                              parent_id=root, lane="build",
                              attributes={"n_worker_losses": n_losses})
            for event in loss_events:
                tracer.event(span, cursor, "worker_loss",
                             {"kind": event.kind,
                              "scheduled_seconds": event.at_seconds})
            cursor = end
        merge_seconds = max(compute.seconds - local_seconds, 0.0)
        end = cursor + merge_seconds
        tracer.add("build.merge", cursor, end, parent_id=root,
                   lane="build", attributes={"n_rounds": n_rounds})
        cursor = end
        end = cursor + comm_seconds + partition_seconds
        span = tracer.add("build.communication", cursor, end,
                          parent_id=root, lane="build",
                          attributes={
                              "comm_seconds": comm_seconds,
                              "partition_seconds": partition_seconds})
        for event in partition_events:
            tracer.event(span, cursor, "network_partition",
                         {"kind": event.kind,
                          "scheduled_seconds": event.at_seconds,
                          "stall_seconds": event.magnitude})
        tracer.end(root, end, attributes={"total_seconds": total})

    return ConstructionReport(
        algorithm="ggraphcon-distributed",
        graph=compute.graph,
        seconds=total,
        phase_seconds=phase_seconds,
        n_points=n,
        details={
            "n_workers": float(n_workers),
            "cores_per_worker": float(cores_per_worker),
            "n_rounds": float(n_rounds),
            "comm_seconds": comm_seconds,
            "compute_seconds": compute.seconds,
            "n_worker_losses": float(n_losses),
            "failover_seconds": failover_seconds,
            "partition_seconds": partition_seconds,
        },
    )
