"""Sharded multi-replica serving cluster with scatter-gather top-k.

The package is the query-path serving topology: consistent-hash
placement (:mod:`repro.cluster.placement`), a
health-masking round-robin replica router
(:mod:`repro.cluster.router`), an exact cost-charged top-k merge
(:mod:`repro.cluster.merge`), the scatter-gather
:class:`~repro.cluster.engine.ClusterEngine` itself, and the
deterministic :class:`~repro.cluster.report.ClusterReport` it emits.
"""

from repro.cluster.engine import ClusterEngine
from repro.cluster.merge import (
    merge_cycles_per_query,
    merge_launch,
    merge_topk,
)
from repro.cluster.placement import ConsistentHashRing, ShardMap, hash64
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

__all__ = [
    "ClusterEngine",
    "ClusterOutcome",
    "ClusterReport",
    "ClusterStatus",
    "ConsistentHashRing",
    "ReplicaRouter",
    "RouteDecision",
    "RouterPolicy",
    "ShardMap",
    "hash64",
    "merge_cycles_per_query",
    "merge_launch",
    "merge_topk",
]
