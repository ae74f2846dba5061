"""Self-healing: replica rebuild, anti-entropy repair, soak harness.

The cluster (:mod:`repro.cluster`) survives replica deaths by masking
and failover; this package makes it *recover*: a
:class:`~repro.heal.controller.RepairController` watches the router's
loss schedule, rebuilds each dead replica from the owning shard's
latest snapshot (transfer rate-limited on the network model, decoding
charged to the device), replays the WAL delta to catch up, verifies
the rebuild with an anti-entropy graph-digest exchange, and only then
re-admits the replica to routing — a digest mismatch quarantines the
rebuild instead, and the shard returns from ``PARTIAL`` to healthy the
moment a verified replica is back.

:mod:`repro.heal.soak` caps the stack with a whole-stack chaos soak:
long seeded replays across the cluster, mutable-index, and quantized
paths whose invariant oracles (zero silently-wrong answers, bounded
MTTR, byte-identical reruns) gate CI via ``repro soak-sim`` and
``scripts/gates.py heal``.
"""

from repro.heal.controller import (
    REPAIR_ABANDONED,
    REPAIR_HEALED,
    RepairAttempt,
    RepairController,
    RepairRecord,
)
from repro.heal.policy import HealPolicy
from repro.heal.soak import (
    SoakPhaseResult,
    SoakReport,
    count_wrong_answers,
    run_soak_sim,
)
from repro.heal.source import (
    StaticShardSource,
    StoreShardSource,
    shard_payload_bytes,
)

__all__ = [
    "HealPolicy",
    "RepairAttempt",
    "RepairController",
    "RepairRecord",
    "REPAIR_ABANDONED",
    "REPAIR_HEALED",
    "SoakPhaseResult",
    "SoakReport",
    "StaticShardSource",
    "StoreShardSource",
    "count_wrong_answers",
    "run_soak_sim",
    "shard_payload_bytes",
]
