"""Crash-safe mutable index: streaming mutations over GGraphCon graphs.

The online lifecycle of a proximity-graph index — streaming inserts,
tombstone deletes, deterministic compaction, copy-on-write snapshots,
and a simulated WAL/checkpoint pair that makes every mutation crash-safe
(see :mod:`repro.mutable.index` for the full contract).
"""

from repro.mutable.compaction import (
    COMPACTION_PHASES,
    CompactionStats,
    compact_graph,
)
from repro.mutable.index import MutableIndex
from repro.mutable.recovery import recover
from repro.mutable.report import (
    OP_RECORD_KINDS,
    MutationReport,
    OpRecord,
    SearchRecord,
)
from repro.mutable.sim import default_build_params, run_mutation_sim
from repro.mutable.snapshot import SnapshotHandle
from repro.mutable.wal import (
    OP_COMPACT,
    OP_DELETE,
    OP_INSERT,
    OP_KINDS,
    DurableStore,
    WalRecord,
    WriteAheadLog,
)

__all__ = [
    "COMPACTION_PHASES",
    "CompactionStats",
    "DurableStore",
    "MutableIndex",
    "MutationReport",
    "OP_COMPACT",
    "OP_DELETE",
    "OP_INSERT",
    "OP_KINDS",
    "OP_RECORD_KINDS",
    "OpRecord",
    "SearchRecord",
    "SnapshotHandle",
    "WalRecord",
    "WriteAheadLog",
    "compact_graph",
    "default_build_params",
    "recover",
    "run_mutation_sim",
]
