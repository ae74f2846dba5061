"""Crash recovery: rebuild a mutable index from the durable store.

Recovery is a pure function of the :class:`~repro.mutable.wal.DurableStore`:
load the last checkpoint (or replay the base build from the store's
superblock when none exists), then apply the surviving WAL records in
LSN order through the *same* deterministic apply paths the live index
used.  Because every apply step — the construction kernels, the
tombstone flips, the compaction pass — is a deterministic function of
prior state, two recoveries of the same store produce byte-identical
indexes, and both match what a crash-free process would have reached
after the surviving prefix of mutations.  That is the crash-safety
acceptance bar: *recovered digest == clean-replay digest, never a torn
graph.*
"""

from __future__ import annotations

import numpy as np

from repro.errors import MutableIndexError
from repro.mutable.index import MutableIndex
from repro.mutable.wal import (
    OP_COMPACT,
    OP_DELETE,
    OP_INSERT,
    DurableStore,
    decode_params,
)


def recover(store: DurableStore, tracer=None, metrics=None,
            now: float = 0.0) -> MutableIndex:
    """Rebuild the index the durable store describes.

    Args:
        store: The surviving durable state (checkpoint + WAL + meta).
        tracer: Optional span tracer (one ``recovery.replay`` span;
            replayed records emit no spans of their own).
        metrics: Optional metrics registry (``recovery.runs``,
            ``recovery.replayed_records``).
        now: Simulated time the recovery starts (span placement only;
            records replay at their original timestamps).

    Returns:
        A :class:`MutableIndex` whose digest equals a clean replay of
        the surviving log.
    """
    span = tracer.begin("recovery.replay", now,
                        lane="mutate") if tracer else None
    records = store.surviving_records()
    if store.checkpoint is not None:
        index = MutableIndex.from_checkpoint_bytes(store.checkpoint, store)
        replay = records
    else:
        if store.meta is None:
            raise MutableIndexError(
                "store has no checkpoint and no superblock meta; "
                "nothing to recover from")
        if not records or records[0].op != OP_INSERT:
            raise MutableIndexError(
                "store has no checkpoint and the WAL does not start "
                "with the base-build insert record")
        index = MutableIndex._apply_base_build(
            store, np.asarray(records[0].points),
            decode_params(store.meta),
            metric=str(store.meta["metric"]),
            search_kernel=str(store.meta["search_kernel"]))
        replay = records[1:]

    # Replayed records deliberately publish no mutate.* metrics and no
    # mutate spans: they re-apply mutations the registry and tracer
    # already recorded when they first landed, and double-counting
    # would break zero-drift reconciliation (and overlap the original
    # spans' lane intervals).  Recovery publishes its own recovery.*
    # counters and one ``recovery.replay`` span.
    n_replayed = 0
    for record in replay:
        if record.op == OP_INSERT:
            index._apply_insert(record.points, record.at_seconds)
        elif record.op == OP_DELETE:
            index._apply_delete(record.ids, record.at_seconds)
        elif record.op == OP_COMPACT:
            index._apply_compact(record.at_seconds, log=False)
        else:  # pragma: no cover - WalRecord validates op kinds
            raise MutableIndexError(f"unknown WAL op {record.op!r}")
        n_replayed += 1

    index.last_recovery = {"n_replayed": n_replayed,
                           "from_checkpoint":
                               store.checkpoint is not None}
    if metrics is not None:
        metrics.counter("recovery.runs").inc()
        metrics.counter("recovery.replayed_records").inc(n_replayed)
    if span is not None:
        tracer.end(span, now, attributes={
            "n_replayed": n_replayed,
            "from_checkpoint": int(store.checkpoint is not None),
            "epoch": index.epoch})
    return index

