"""Rebuild sources: where a dead replica's replacement state comes from.

A repair source answers two questions for the controller, both
deterministically:

1. **How many bytes ship?**  (:attr:`snapshot_bytes` — charged to the
   rate-limited repair lane of the network model.)
2. **How much catch-up work follows?**  (:attr:`catchup_seconds` /
   :attr:`wal_records` — the WAL delta between the snapshot and the
   shard's current state, replayed through the mutable-index recovery
   machinery.)

Verification needs nothing from the source: the controller charges one
digest round trip and draws the attempt's verdict from the fault plan's
``"heal:corruption"`` stream (see :mod:`repro.heal.controller`).

Two implementations cover the two cluster shapes:

- :class:`StaticShardSource` — an immutable shard built straight from
  a corpus: the shard's own graph + points *are* the snapshot (only
  their size is kept) and there is no WAL delta (unless the cluster
  pins a mutable-index epoch, in which case the engine attaches the
  store's delta).
- :class:`StoreShardSource` — a :class:`repro.mutable.wal.DurableStore`
  is the ground truth: the snapshot is the durable checkpoint and the
  catch-up is the surviving WAL replayed through
  :func:`repro.mutable.recovery.recover` (cached — recovery is a pure
  function of the store).
"""

from __future__ import annotations

import numpy as np

from repro.core.params import as_count, as_finite
from repro.errors import HealError


def shard_payload_bytes(graph, points: np.ndarray) -> int:
    """Wire size of one shard's serving state (adjacency + vectors)."""
    return int(graph.neighbor_ids.nbytes + graph.neighbor_dists.nbytes
               + graph.degrees.nbytes
               + np.ascontiguousarray(points).nbytes)


class StaticShardSource:
    """Snapshot source for a shard whose serving state is immutable.

    Only the three answers are kept: the shard's arrays are read once,
    for their wire size.

    Args:
        graph: The shard's authoritative proximity graph.
        points: The shard's point matrix.
        catchup_seconds: Simulated cost of replaying the WAL delta a
            rebuilt replica must catch up (``0.0`` for a plain corpus
            shard; the cluster engine supplies the durable store's
            delta when it serves a pinned mutable-index epoch); a
            finite number ``>= 0``.
        wal_records: Records in that delta; an integer ``>= 0``.

    Raises:
        HealError: When ``catchup_seconds`` is NaN, infinite or
            negative, or ``wal_records`` is not an integer (a ``bool``
            included) or is negative.
    """

    def __init__(self, graph, points: np.ndarray,
                 catchup_seconds: float = 0.0, wal_records: int = 0):
        catchup_seconds = as_finite(catchup_seconds, "catchup_seconds",
                                    HealError)
        if catchup_seconds < 0:
            raise HealError(
                f"catchup_seconds must be >= 0, got {catchup_seconds}"
            )
        self.snapshot_bytes = shard_payload_bytes(graph, points)
        self.catchup_seconds = catchup_seconds
        self.wal_records = as_count(wal_records, "wal_records", 0,
                                    HealError)


class StoreShardSource:
    """Snapshot source backed by a durable store (checkpoint + WAL).

    Recovery is run lazily — once — through
    :func:`repro.mutable.recovery.recover`; every property below is a
    pure function of the store's bytes, so two sources over equal
    stores answer identically.

    Args:
        store: The :class:`repro.mutable.wal.DurableStore` holding the
            shard's checkpoint and write-ahead log.
    """

    def __init__(self, store):
        self.store = store
        self._recovered = None

    @property
    def recovered(self):
        """The index recovery rebuilds from the store (cached)."""
        if self._recovered is None:
            from repro.mutable.recovery import recover
            self._recovered = recover(self.store)
        return self._recovered

    @property
    def snapshot_bytes(self) -> int:
        """Bytes shipped: the checkpoint blob, or — for a store that
        never checkpointed — the recovered serving state itself."""
        if self.store.checkpoint is not None:
            return len(self.store.checkpoint)
        index = self.recovered
        return shard_payload_bytes(index.graph, index.points)

    @property
    def catchup_seconds(self) -> float:
        """Simulated mutation time of the WAL delta past the checkpoint.

        The rebuilt replica restores the checkpoint and then replays
        the surviving records; the charge is exactly the mutation time
        recovery accumulates *beyond* what the checkpoint already
        folded in.
        """
        index = self.recovered
        if self.store.checkpoint is None:
            return float(index.mutation_seconds)
        from repro.mutable.index import MutableIndex
        baseline = MutableIndex.from_checkpoint_bytes(
            self.store.checkpoint, self.store)
        return float(index.mutation_seconds
                     - baseline.mutation_seconds)

    @property
    def wal_records(self) -> int:
        """Surviving WAL records the rebuilt replica replays."""
        return len(self.store.surviving_records())
