"""Deterministic shard placement: a consistent-hash ring over point ids.

The cluster splits the corpus into ``n_shards`` disjoint index shards.
Placement must be (a) *deterministic* — the same corpus always lands in
the same shards, across processes and Python versions, so cluster
replays stay byte-identical — and (b) *stable* — growing the ring moves
only ``~1/n_shards`` of the keys, the classic consistent-hashing
property a production deployment would rely on when resharding.

Python's built-in ``hash`` is salted per process, so the ring hashes
with BLAKE2b instead: :func:`hash64` is a pure function of its input
bytes everywhere.  Each shard owns :data:`N_VNODES` virtual nodes on
a 64-bit ring; a key belongs to the first virtual node clockwise from its
own hash.

:class:`ShardMap` materializes the assignment: per-shard member arrays
(ascending *global* point ids) that double as the local→global id
translation the scatter-gather merge needs.
"""

from __future__ import annotations

import hashlib
from typing import List, Tuple

import numpy as np

from repro.core.params import as_count
from repro.errors import ClusterError

#: Virtual nodes per shard; more vnodes flatten the shard-size
#: distribution at O(n_shards * N_VNODES) ring size.
N_VNODES = 64


def hash64(data: bytes) -> int:
    """Deterministic 64-bit hash (BLAKE2b; stable across processes)."""
    return int.from_bytes(
        hashlib.blake2b(data, digest_size=8).digest(), "big")


class ConsistentHashRing:
    """A 64-bit consistent-hash ring with virtual nodes.

    Every hash input starts with the namespace ``0:``: another prefix
    would move keys to other shards, and the cluster goldens pin the
    placement.

    Args:
        n_shards: Number of shards owning positions on the ring.
    """

    def __init__(self, n_shards: int):
        self.n_shards = as_count(n_shards, "n_shards", 1, ClusterError)
        entries: List[Tuple[int, int]] = []
        for shard in range(self.n_shards):
            for vnode in range(N_VNODES):
                position = hash64(
                    f"0:vnode:{shard}:{vnode}".encode("ascii"))
                entries.append((position, shard))
        # Sort by (position, shard): two vnodes at one position
        # (astronomically unlikely at 64 bits) still resolve
        # deterministically.
        entries.sort()
        self._positions = np.array([p for p, _ in entries],
                                   dtype=np.uint64)
        self._owners = np.array([s for _, s in entries], dtype=np.int64)

    def shard_of(self, key: int) -> int:
        """Owning shard of one integer key."""
        h = np.uint64(hash64(f"0:key:{int(key)}".encode("ascii")))
        index = int(np.searchsorted(self._positions, h, side="left"))
        return int(self._owners[index % len(self._owners)])

    def assign(self, n_keys: int) -> np.ndarray:
        """Shard of every key in ``range(n_keys)`` as an ``(n,)`` array."""
        if n_keys < 0:
            raise ClusterError(f"n_keys must be >= 0, got {n_keys}")
        return np.array([self.shard_of(key) for key in range(n_keys)],
                        dtype=np.int64)


class ShardMap:
    """Materialized point→shard assignment over a corpus.

    Attributes:
        assignment: ``(n,)`` shard index per global point id.
        members: Per shard, the ascending array of global point ids it
            holds — index ``local`` of shard ``s`` is global point
            ``members[s][local]``, which is exactly the translation the
            scatter-gather merge applies to per-shard results.
        n_shards: Number of shards.
    """

    def __init__(self, assignment: np.ndarray, n_shards: int):
        assignment = np.asarray(assignment, dtype=np.int64)
        if assignment.ndim != 1:
            raise ClusterError(
                f"assignment must be 1-D, got shape {assignment.shape}"
            )
        if n_shards <= 0:
            raise ClusterError(
                f"n_shards must be positive, got {n_shards}"
            )
        if len(assignment) and (assignment.min() < 0
                                or assignment.max() >= n_shards):
            raise ClusterError(
                f"assignment references shards outside [0, {n_shards})"
            )
        self.assignment = assignment
        self.n_shards = int(n_shards)
        self.members: Tuple[np.ndarray, ...] = tuple(
            np.flatnonzero(assignment == shard).astype(np.int64)
            for shard in range(self.n_shards))
        empty = [s for s, m in enumerate(self.members) if len(m) == 0]
        if empty:
            raise ClusterError(
                f"shard(s) {empty} received no points; use fewer shards "
                f"or more vnodes for {len(assignment)} points"
            )

    @classmethod
    def from_ring(cls, n_points: int,
                  ring: ConsistentHashRing) -> "ShardMap":
        """Assign ``range(n_points)`` through a consistent-hash ring."""
        return cls(ring.assign(n_points), ring.n_shards)

    def shard_sizes(self) -> Tuple[int, ...]:
        """Points held by each shard."""
        return tuple(len(m) for m in self.members)

    def to_global(self, shard: int, local_ids: np.ndarray) -> np.ndarray:
        """Translate one shard's local result ids to global ids.

        Negative ids are padding (a shard holding fewer than ``k``
        points) and pass through unchanged — the merge keeps treating
        them as padding.
        """
        local_ids = np.asarray(local_ids, dtype=np.int64)
        out = np.full(local_ids.shape, -1, dtype=np.int64)
        valid = local_ids >= 0
        out[valid] = self.members[shard][local_ids[valid]]
        return out
