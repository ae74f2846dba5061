"""Copy-on-write versioned snapshots of the mutable index.

A :class:`SnapshotHandle` pins one epoch of the index: the graph, the
point matrix, the tombstone mask and the entry vertex exactly as they
were at :meth:`repro.mutable.index.MutableIndex.snapshot` time.  The
handle holds *references* — taking a snapshot copies nothing.  Instead
the index goes copy-on-write: the first mutation after a snapshot deep-
copies the live state and mutates the copy, leaving every outstanding
handle untouched.  In-flight searches and serve replays against a
pinned handle (:meth:`repro.cluster.engine.ClusterEngine.from_snapshot`)
are therefore byte-identical no matter how many inserts, deletes or
compactions land after the pin.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.graphs.adjacency import ProximityGraph


class SnapshotHandle:
    """One pinned, immutable version of a :class:`MutableIndex`.

    Attributes:
        epoch: The index epoch this handle pins.
        graph: The pinned graph (shared until the index COWs away).
        points: Pinned ``(n_slots, d)`` point matrix.
        tombstones: Pinned ``(n_slots,)`` tombstone mask.
        entry: Pinned entry vertex (always live at pin time).
    """

    def __init__(self, epoch: int, graph: ProximityGraph,
                 points: np.ndarray, tombstones: np.ndarray,
                 entry: int):
        self.epoch = int(epoch)
        self.graph = graph
        self.points = points
        self.tombstones = tombstones
        self.entry = int(entry)

    def live_ids(self) -> np.ndarray:
        """External ids alive at pin time, ascending."""
        return np.flatnonzero(~self.tombstones)


def state_digest(header: bytes, points: np.ndarray, graph: ProximityGraph,
                 tombstones: np.ndarray) -> str:
    """SHA-256 over ``header`` and then the canonical bytes of an index
    state: points, the graph's three arrays, the tombstone mask."""
    h = hashlib.sha256(header)
    for array in (points, graph.neighbor_ids, graph.neighbor_dists,
                  graph.degrees, tombstones):
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()
