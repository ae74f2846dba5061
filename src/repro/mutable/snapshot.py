"""Copy-on-write versioned snapshots of the mutable index.

A :class:`SnapshotHandle` pins one epoch of the index: the graph, the
point matrix, the tombstone mask and the entry vertex exactly as they
were at :meth:`repro.mutable.index.MutableIndex.snapshot` time.  The
handle holds *references* — taking a snapshot copies nothing.  Instead
the index goes copy-on-write: the first mutation after a snapshot deep-
copies the live state and mutates the copy, leaving every outstanding
handle untouched.  In-flight searches and serve replays against a
pinned handle are therefore byte-identical no matter how many inserts,
deletes or compactions land after the pin.

``serving_view()`` materialises a search-ready view: if the pinned
epoch carries pending tombstones, a compacted *copy* of the pinned
graph is built (slot ids are stable, so no id remapping is needed and
no tombstone can be returned); otherwise the pinned graph serves
directly.  The view is cached on the handle, so repeated replays reuse
it.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Tuple

import numpy as np

from repro.core.ganns import ganns_search
from repro.core.params import SearchParams
from repro.graphs.adjacency import ProximityGraph
from repro.mutable.compaction import compact_graph


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
        self._view: Optional[Tuple[ProximityGraph, np.ndarray, int]] = None

    def live_ids(self) -> np.ndarray:
        """External ids alive at pin time, ascending."""
        return np.flatnonzero(~self.tombstones)

    def serving_view(self) -> Tuple[ProximityGraph, np.ndarray, int]:
        """A ``(graph, points, entry)`` triple safe to search directly.

        Tombstoned vertices are unreachable in the view, so a plain
        :func:`~repro.core.ganns.ganns_search` over it can never return
        a deleted id and needs no post-filtering.  Slot ids are stable:
        result ids are external ids.  The materialisation is a pure
        function of the pinned state, computed once per handle.
        """
        if self._view is None:
            if np.any(self.tombstones):
                view_graph = self.graph.copy()
                compact_graph(view_graph, self.points, self.tombstones)
                self._view = (view_graph, self.points, self.entry)
            else:
                self._view = (self.graph, self.points, self.entry)
        return self._view

    def search(self, queries: np.ndarray, params: SearchParams):
        """Search the pinned version (see :func:`ganns_search`)."""
        view_graph, view_points, entry = self.serving_view()
        return ganns_search(view_graph, view_points, queries, params,
                            entry=entry)


def state_digest(header: bytes, points: np.ndarray, graph: ProximityGraph,
                 tombstones: np.ndarray) -> str:
    """SHA-256 over ``header`` and then the canonical bytes of an index
    state: points, the graph's three arrays, the tombstone mask."""
    h = hashlib.sha256(header)
    for array in (points, graph.neighbor_ids, graph.neighbor_dists,
                  graph.degrees, tombstones):
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()
