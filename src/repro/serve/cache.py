"""LRU result cache of one serving engine, keyed by the query's bytes.

Serving workloads repeat themselves: hot queries (trending searches,
retried calls) arrive many times within seconds.  Answering a repeat
from a cache costs a hash lookup instead of a graph traversal, so the
GPU batches stay full of *novel* work.

A cache serves exactly one :class:`repro.serve.engine.ServeEngine`
(one graph, one corpus, one set of tier-0 parameters), which binds it
at construction and refuses a cache another engine already holds.  So
the key is the query alone: its float64 bytes, with ``-0.0`` folded to
``+0.0``.  A hit is therefore the answer a fresh search of the same
vector would give, byte for byte.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.params import as_count


def _key(query: np.ndarray) -> bytes:
    """The query's float64 bytes; ``-0.0 + 0.0 == +0.0`` folds the
    signed zero, the one pair of equal values with different bytes."""
    return (np.asarray(query, dtype=np.float64).ravel() + 0.0).tobytes()


@dataclass
class CacheStats:
    """Counters accumulated over a cache's lifetime."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0


class ResultCache:
    """Bounded LRU cache of per-query search results.

    Args:
        capacity: Maximum resident entries; ``0`` disables the cache
            (every lookup misses, every put is dropped).
    """

    def __init__(self, capacity: int = 4096):
        self.capacity = as_count(capacity, "cache capacity", 0)
        self.stats = CacheStats()
        #: The engine this cache serves (set by ``ServeEngine``).
        self.owner: Optional[object] = None
        # key -> (ids, dists); most recent last.
        self._entries: "OrderedDict[bytes, tuple]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, query: np.ndarray
            ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Look up one ``(d,)`` query vector; returns ``(ids, dists)``
        or ``None``."""
        key = _key(query)
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def put(self, query: np.ndarray, ids: np.ndarray,
            dists: np.ndarray) -> None:
        """Insert one query's results, evicting the LRU entry if full."""
        if self.capacity == 0:
            return
        key = _key(query)
        self._entries[key] = (np.asarray(ids).copy(),
                              np.asarray(dists).copy())
        self._entries.move_to_end(key)
        self.stats.insertions += 1
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
