"""LRU result cache keyed by quantized query vector + search params.

Serving workloads repeat themselves: hot queries (trending searches,
retried calls) arrive many times within seconds.  Answering a repeat
from a cache costs a hash lookup instead of a graph traversal, so the
GPU batches stay full of *novel* work.

The key quantizes the query vector to :data:`QUERY_DECIMALS` decimals —
two float vectors that differ below the quantization step share a bucket.
Because approximate matches could silently return another query's
neighbors, every hit is verified against the exact vector stored in the
entry; a bucket collision is counted and treated as a miss, never
served.  The cache therefore only ever returns results that are
byte-identical to a fresh search of the same vector.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.params import as_count

#: Decimals the bucket key rounds each query coordinate to.
QUERY_DECIMALS = 6


def quantize_query(query: np.ndarray) -> bytes:
    """Bucket key for a query vector: rounded float64 bytes.

    Rounding collapses float noise (e.g. a re-encoded float32 upload of
    the same logical vector) into one bucket; ``-0.0`` is normalised so
    it shares the bucket of ``+0.0``.
    """
    rounded = np.round(np.asarray(query, dtype=np.float64).ravel(),
                       QUERY_DECIMALS)
    rounded += 0.0  # -0.0 + 0.0 == +0.0
    return rounded.tobytes()


@dataclass
class CacheStats:
    """Counters accumulated over a cache's lifetime."""

    hits: int = 0
    misses: int = 0
    collisions: int = 0
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
        # key -> (exact query vector, ids, dists); most recent last.
        self._entries: "OrderedDict[tuple, tuple]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, query: np.ndarray, signature: tuple
            ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Look up one query vector; returns ``(ids, dists)`` or ``None``.

        Args:
            query: ``(d,)`` query vector.
            signature: Result-affecting search-parameter identity, as
                produced by :meth:`repro.core.params.SearchParams.signature`.
        """
        key = quantize_query(query), signature
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        stored_query, ids, dists = entry
        if not np.array_equal(
                np.asarray(query, dtype=np.float64).ravel(), stored_query):
            # Two distinct vectors share the quantization bucket; serving
            # the stored result would answer the wrong query.
            self.stats.collisions += 1
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return ids, dists

    def put(self, query: np.ndarray, signature: tuple,
            ids: np.ndarray, dists: np.ndarray) -> None:
        """Insert one query's results, evicting the LRU entry if full."""
        if self.capacity == 0:
            return
        key = quantize_query(query), signature
        exact = np.asarray(query, dtype=np.float64).ravel().copy()
        self._entries[key] = (exact, np.asarray(ids).copy(),
                              np.asarray(dists).copy())
        self._entries.move_to_end(key)
        self.stats.insertions += 1
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
