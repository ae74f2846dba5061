"""Preallocated, reusable buffers for the arena-backed GANNS search.

A textbook batched search allocates fresh arrays every iteration: two
``np.concatenate`` calls build the ``(m, l_n + l_t)`` merge input, every
phase gathers ``pool[act]`` into a new array, and the results scatter
back.  A :class:`SearchArena` avoids all of that:

- every buffer the six phases touch is allocated **once** and sliced per
  iteration (double-buffered pools, so the merge writes straight into
  the alternate buffer and the two swap);
- active queries live in **compact** rows ``0..m-1``: when queries
  finish, survivors are copied up once and finished queries never pay
  gather costs again.  ``query_rows[:m]`` maps compact rows back to the
  caller's query indices (always sorted ascending, so cycle charges hit
  the tracker with exactly the lane sets of the active queries).

Arenas are cached per ``(l_n, l_t, dtype)`` shape class and reused
across search calls when capacity allows — the serving engine dispatches
thousands of micro-batches with identical parameters, and re-using one
arena keeps the steady-state allocation rate of a replay near zero.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np


class SearchArena:
    """Work buffers for one batched GANNS search.

    Args:
        capacity: Maximum number of queries (compact rows).
        l_n: Pool length.
        l_t: Neighbor-buffer length (the graph's ``d_max``).
        dtype: Distance compute dtype (pool distances are stored in it).
    """

    def __init__(self, capacity: int, l_n: int, l_t: int,
                 dtype: np.dtype):
        self.capacity = int(capacity)
        self.l_n = int(l_n)
        self.l_t = int(l_t)
        self.dtype = np.dtype(dtype)
        shape_n = (self.capacity, self.l_n)
        # Double-buffered pool: the merge phase reads buffer A and
        # writes buffer B, then the two swap roles.
        self.pool_dists = np.empty(shape_n, dtype=self.dtype)
        self.pool_ids = np.empty(shape_n, dtype=np.int64)
        self.pool_explored = np.empty(shape_n, dtype=bool)
        self.alt_dists = np.empty(shape_n, dtype=self.dtype)
        self.alt_ids = np.empty(shape_n, dtype=np.int64)
        self.alt_explored = np.empty(shape_n, dtype=bool)
        #: Pool ids re-sorted by id (the lazy-check probe structure).
        self.ids_sorted = np.empty(shape_n, dtype=np.int64)
        #: Neighbor buffer T (adjacency rows stream into it in place).
        self.t_ids = np.empty((self.capacity, self.l_t), dtype=np.int64)
        #: Compact row -> original query row (always sorted ascending).
        self.query_rows = np.empty(self.capacity, dtype=np.int64)
        self.rows = np.arange(self.capacity, dtype=np.int64)
        # Wide-batch step-merge state: flat cursors into the ravelled
        # pool (stride l_n) and the ravelled padded T run (stride
        # l_t + 1; the extra column is a (+inf, INT64_MAX) sentinel
        # that loses every comparison, so the cursor needs no bounds
        # check).  Output slots accumulate in (l_n, capacity) layout —
        # each slot is one contiguous row write — and transpose back
        # into the pool when the merge finishes.
        self.merge_fa = np.empty(self.capacity, dtype=np.int64)
        self.merge_fb = np.empty(self.capacity, dtype=np.int64)
        self.row_base_a = self.rows * self.l_n
        self.row_base_b = self.rows * (self.l_t + 1)
        self.t_dists_pad = np.empty((self.capacity, self.l_t + 1),
                                    dtype=self.dtype)
        self.t_ids_pad = np.empty((self.capacity, self.l_t + 1),
                                  dtype=np.int64)
        self.t_dists_pad[:, self.l_t] = np.inf
        self.t_ids_pad[:, self.l_t] = np.iinfo(np.int64).max
        self.out_dists = np.empty((self.l_n, self.capacity),
                                  dtype=self.dtype)
        self.out_ids = np.empty((self.l_n, self.capacity),
                                dtype=np.int64)
        self.out_explored = np.empty((self.l_n, self.capacity),
                                     dtype=bool)

    def reset(self, n_queries: int) -> int:
        """Prepare for a fresh search of ``n_queries`` queries.

        Pools are padded with ``(+inf, -1, explored=True)`` — never
        selected for exploration, always sorted to the tail.

        Returns:
            The number of active compact rows (== ``n_queries``).
        """
        if n_queries > self.capacity:
            raise ValueError(
                f"arena capacity {self.capacity} cannot hold "
                f"{n_queries} queries"
            )
        m = int(n_queries)
        self.pool_dists[:m] = np.inf
        self.pool_ids[:m] = -1
        self.pool_explored[:m] = True
        self.query_rows[:m] = np.arange(m)
        return m

    def swap_pools(self) -> None:
        """Exchange the primary and alternate pool buffers."""
        self.pool_dists, self.alt_dists = self.alt_dists, self.pool_dists
        self.pool_ids, self.alt_ids = self.alt_ids, self.pool_ids
        self.pool_explored, self.alt_explored = (
            self.alt_explored, self.pool_explored)

    def compact(self, m: int, keep: np.ndarray) -> int:
        """Drop finished rows; survivors move up, order preserved.

        Args:
            m: Current number of active compact rows.
            keep: ``(m,)`` boolean mask of rows that stay active.

        Returns:
            The new number of active rows.
        """
        survivors = np.flatnonzero(keep)
        new_m = len(survivors)
        if new_m == m:
            return m
        # One gather per live buffer; the temporaries are (new_m, l_n)
        # and only materialise on iterations where queries finished.
        self.pool_dists[:new_m] = self.pool_dists[survivors]
        self.pool_ids[:new_m] = self.pool_ids[survivors]
        self.pool_explored[:new_m] = self.pool_explored[survivors]
        self.query_rows[:new_m] = self.query_rows[survivors]
        return new_m


#: One cached arena per (l_n, l_t, dtype) shape class.  Capacity grows
#: monotonically: a request larger than the cached arena replaces it.
_ARENA_CACHE: Dict[Tuple[int, int, str], SearchArena] = {}
_ARENA_CACHE_MAX = 8


def get_arena(n_queries: int, l_n: int, l_t: int,
              dtype: np.dtype) -> SearchArena:
    """Fetch (or build) an arena able to hold ``n_queries`` queries."""
    key = (int(l_n), int(l_t), np.dtype(dtype).str)
    arena = _ARENA_CACHE.get(key)
    if arena is None or arena.capacity < n_queries:
        if arena is None and len(_ARENA_CACHE) >= _ARENA_CACHE_MAX:
            _ARENA_CACHE.clear()
        arena = SearchArena(n_queries, l_n, l_t, dtype)
        _ARENA_CACHE[key] = arena
    return arena


class RerankScratch:
    """Candidate-pool hand-off buffers for the staged quantized search.

    The compressed traversal retires each query's full ``l_q``-wide pool
    (ids + float32 traversal distances) into these buffers, and the
    exact rerank reads them back.  Like the arenas they are cached per
    shape class and reused across calls — a serving replay runs
    thousands of identically-shaped staged micro-batches, and this keeps
    the per-batch allocation at the final ``(m, k)`` outputs only.
    """

    def __init__(self, capacity: int, l_q: int):
        self.capacity = int(capacity)
        self.l_q = int(l_q)
        self.pool_ids = np.empty((self.capacity, self.l_q),
                                 dtype=np.int64)
        self.pool_dists = np.empty((self.capacity, self.l_q),
                                   dtype=np.float32)


#: One cached scratch per rerank pool width; capacity grows
#: monotonically, exactly like the arena cache.
_RERANK_CACHE: Dict[int, RerankScratch] = {}
_RERANK_CACHE_MAX = 8


def get_rerank_scratch(n_queries: int, l_q: int) -> RerankScratch:
    """Fetch (or build) rerank buffers for ``n_queries`` x ``l_q``."""
    key = int(l_q)
    scratch = _RERANK_CACHE.get(key)
    if scratch is None or scratch.capacity < n_queries:
        if scratch is None and len(_RERANK_CACHE) >= _RERANK_CACHE_MAX:
            _RERANK_CACHE.clear()
        scratch = RerankScratch(n_queries, l_q)
        _RERANK_CACHE[key] = scratch
    return scratch
