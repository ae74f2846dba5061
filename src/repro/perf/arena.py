"""Working state of one GANNS traversal call: the search arena and the
evaluated-pairs bitmap.

A textbook batched search allocates fresh arrays every iteration
(``np.concatenate`` for the merge input, a ``pool[act]`` gather per
phase).  A :class:`SearchArena` avoids that:

- the pool and the neighbor-id buffer T are allocated **once per call**
  and sliced per iteration; T's distances never take matrix form (phase 3
  evaluates the fresh records as a flat vector and the insertion merge
  takes that), and the merge rewrites touched pool rows in place, so
  there is one copy of the pool and no merge scratch;
- active queries live in **compact** rows ``0..m-1``: when queries
  finish, survivors are copied up once and finished queries never pay
  gather costs again.  ``query_rows[:m]`` maps compact rows back to the
  caller's query indices (always sorted ascending, so per-iteration
  cycle charges hit the tracker with exactly the lane sets of the
  active queries).

Both live for one call and are dropped on return: no search leaves
behind anything the next one could read.  (A replay searches wide —
``core/pipeline.py::_LaneStore`` — so a call is a whole batch of
queries, and building its arena is a negligible share of it.)
"""

from __future__ import annotations

import numpy as np

#: Single-bit masks, indexed by bit position within a byte.
_BIT = np.left_shift(1, np.arange(8)).astype(np.uint8)

#: Ceiling on the :class:`EvaluatedPairs` bitmaps of one search call
#: (``ceil(n / 8)`` bytes per query or lane): past ~1M vertices, wide
#: calls split (Algorithm 1's lock-step lanes, a replay's lane store).
BITMAP_BUDGET_BYTES = 64 << 20


class EvaluatedPairs:
    """"This (query, vertex) distance was evaluated in this call" bitmap.

    The lazy check's host form, one bit per (query, vertex): set when a
    T record is evaluated, never cleared.  It admits the same entrants
    as the paper's scan of the pool — a record that is out of the pool
    again sits at or behind a last pool record that only ever moves
    forward (``docs/performance.md``, "Charged vs evaluated distances")
    — so a distance is computed once per pair however often it is
    charged.  Keyed by the caller's query row, so compaction moves
    nothing.  ``n_queries * ceil(n / 8)`` bytes.
    """

    def __init__(self, n_queries: int, n_vertices: int):
        #: Bits per query row, a whole number of bytes.
        self.stride = -(-int(n_vertices) // 8) * 8
        self.bits = np.zeros(int(n_queries) * (self.stride // 8),
                             dtype=np.uint8)

    def contains(self, query_rows: np.ndarray,
                 ids: np.ndarray) -> np.ndarray:
        """``(m, w)`` membership of ``ids[j]`` in query ``query_rows[j]``.
        Pad ids (``-1``) read the bit before the row's first: in bounds
        and meaningless — callers mask those lanes."""
        flat = query_rows[:, None] * self.stride + ids
        return (self.bits.take(flat >> 3, mode="wrap")
                & _BIT.take(flat & 7)) != 0

    def insert(self, query_rows: np.ndarray, ids: np.ndarray) -> None:
        """Set ``ids[j]`` in query ``query_rows[j]`` (flat, aligned).
        ``ufunc.at`` because two records of one call may share a byte."""
        flat = query_rows * self.stride + ids
        np.bitwise_or.at(self.bits, flat >> 3, _BIT.take(flat & 7))


class SearchArena:
    """Work buffers for one batched GANNS search, ready to run.

    Pools start padded with ``(+inf, -1, explored=True)`` — never
    selected for exploration, always sorted to the tail — and every
    query active in compact row ``i == query_rows[i]``.

    Args:
        n_queries: Number of queries (compact rows).
        l_n: Pool length.
        l_t: Neighbor-buffer length (the graph's ``d_max``).
        dtype: Distance compute dtype (pool distances are stored in it).
    """

    def __init__(self, n_queries: int, l_n: int, l_t: int,
                 dtype: np.dtype):
        n_queries = int(n_queries)
        self.l_n = int(l_n)
        self.l_t = int(l_t)
        self.dtype = np.dtype(dtype)
        shape_n = (n_queries, self.l_n)
        self.pool_dists = np.full(shape_n, np.inf, dtype=self.dtype)
        self.pool_ids = np.full(shape_n, -1, dtype=np.int64)
        self.pool_explored = np.ones(shape_n, dtype=bool)
        #: Neighbor buffer T (adjacency rows stream into it in place).
        self.t_ids = np.empty((n_queries, self.l_t), dtype=np.int64)
        self.rows = np.arange(n_queries, dtype=np.int64)
        #: Compact row -> original query row (always sorted ascending).
        self.query_rows = self.rows.copy()

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


def get_arena(n_queries: int, l_n: int, l_t: int,
              dtype: np.dtype) -> SearchArena:
    """A fresh arena for one search call of ``n_queries`` queries."""
    return SearchArena(n_queries, l_n, l_t, dtype)
