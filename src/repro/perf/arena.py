"""Working state of one GANNS traversal call: the search arena and the
evaluated-pairs map.

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
:func:`lanes_per_call` is how wide a call may be.
"""

from __future__ import annotations

import numpy as np

#: Ceiling on the :class:`EvaluatedPairs` maps of one search call
#: (``n`` bytes per query or lane: 16,777 lanes over 4,000 vertices, 67
#: over a million); wider calls split (Algorithm 1's lock-step lanes, a
#: replay's lane store).
BITMAP_BUDGET_BYTES = 64 << 20

#: Bytes of one pool slot at most: a float64 distance, an int64 id and
#: an explored flag.
POOL_SLOT_BYTES = 17

#: Cache budget for the pools of one search call: every iteration pays
#: a fixed cost once for the whole call, so a call takes as many lanes
#: as keep their pools this size (1,927 at ``l_n = 64``).
POOL_BUDGET_BYTES = 2 << 20


def lanes_per_call(n_vertices: int, pool_width: int, at_least: int) -> int:
    """Lanes one search call takes: the most whose
    :class:`EvaluatedPairs` rows over ``n_vertices`` fit
    :data:`BITMAP_BUDGET_BYTES` and, for a search with pools of
    ``pool_width`` slots (``0``: none), whose pools fit
    :data:`POOL_BUDGET_BYTES` — but never fewer than ``at_least``."""
    lanes = BITMAP_BUDGET_BYTES // max(int(n_vertices), 1)
    if pool_width:
        lanes = min(lanes,
                    POOL_BUDGET_BYTES // (pool_width * POOL_SLOT_BYTES))
    return max(at_least, lanes)


class EvaluatedPairs:
    """"This (query, vertex) distance was evaluated in this call" map.

    The lazy check's host form, one flag per (query, vertex): set when a
    T record is evaluated, never cleared.  It admits the same entrants
    as the paper's scan of the pool — a record that is out of the pool
    again sits at or behind a last pool record that only ever moves
    forward (``docs/performance.md``, "Charged vs evaluated distances")
    — so a distance is computed once per pair however often it is
    charged.  Keyed by the caller's query row, so compaction moves
    nothing.  ``n_queries * n`` bytes: a flag is a byte, not a bit, so
    a lookup is one gather and an insert one scatter (two records of
    one call may share a bitmap's byte, which needs ``ufunc.at``).
    """

    def __init__(self, n_queries: int, n_vertices: int):
        self.stride = int(n_vertices)
        self.flags = np.zeros(int(n_queries) * self.stride, dtype=bool)

    def contains(self, query_rows: np.ndarray,
                 ids: np.ndarray) -> np.ndarray:
        """``(m, w)`` membership of ``ids[j]`` in query ``query_rows[j]``.
        Pad ids (``-1``, or ``-1`` less a block offset) read a clipped
        flag: in bounds and meaningless — callers mask those lanes."""
        return self.flags.take(query_rows[:, None] * self.stride + ids,
                               mode="clip")

    def insert(self, query_rows: np.ndarray, ids: np.ndarray) -> None:
        """Set ``ids[j]`` in query ``query_rows[j]`` (flat, aligned)."""
        self.flags[query_rows * self.stride + ids] = True


class SearchArena:
    """Work buffers for one batched GANNS search, ready to run.

    Pools start padded with ``(+inf, -1, explored=True)`` — never
    selected for exploration, always sorted to the tail — and every
    query active in compact row ``i == query_rows[i]``.  A lane's
    running totals sit in its compact row too, written out once, when
    it retires.

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
        #: Flat views of the pool, and views of its last column (the
        #: record a newcomer must precede to enter).
        self.flat_dists = self.pool_dists.ravel()
        self.flat_ids = self.pool_ids.ravel()
        self.flat_explored = self.pool_explored.ravel()
        self.last_dists = self.pool_dists[:, -1]
        self.last_ids = self.pool_ids[:, -1]
        self.cols = np.arange(self.l_n)
        #: Neighbor buffer T (adjacency rows stream into it in place).
        self.t_ids = np.empty((n_queries, self.l_t), dtype=np.int64)
        self.rows = np.arange(n_queries, dtype=np.int64)
        #: Compact row -> original query row (always sorted ascending).
        self.query_rows = self.rows.copy()
        #: Per-lane totals so far: ``bulk_distance`` cycles, and the
        #: distances charged (column 0) and evaluated (column 1).
        self.bulk_cycles = np.zeros(n_queries)
        self.counts = np.zeros((n_queries, 2), dtype=np.int64)

    def compact(self, survivors: np.ndarray) -> int:
        """Drop finished rows; survivors move up, order preserved.

        Args:
            survivors: Ascending compact rows that stay active.

        Returns:
            The new number of active rows.
        """
        new_m = len(survivors)
        # One gather per row buffer; the temporaries are (new_m, l_n)
        # and only materialise on iterations where queries finished.
        for rows in (self.pool_dists, self.pool_ids, self.pool_explored,
                     self.query_rows, self.bulk_cycles, self.counts):
            rows[:new_m] = rows[survivors]
        return new_m


def get_arena(n_queries: int, l_n: int, l_t: int,
              dtype: np.dtype) -> SearchArena:
    """A fresh arena for one search call of ``n_queries`` queries."""
    return SearchArena(n_queries, l_n, l_t, dtype)
