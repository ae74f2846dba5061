"""Fixed-degree adjacency storage for proximity graphs.

A :class:`ProximityGraph` keeps, per vertex, a fixed-width row of at most
``d_max`` outgoing neighbors *ordered by distance* (ties by id), padded with
``-1`` ids and ``+inf`` distances.  This is the layout the paper requires
("the adjacency list of each vertex is an array with fixed size d_max where
elements are ordered by distance") and the reason its kernels never touch a
dynamic allocation.

:class:`HierarchicalGraph` stacks per-layer :class:`ProximityGraph` objects
for HNSW-style indices.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.errors import GraphError
from repro.metrics.distance import Metric, get_metric

PAD_ID = -1
PAD_DIST = np.inf

#: Distance-storage dtypes a graph may be pinned to.
GRAPH_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class ProximityGraph:
    """Directed proximity graph with distance-ordered fixed-degree rows.

    Args:
        n_vertices: Number of vertices (== number of points).
        d_max: Maximum out-degree; rows are dense arrays of this width.
        metric: Metric name used to build the graph (carried for search).
        dtype: Distance-storage dtype (``float32`` or ``float64``).
            Pinned at creation: every row write casts to it, so a graph
            never silently mixes precisions.  Default ``float64``
            preserves the historical layout byte-for-byte.
    """

    def __init__(self, n_vertices: int, d_max: int,
                 metric: str = "euclidean", dtype: object = np.float64):
        if n_vertices <= 0:
            raise GraphError(f"n_vertices must be positive, got {n_vertices}")
        if d_max <= 0:
            raise GraphError(f"d_max must be positive, got {d_max}")
        dtype = np.dtype(dtype)
        if dtype not in GRAPH_DTYPES:
            raise GraphError(
                f"graph distance dtype must be one of "
                f"{tuple(d.name for d in GRAPH_DTYPES)}, got {dtype.name}"
            )
        self.n_vertices = int(n_vertices)
        self.d_max = int(d_max)
        self.metric_name = metric
        self.dtype = dtype
        self.neighbor_ids = np.full((n_vertices, d_max), PAD_ID,
                                    dtype=np.int64)
        self.neighbor_dists = np.full((n_vertices, d_max), PAD_DIST,
                                      dtype=dtype)
        self.degrees = np.zeros(n_vertices, dtype=np.int64)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def metric(self) -> Metric:
        """Metric instance the graph was built under."""
        return get_metric(self.metric_name)

    def neighbors(self, vertex: int) -> np.ndarray:
        """Out-neighbor ids of ``vertex``, closest first (no padding)."""
        self._check_vertex(vertex)
        return self.neighbor_ids[vertex, :self.degrees[vertex]].copy()

    def n_edges(self) -> int:
        """Total number of directed edges."""
        return int(self.degrees.sum())

    def memory_bytes(self) -> int:
        """Bytes of the dense adjacency representation (the paper's
        ``O(n_p x d_max)`` global-memory figure)."""
        return (self.neighbor_ids.nbytes + self.neighbor_dists.nbytes
                + self.degrees.nbytes)

    def _check_vertex(self, vertex: int) -> None:
        if not 0 <= vertex < self.n_vertices:
            raise GraphError(
                f"vertex {vertex} out of range [0, {self.n_vertices})"
            )

    def widened(self, n_vertices: int) -> "ProximityGraph":
        """A copy with empty rows appended up to ``n_vertices`` rows."""
        wide = ProximityGraph(n_vertices, self.d_max, self.metric_name,
                              dtype=self.dtype)
        wide.neighbor_ids[:self.n_vertices] = self.neighbor_ids
        wide.neighbor_dists[:self.n_vertices] = self.neighbor_dists
        wide.degrees[:self.n_vertices] = self.degrees
        return wide

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def insert_edge(self, src: int, dst: int, dist: float) -> bool:
        """Insert ``src -> dst`` keeping the row sorted by (dist, id).

        Mirrors the kernel's behaviour exactly: locate the position by
        binary search, shift the tail, and "the last element is discarded if
        the list is already full".  Inserting an edge that already exists is
        a no-op.

        Returns:
            True when the edge was inserted, False when it was rejected
            (already present, or worse than a full row's last entry).
        """
        self._check_vertex(src)
        self._check_vertex(dst)
        if src == dst:
            raise GraphError(f"self-loop rejected at vertex {src}")
        degree = int(self.degrees[src])
        row_ids = self.neighbor_ids[src]
        row_dists = self.neighbor_dists[src]
        if dst in row_ids[:degree]:
            return False
        if degree == self.d_max:
            last = degree - 1
            if (dist, dst) >= (row_dists[last], row_ids[last]):
                return False
        # Binary search for the (dist, id) insertion point.
        position = int(np.searchsorted(row_dists[:degree], dist, side="left"))
        while (position < degree and row_dists[position] == dist
               and row_ids[position] < dst):
            position += 1
        stop = min(degree + 1, self.d_max)
        row_ids[position + 1:stop] = row_ids[position:stop - 1]
        row_dists[position + 1:stop] = row_dists[position:stop - 1]
        row_ids[position] = dst
        row_dists[position] = dist
        self.degrees[src] = stop
        return True

    def set_row(self, vertex: int, ids: Sequence[int],
                dists: Sequence[float]) -> None:
        """Replace a vertex's row wholesale (must be pre-sorted, <= d_max)."""
        self._check_vertex(vertex)
        ids = np.asarray(ids, dtype=np.int64)
        dists = np.asarray(dists, dtype=self.dtype)
        if ids.shape != dists.shape or ids.ndim != 1:
            raise GraphError(
                f"row arrays must be 1-D and equal length, got {ids.shape} "
                f"and {dists.shape}"
            )
        if len(ids) > self.d_max:
            raise GraphError(
                f"row of length {len(ids)} exceeds d_max={self.d_max}"
            )
        order_ok = np.all(np.diff(dists) >= 0)
        if not order_ok:
            raise GraphError("row distances must be sorted ascending")
        self.neighbor_ids[vertex] = PAD_ID
        self.neighbor_dists[vertex] = PAD_DIST
        self.neighbor_ids[vertex, :len(ids)] = ids
        self.neighbor_dists[vertex, :len(ids)] = dists
        self.degrees[vertex] = len(ids)

    # ------------------------------------------------------------------
    # Construction helpers / conversions
    # ------------------------------------------------------------------

    def copy(self) -> "ProximityGraph":
        """Deep copy of the graph."""
        return ProximityGraph.from_arrays(
            self.neighbor_ids.copy(), self.neighbor_dists.copy(),
            self.degrees.copy(), self.metric_name)

    @classmethod
    def from_arrays(cls, neighbor_ids: np.ndarray, neighbor_dists: np.ndarray,
                    degrees: np.ndarray,
                    metric: str = "euclidean") -> "ProximityGraph":
        """Adopt stored adjacency arrays as they are — the one decoder of
        a persisted graph.

        ``(n, d_max)`` ids and distances plus ``(n,)`` degrees, as read
        off a graph's attributes; the distance dtype is the stored one.
        Nothing is copied or re-sorted.
        """
        n_vertices, d_max = np.shape(neighbor_ids)
        graph = cls(n_vertices, d_max, metric, dtype=neighbor_dists.dtype)
        graph.neighbor_ids = neighbor_ids
        graph.neighbor_dists = neighbor_dists
        graph.degrees = degrees
        return graph

    @classmethod
    def block_diagonal(cls, parts: Sequence["ProximityGraph"]
                       ) -> "ProximityGraph":
        """Disjoint ``parts`` as one graph, each a block in order.

        Part ``i``'s vertex ``v`` becomes vertex ``offset_i + v``, where
        ``offset_i`` is the vertex count of the parts before it; pads
        stay ``-1``.  No edge crosses a block, so a search entered in
        one block walks exactly its part's graph, shifted.

        Raises:
            GraphError: When the parts differ in ``d_max``, metric or
                distance dtype.
        """
        shapes = {(g.d_max, g.metric_name, g.dtype.name) for g in parts}
        if len(shapes) != 1:
            raise GraphError(
                f"stacked graphs must share d_max, metric and distance "
                f"dtype, got {sorted(shapes)}"
            )
        offsets = np.cumsum([0] + [g.n_vertices for g in parts[:-1]])
        ids = np.concatenate([
            np.where(g.neighbor_ids >= 0, g.neighbor_ids + offset, PAD_ID)
            for g, offset in zip(parts, offsets)])
        return cls.from_arrays(
            ids, np.concatenate([g.neighbor_dists for g in parts]),
            np.concatenate([g.degrees for g in parts]),
            parts[0].metric_name)

    def blocks(self, offsets: Sequence[int]) -> List["ProximityGraph"]:
        """The inverse of :meth:`block_diagonal`: block ``i`` is rows
        ``offsets[i] .. offsets[i + 1]``, ids shifted back to start at 0.

        No edge may leave its block.
        """
        parts = []
        for lo, hi in zip(offsets[:-1], offsets[1:]):
            ids = self.neighbor_ids[lo:hi]
            parts.append(ProximityGraph.from_arrays(
                np.where(ids >= 0, ids - lo, PAD_ID),
                self.neighbor_dists[lo:hi].copy(),
                self.degrees[lo:hi].copy(), self.metric_name))
        return parts

    @classmethod
    def from_rows(cls, rows_ids: np.ndarray, rows_dists: np.ndarray,
                  d_max: Optional[int] = None,
                  metric: str = "euclidean") -> "ProximityGraph":
        """Build a float64 graph from dense ``(n, w)`` id/distance
        matrices.

        Padding entries must use ``-1`` / ``+inf``; rows must be sorted.
        Every row is held to :meth:`set_row`'s checks, all rows at once.
        """
        rows_ids = np.asarray(rows_ids)
        rows_dists = np.asarray(rows_dists)
        if rows_ids.shape != rows_dists.shape or rows_ids.ndim != 2:
            raise GraphError(
                f"row matrices must be 2-D and equal shape, got "
                f"{rows_ids.shape} and {rows_dists.shape}"
            )
        n, width = rows_ids.shape
        if d_max is None:
            d_max = width
        graph = cls(n, d_max, metric, dtype=np.float64)
        # Front-pack the valid entries of every row, order preserved.
        pack = np.argsort(rows_ids < 0, axis=1, kind="stable")
        ids = np.take_along_axis(rows_ids, pack, axis=1).astype(np.int64)
        dists = np.take_along_axis(rows_dists, pack,
                                   axis=1).astype(graph.dtype)
        valid = ids >= 0
        graph.degrees[:] = valid.sum(axis=1)
        if graph.degrees.max() > d_max:
            raise GraphError(
                f"row of length {graph.degrees.max()} exceeds d_max={d_max}"
            )
        with np.errstate(invalid="ignore"):
            unsorted = ~(np.diff(dists, axis=1) >= 0) & valid[:, 1:]
        if unsorted.any():
            raise GraphError("row distances must be sorted ascending")
        keep = min(width, d_max)
        graph.neighbor_ids[:, :keep] = np.where(valid, ids, PAD_ID)[:, :keep]
        graph.neighbor_dists[:, :keep] = np.where(valid, dists,
                                                  PAD_DIST)[:, :keep]
        return graph


class HierarchicalGraph:
    """A stack of per-layer proximity graphs (the HNSW organisation).

    Layer 0 is the bottom layer containing every point; layer ``i`` contains
    ``layer_sizes[i]`` points.  Following the paper's shuffled-ID scheme
    (Section IV-D), the vertices present on layer ``i`` are exactly the
    *shuffled* ids ``0 .. layer_sizes[i] - 1``, so a layer's adjacency rows
    are addressable directly by vertex id with no per-layer index.
    """

    def __init__(self, layers: List[ProximityGraph],
                 layer_sizes: Sequence[int]):
        if not layers:
            raise GraphError("a hierarchical graph needs at least one layer")
        if len(layers) != len(layer_sizes):
            raise GraphError(
                f"{len(layers)} layers but {len(layer_sizes)} layer sizes"
            )
        sizes = [int(s) for s in layer_sizes]
        if any(s <= 0 for s in sizes):
            raise GraphError("layer sizes must be positive")
        if any(sizes[i] < sizes[i + 1] for i in range(len(sizes) - 1)):
            raise GraphError("layer sizes must be non-increasing upwards")
        for graph, size in zip(layers, sizes):
            if graph.n_vertices < size:
                raise GraphError(
                    f"layer graph has {graph.n_vertices} vertices but the "
                    f"layer claims {size}"
                )
        self.layers = layers
        self.layer_sizes = sizes

    @classmethod
    def from_prefix_layers(cls, layers: List[ProximityGraph]
                           ) -> "HierarchicalGraph":
        """Stack per-layer graphs built over shuffled-id prefixes.

        ``layers[i]`` holds exactly layer ``i``'s vertices (ids
        ``0 .. n_i - 1``, bottom layer first).  Every layer above the
        bottom is widened to the bottom's row count — empty rows beyond
        its prefix — so all layers address the full id space.
        """
        n = layers[0].n_vertices
        return cls([layer if layer.n_vertices == n else layer.widened(n)
                    for layer in layers],
                   [layer.n_vertices for layer in layers])

    @property
    def n_layers(self) -> int:
        """Number of layers (>= 1)."""
        return len(self.layers)

    @property
    def bottom(self) -> ProximityGraph:
        """The layer-0 graph over all points."""
        return self.layers[0]

    def entry_vertex(self) -> int:
        """Entry point for search: the first vertex of the top layer."""
        return 0

    def memory_bytes(self) -> int:
        """Total bytes across layers."""
        return sum(layer.memory_bytes() for layer in self.layers)
