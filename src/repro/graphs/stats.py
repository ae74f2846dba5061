"""Graph statistics: the library's one BFS, :func:`hop_distances`, and
the byte digest :func:`graph_digest`."""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np

from repro.errors import GraphError
from repro.graphs.adjacency import HierarchicalGraph, ProximityGraph


def hop_distances(graph: ProximityGraph, entry: int = 0,
                  max_hops: Optional[int] = None) -> np.ndarray:
    """Directed BFS hop distance of every vertex from ``entry``.

    The one BFS over a graph: ``(n,)`` int64 hops, ``-1`` where
    unreachable (or farther than ``max_hops``).  Level-synchronous — one
    gather of the frontier's rows per hop — which yields the same
    distances as a vertex-at-a-time queue.
    """
    if not 0 <= entry < graph.n_vertices:
        raise GraphError(
            f"entry {entry} out of range [0, {graph.n_vertices})"
        )
    hops = np.full(graph.n_vertices, -1, dtype=np.int64)
    hops[entry] = 0
    frontier = np.array([entry])
    level = 0
    while len(frontier) and (max_hops is None or level < max_hops):
        rows = graph.neighbor_ids[frontier]
        live = np.arange(graph.d_max) < graph.degrees[frontier, None]
        # A scatter into a vertex mask: cheaper than ``np.unique`` of
        # the rows, and the new frontier comes out ascending all the same.
        reached = np.zeros(graph.n_vertices, dtype=bool)
        reached[rows[live]] = True
        frontier = np.flatnonzero(reached & (hops < 0))
        level += 1
        hops[frontier] = level
    return hops


def graph_digest(graph) -> str:
    """Byte-level BLAKE2b digest of a graph's adjacency arrays.

    Two graphs digest equal iff their neighbor ids, distances, degrees
    (and, for a :class:`HierarchicalGraph`, layer sizes) are
    byte-identical — the determinism currency of the backend
    conformance suite and the CAGRA golden file.
    """
    digest = hashlib.blake2b(digest_size=16)
    if isinstance(graph, HierarchicalGraph):
        digest.update(np.asarray(graph.layer_sizes,
                                 dtype=np.int64).tobytes())
        layers = graph.layers
    else:
        layers = [graph]
    for layer in layers:
        digest.update(np.ascontiguousarray(layer.neighbor_ids).tobytes())
        digest.update(np.ascontiguousarray(layer.neighbor_dists).tobytes())
        digest.update(np.ascontiguousarray(layer.degrees).tobytes())
    return digest.hexdigest()
