"""Graph quality measures the suite holds built graphs to.

- :func:`reachable_fraction` — share of vertices reachable from the entry
  point (a disconnected graph caps achievable recall);
- :func:`edge_recall_against` — how much of a reference graph's edge set a
  candidate graph reproduces, used to check the Section IV-C claim that
  GGraphCon's output matches sequential insertion;
- :func:`edge_set` — a graph's directed edges, for exact comparisons.
"""

from repro.errors import GraphError
from repro.graphs.adjacency import ProximityGraph
from repro.graphs.stats import hop_distances


def edge_set(graph: ProximityGraph) -> set:
    """All directed edges of ``graph`` as a set of ``(src, dst)`` tuples."""
    return {(v, int(u)) for v in range(graph.n_vertices)
            for u in graph.neighbor_ids[v, :graph.degrees[v]]}


def reachable_fraction(graph: ProximityGraph, entry: int = 0) -> float:
    """Fraction of vertices reachable from ``entry`` by directed BFS."""
    return float((hop_distances(graph, entry) >= 0).mean())


def edge_recall_against(candidate: ProximityGraph,
                        reference: ProximityGraph) -> float:
    """Fraction of the reference graph's directed edges present in
    ``candidate``.

    1.0 means the candidate contains every reference edge; this is the
    measure used to check GGraphCon-vs-sequential equivalence.
    """
    if candidate.n_vertices != reference.n_vertices:
        raise GraphError(
            f"graphs have different vertex counts: {candidate.n_vertices} "
            f"vs {reference.n_vertices}"
        )
    reference_edges = edge_set(reference)
    if not reference_edges:
        return 1.0
    candidate_edges = edge_set(candidate)
    shared = len(reference_edges & candidate_edges)
    return shared / len(reference_edges)
