"""Structural analysis of proximity graphs.

Why does an NSW graph answer queries in tens of hops while a pure KNN
graph strands the search inside one cluster?  The structural quantities
behind the paper's design choices, measurable on any
:class:`repro.graphs.adjacency.ProximityGraph`:

- degree distributions (property (2) of Section II-A bounds them);
- the *long-link fraction*: NSW's early insertions create edges far
  above the median edge length — the small-world shortcuts [8];
- estimated hop distance from the entry vertex (drives iteration counts
  and hence every cost in Section III-C);
- neighborhood overlap (clustering): high overlap means GANNS's lazy
  check will invalidate many re-discovered neighbors, i.e. the price of
  removing the visited hash.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.errors import GraphError
from repro.graphs.adjacency import ProximityGraph
from repro.graphs.stats import hop_distances


@dataclass(frozen=True)
class DegreeDistribution:
    """Out- and in-degree summary of a graph."""

    out_min: int
    out_max: int
    out_mean: float
    in_min: int
    in_max: int
    in_mean: float

    @property
    def in_degree_skew(self) -> float:
        """Max/mean in-degree: hubs show up as a large value."""
        if self.in_mean == 0:
            return 0.0
        return self.in_max / self.in_mean


def degree_distribution(graph: ProximityGraph) -> DegreeDistribution:
    """Compute the degree summary (in-degrees derived from out-edges)."""
    out_degrees = graph.degrees
    in_degrees = np.zeros(graph.n_vertices, dtype=np.int64)
    live = graph.neighbor_ids[graph.neighbor_ids >= 0]
    if live.size:
        counts = np.bincount(live, minlength=graph.n_vertices)
        in_degrees += counts
    return DegreeDistribution(
        out_min=int(out_degrees.min()),
        out_max=int(out_degrees.max()),
        out_mean=float(out_degrees.mean()),
        in_min=int(in_degrees.min()),
        in_max=int(in_degrees.max()),
        in_mean=float(in_degrees.mean()),
    )


def long_link_fraction(graph: ProximityGraph,
                       factor: float = 4.0) -> float:
    """Fraction of edges longer than ``factor`` x the median edge length.

    NSW graphs keep such edges by construction (early insertions connect
    whatever exists, however far); pure KNN graphs have essentially none
    — which is why they lack navigability.
    """
    if factor <= 0:
        raise GraphError(f"factor must be positive, got {factor}")
    live = graph.neighbor_dists[graph.neighbor_ids >= 0]
    if live.size == 0:
        return 0.0
    median = float(np.median(live))
    if median <= 0:
        return 0.0
    return float((live > factor * median).mean())


def hop_histogram(graph: ProximityGraph, entry: int = 0,
                  max_hops: Optional[int] = None) -> Dict[int, int]:
    """BFS hop distance from ``entry``: {hops: vertex count}.

    Unreachable vertices are reported under hop ``-1``.  The histogram's
    weighted mean approximates the length of greedy search paths, which
    is what drives per-query iteration counts.
    """
    return dict(Counter(hop_distances(graph, entry, max_hops).tolist()))


def mean_hops(graph: ProximityGraph, entry: int = 0) -> float:
    """Mean BFS hop distance from ``entry`` over reachable vertices."""
    histogram = hop_histogram(graph, entry)
    total = sum(h * c for h, c in histogram.items() if h >= 0)
    count = sum(c for h, c in histogram.items() if h >= 0)
    return total / count if count else float("inf")


def neighborhood_overlap(graph: ProximityGraph,
                         sample: int = 200) -> float:
    """Mean Jaccard overlap between the rows of adjacent vertices, over
    ``sample`` vertices drawn with seed 0.

    High overlap means a GANNS exploration step re-discovers many
    vertices already in the pool — the redundancy that lazy check
    invalidates (and whose distances it pays to recompute).
    """
    if sample <= 0:
        raise GraphError(f"sample must be positive, got {sample}")
    rng = np.random.default_rng(0)
    candidates = np.flatnonzero(graph.degrees > 0)
    if candidates.size == 0:
        return 0.0
    chosen = rng.choice(candidates,
                        size=min(sample, candidates.size),
                        replace=False)
    overlaps = []
    for v in chosen:
        v_set = set(graph.neighbors(int(v)).tolist())
        for u in graph.neighbors(int(v))[:4]:
            u_set = set(graph.neighbors(int(u)).tolist())
            union = v_set | u_set
            if union:
                overlaps.append(len(v_set & u_set) / len(union))
    return float(np.mean(overlaps)) if overlaps else 0.0


@dataclass(frozen=True)
class NavigabilityReport:
    """One-call structural profile of a graph."""

    degrees: DegreeDistribution
    long_link_fraction: float
    mean_hops_from_entry: float
    unreachable_fraction: float
    neighborhood_overlap: float


def navigability_report(graph: ProximityGraph) -> NavigabilityReport:
    """Collect the full structural profile (hops from vertex 0)."""
    histogram = hop_histogram(graph)
    unreachable = histogram.get(-1, 0) / graph.n_vertices
    return NavigabilityReport(
        degrees=degree_distribution(graph),
        long_link_fraction=long_link_fraction(graph),
        mean_hops_from_entry=mean_hops(graph),
        unreachable_fraction=unreachable,
        neighborhood_overlap=neighborhood_overlap(graph),
    )
