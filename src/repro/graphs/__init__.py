"""Proximity-graph substrate.

The paper's Definition 2 graph with its two GPU-friendly properties
(Section II-A): every vertex keeps only *outgoing* neighbors, bounded by
``d_max`` and ordered by distance, stored as dense fixed-width rows — the
layout every search and construction kernel in this library consumes.
"""

from repro.graphs.adjacency import ProximityGraph, HierarchicalGraph
from repro.graphs.validation import validate_graph
from repro.graphs.stats import (
    graph_digest,
)
from repro.graphs.pruning import prune_diversify, pruning_stats
from repro.graphs.analysis import (
    NavigabilityReport,
    navigability_report,
    degree_distribution,
    long_link_fraction,
    mean_hops,
    neighborhood_overlap,
)

__all__ = [
    "ProximityGraph",
    "HierarchicalGraph",
    "validate_graph",
    "graph_digest",
    "NavigabilityReport",
    "navigability_report",
    "degree_distribution",
    "long_link_fraction",
    "mean_hops",
    "neighborhood_overlap",
    "prune_diversify",
    "pruning_stats",
]
