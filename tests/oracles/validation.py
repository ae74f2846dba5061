"""The per-row duplicate and order checks of ``validate_graph``.

:func:`repro.graphs.validation.validate_graph` makes both checks with
one row-wise sort and one adjacent compare over the ``(n, d_max)``
matrix; this is the loop it replaced, one vertex at a time, kept as
the reference its messages are compared against.
"""

import numpy as np

from repro.errors import GraphError
from repro.graphs.adjacency import ProximityGraph


def check_rows(graph: ProximityGraph) -> None:
    """Raise ``validate_graph``'s ``GraphError`` for the first vertex
    whose live row repeats a neighbour (checked first) or is not sorted
    ascending by distance."""
    for v in range(graph.n_vertices):
        degree = graph.degrees[v]
        row = graph.neighbor_ids[v, :degree]
        if len(np.unique(row)) != degree:
            raise GraphError(f"vertex {v} has duplicate neighbors")
        row_dists = graph.neighbor_dists[v, :degree]
        if np.any(np.diff(row_dists) < 0):
            raise GraphError(
                f"vertex {v}'s row is not sorted ascending by distance"
            )
