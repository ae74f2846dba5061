"""Structural validation of proximity graphs.

Construction algorithms promise a handful of invariants (Section II-A's two
properties plus the dense-layout contract).  :func:`validate_graph` checks
them all and raises :class:`repro.errors.GraphError` with a precise message
on the first violation; tests and the high-level index call it after every
build.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import GraphError, ValidationError
from repro.graphs.adjacency import PAD_ID, ProximityGraph

#: Absolute tolerance of the stored-versus-recomputed distance check.
DISTANCE_ATOL = 1e-4


def validate_graph(graph: ProximityGraph, points: Optional[np.ndarray] = None,
                   d_min: Optional[int] = None,
                   check_distances: bool = False,
                   tombstones: Optional[np.ndarray] = None) -> None:
    """Validate a graph's structural invariants.

    Checks, in order:

    1. Dense-layout consistency: adjacency arrays are ``(n, d_max)``
       and each row's first ``degree`` entries are valid ids, the rest
       padding.
    2. No self-loops, no duplicate neighbors within a row.
    3. All live distances finite (a NaN would sail through the
       sortedness check below — every comparison against NaN is false —
       and then silently poison every search that touches the row).
    4. Rows sorted ascending by distance.
    5. Degree bounds: every degree ``<= d_max`` and, when ``d_min`` is
       given, every vertex except possibly the first ``d_min`` inserted has
       degree ``>= min(d_min, what was available)`` — the paper's
       lower-bound property (2).
    6. When ``tombstones`` is given (a ``(n,)`` boolean mask of deleted
       vertices), the compaction contract: no live row references a
       tombstoned vertex (a *reachable tombstone* would let a search
       return a deleted id) and every tombstoned vertex is fully
       detached (degree ``0``).  Violations raise the more specific
       :class:`repro.errors.ValidationError`.
    7. When ``points`` is given and ``check_distances`` is set, stored
       distances match recomputed ones to within :data:`DISTANCE_ATOL`.

    Args:
        graph: Graph to validate.
        points: Point matrix for distance re-checks; must hold one row
            per vertex.
        d_min: Construction lower bound to verify, if any.
        check_distances: Recompute and compare stored distances (slower).
        tombstones: Optional boolean mask of deleted vertices; enables
            the post-compaction unreachability checks.  Tombstoned
            vertices are exempt from the ``d_min`` floor.

    Raises:
        GraphError: Describing the first violated invariant, a
            ``graph`` that is not a :class:`ProximityGraph`, or a
            ``points`` matrix whose row count is not the vertex count.
        ValidationError: A tombstone invariant was violated (the mask
            was supplied and a dead vertex is still wired in).
    """
    if not isinstance(graph, ProximityGraph):
        raise GraphError(
            f"validate_graph expects a ProximityGraph, got "
            f"{type(graph).__name__}"
        )
    n = graph.n_vertices
    ids = graph.neighbor_ids
    dists = graph.neighbor_dists
    degrees = graph.degrees

    if points is not None and len(points) != n:
        raise GraphError(
            f"points has {len(points)} rows but the graph has {n} "
            f"vertices; validate against the matrix the graph was built "
            f"over"
        )
    if tombstones is not None:
        tombstones = np.asarray(tombstones, dtype=bool)
        if tombstones.shape != (n,):
            raise GraphError(
                f"tombstone mask must be shape ({n},), got "
                f"{tombstones.shape}"
            )

    if ids.shape != (n, graph.d_max) or dists.shape != ids.shape:
        raise GraphError(
            f"adjacency arrays must both be (n_vertices={n}, "
            f"d_max={graph.d_max}); got ids {ids.shape} and dists "
            f"{dists.shape}"
        )

    if np.any(degrees < 0) or np.any(degrees > graph.d_max):
        bad = int(np.flatnonzero((degrees < 0) | (degrees > graph.d_max))[0])
        raise GraphError(
            f"vertex {bad} has degree {degrees[bad]} outside [0, {graph.d_max}]"
        )

    columns = np.arange(graph.d_max)
    live = columns[None, :] < degrees[:, None]

    live_ids = ids[live]
    if live_ids.size and (live_ids.min() < 0 or live_ids.max() >= n):
        raise GraphError("adjacency row contains an out-of-range vertex id")
    if np.any(ids[~live] != PAD_ID):
        bad = int(np.flatnonzero(np.any((ids != PAD_ID) & ~live, axis=1))[0])
        raise GraphError(
            f"vertex {bad} has non-padding entries past its degree"
        )
    own = np.arange(n)[:, None]
    if np.any((ids == own) & live):
        bad = int(np.flatnonzero(np.any((ids == own) & live, axis=1))[0])
        raise GraphError(f"vertex {bad} has a self-loop")

    bad_dists = live & ~np.isfinite(dists)
    if np.any(bad_dists):
        bad = int(np.flatnonzero(np.any(bad_dists, axis=1))[0])
        col = int(np.flatnonzero(bad_dists[bad])[0])
        raise GraphError(
            f"vertex {bad} stores a non-finite neighbor distance "
            f"({dists[bad, col]}) at slot {col}"
        )

    # Live ids are in range and every pad is PAD_ID (< 0), so equal
    # neighbours of a row are adjacent non-negative entries once the row
    # is sorted.  The first bad vertex is named; within a row the
    # duplicate check comes before the order check.
    ordered = np.sort(ids, axis=1)
    duplicate = np.any((ordered[:, 1:] == ordered[:, :-1])
                       & (ordered[:, 1:] >= 0), axis=1)
    unsorted = np.any(live[:, 1:] & (dists[:, 1:] < dists[:, :-1]), axis=1)
    if np.any(duplicate | unsorted):
        v = int(np.flatnonzero(duplicate | unsorted)[0])
        if duplicate[v]:
            raise GraphError(f"vertex {v} has duplicate neighbors")
        raise GraphError(
            f"vertex {v}'s row is not sorted ascending by distance"
        )

    if tombstones is not None and np.any(tombstones):
        wired = tombstones & (degrees > 0)
        if np.any(wired):
            bad = int(np.flatnonzero(wired)[0])
            raise ValidationError(
                f"tombstoned vertex {bad} still carries "
                f"{int(degrees[bad])} edges; compaction must detach "
                f"dead vertices completely"
            )
        dead_refs = live & tombstones[np.where(ids == PAD_ID, 0, ids)]
        if np.any(dead_refs):
            bad = int(np.flatnonzero(np.any(dead_refs, axis=1))[0])
            col = int(np.flatnonzero(dead_refs[bad])[0])
            raise ValidationError(
                f"live vertex {bad} still references tombstoned vertex "
                f"{int(ids[bad, col])}: a search could return a deleted "
                f"id (reachable tombstone)"
            )

    if d_min is not None:
        if d_min <= 0:
            raise GraphError(f"d_min must be positive, got {d_min}")
        # During sequential insertion the i-th point can link to at most i
        # earlier points, so the enforceable bound is min(d_min, n - 1).
        floor = min(d_min, n - 1)
        small = degrees < floor
        if tombstones is not None:
            # Dead vertices are detached by design, so the floor only
            # applies to live ones.
            small = small & ~tombstones
        too_small = np.flatnonzero(small)
        if too_small.size:
            raise GraphError(
                f"{too_small.size} vertices (first: {int(too_small[0])}) "
                f"have degree below the d_min floor of {floor}"
            )

    if points is not None and check_distances:
        metric = graph.metric
        for v in range(n):
            degree = degrees[v]
            if degree == 0:
                continue
            row = ids[v, :degree]
            expected = metric.one_to_many(points[v], points[row])
            stored = dists[v, :degree]
            if not np.allclose(stored, expected, atol=DISTANCE_ATOL):
                worst = float(np.abs(stored - expected).max())
                raise GraphError(
                    f"vertex {v} stores distances deviating from recomputed "
                    f"values by up to {worst:.3g}"
                )
