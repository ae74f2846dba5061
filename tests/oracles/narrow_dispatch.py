"""Dispatch as it was before the lane store: one host search per batch.

Inside :func:`narrow_dispatch` every ``stream_batches`` call a replay
makes runs its own ``ganns_search`` over exactly the dispatched batch,
whatever store it was lent.  A replay is required to produce the same
report, span and metric bytes either way, at any host width
(:func:`host_width`; ``docs/performance.md``, "host width vs simulated
batch").
"""

import contextlib
from unittest import mock

from repro.core import pipeline


def _search_alone(self, graph, points, queries, params):
    return pipeline.ganns_search(graph, points, queries, params)


def host_width(width):
    """Every lane store built inside searches ``width`` lanes a call;
    ``None`` keeps the width it derives
    (``repro.perf.arena.lanes_per_call``)."""
    if width is None:
        return contextlib.nullcontext()
    return mock.patch.object(pipeline, "lanes_per_call",
                             lambda *_: width)


@contextlib.contextmanager
def narrow_dispatch():
    with mock.patch.object(pipeline._LaneStore, "search", _search_alone):
        yield
