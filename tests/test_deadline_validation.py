"""One deadline rule, checked where the value enters the program.

A relative deadline is ``None`` or finite and positive — for a
request's own ``deadline_seconds`` and for an engine's
``default_deadline_seconds`` alike.  Regression: ``ClusterEngine``
used to accept ``-1.0`` / ``0.0`` and then fail *every* request as
``DEADLINE``, and both engines took ``nan`` to mean "no deadline".
"""

import numpy as np
import pytest

from repro.cluster import ClusterEngine
from repro.core.params import SearchParams
from repro.datasets.synthetic import gaussian_mixture
from repro.errors import ClusterError, ServeError
from repro.serve import QueryRequest, ServeEngine

BAD_DEADLINES = [-1.0, 0.0, float("nan"), float("inf")]


@pytest.mark.parametrize("seconds", BAD_DEADLINES)
def test_serve_engine_rejects_bad_default_deadline(
        small_graph, small_points, seconds):
    with pytest.raises(ServeError, match="default_deadline_seconds"):
        ServeEngine(small_graph, small_points,
                    default_deadline_seconds=seconds)


@pytest.mark.parametrize("seconds", BAD_DEADLINES)
def test_cluster_engine_rejects_bad_default_deadline(seconds):
    points = gaussian_mixture(120, 8, n_clusters=3, seed=5)
    with pytest.raises(ClusterError, match="default_deadline_seconds"):
        ClusterEngine(points, n_shards=2, n_replicas=1,
                      params=SearchParams(k=5, l_n=32),
                      default_deadline_seconds=seconds)


@pytest.mark.parametrize("seconds", BAD_DEADLINES)
def test_request_rejects_bad_deadline(seconds):
    with pytest.raises(ServeError, match="deadline_seconds"):
        QueryRequest(0, np.zeros(4), 0.0, deadline_seconds=seconds)


def test_valid_deadlines_still_construct(small_graph, small_points):
    engine = ServeEngine(small_graph, small_points,
                         default_deadline_seconds=1e-3)
    assert engine.default_deadline_seconds == 1e-3
    assert ServeEngine(small_graph,
                       small_points).default_deadline_seconds is None
    req = QueryRequest(0, np.zeros(4), 2.0, deadline_seconds=0.5)
    assert req.deadline_or(1e-3) == 0.5
    assert QueryRequest(1, np.zeros(4), 2.0).deadline_or(1e-3) == 1e-3


@pytest.mark.parametrize("seconds", [float("nan"), float("inf"),
                                     float("-inf")])
@pytest.mark.parametrize("engine", ["serve", "cluster"])
def test_non_finite_arrival_never_reaches_a_replay(
        small_graph, small_points, small_queries, searched_rows, seconds,
        engine):
    """Regression: NaN and +inf arrivals used to pass ``< 0``, and the
    replay died after searching, in the latency histogram, naming no
    request."""
    if engine == "serve":
        replay = ServeEngine(small_graph, small_points).replay
    else:
        replay = ClusterEngine(small_points, n_shards=2, n_replicas=1,
                               params=SearchParams(k=5, l_n=32)).replay
    with pytest.raises(ServeError, match=(
            r"request 7: arrival_seconds must be finite and >= 0")):
        replay([QueryRequest(0, small_queries[:2], 0.0),
                QueryRequest(7, small_queries[2:4], seconds)])
    assert searched_rows == []
