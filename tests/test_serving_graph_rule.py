"""The one serving-graph rule: a served graph is its family's own build.

:meth:`repro.core.backend.IndexBackend.serving_graphs` is written once,
on the base class, and holds for every registered family:

- a flat family's served graph is byte-equal to its ``build`` at
  ``BuildParams(d_min, d_max, n_blocks=SERVING_N_BLOCKS)`` with
  ``knn_k=d_max``;
- every cluster shard graph is byte-equal to its part served alone,
  although the cluster serves all shards through one call (one
  GGraphCon run for NSW);
- the KNN and CAGRA graphs are byte-equal to what their former
  hand-written calls built (written out below as the reference): those
  builders read only ``d_max``, ``seed`` and ``n_threads``;
- an NSW graph of at most ``SERVING_N_BLOCKS`` points has
  GraphCon_NSW's (``build_nsw_cpu``) edges: with one point per group the
  GGraphCon merge is sequential insertion.  Its euclidean distances are
  byte-equal too; a product metric's may differ in the last bit, since
  one gemv per run rounds by the run's length and Phase 1 recomputes a
  distance the Phase-2 search reads off a different run;
- a hierarchical family has no flat graph to serve, and a cluster over
  degrees no build accepts raises a typed error for every family.
"""

import numpy as np
import pytest

from repro.baselines.nsw_cpu import build_nsw_cpu
from repro.cluster import ClusterEngine
from repro.core import backend_families, get_backend
from repro.core.backend import SERVING_N_BLOCKS
from repro.core.cagra import build_cagra_gpu
from repro.core.knng import build_knn_graph_gpu
from repro.core.params import BuildParams
from repro.datasets.synthetic import gaussian_mixture
from repro.errors import ConfigurationError, UnsupportedOperationError

FLAT = [f for f in backend_families() if not get_backend(f).hierarchical]
HIERARCHICAL = [f for f in backend_families()
                if get_backend(f).hierarchical]
METRICS = ("euclidean", "cosine", "ip")
D_MIN, D_MAX = 8, 16


def _points(n, seed=5):
    return gaussian_mixture(n, 12, n_clusters=4, cluster_std=0.4,
                            seed=seed)


def _assert_same_graph(got, want, dists_rtol=None):
    """Byte-equal adjacency; distances to ``dists_rtol`` when given."""
    assert got.metric_name == want.metric_name
    for name in ("neighbor_ids", "neighbor_dists", "degrees"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        if name == "neighbor_dists" and dists_rtol is not None:
            np.testing.assert_allclose(a, b, rtol=dists_rtol)
        else:
            assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("family", FLAT)
def test_served_graph_is_the_family_build(family, metric):
    points = _points(180)
    backend = get_backend(family)
    want = backend.build(
        points, BuildParams(d_min=D_MIN, d_max=D_MAX,
                            n_blocks=SERVING_N_BLOCKS),
        metric, knn_k=D_MAX).graph
    _assert_same_graph(
        backend.serving_graphs((points,), D_MIN, D_MAX, metric)[0], want)


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("family", FLAT)
def test_cluster_shard_graph_is_its_part_served_alone(family, metric):
    cluster = ClusterEngine(_points(500, seed=9), n_shards=3, n_replicas=1,
                            d_min=D_MIN, d_max=D_MAX, metric=metric,
                            family=family)
    backend = get_backend(family)
    for points, graph in zip(cluster.shard_points, cluster.shard_graphs):
        _assert_same_graph(
            graph, backend.serving_graphs((points,), D_MIN, D_MAX,
                                          metric)[0])


#: What the KNN and CAGRA families served before the rule.
FORMER_SERVING_GRAPHS = {
    "knn": lambda points, d_min, d_max, metric: build_knn_graph_gpu(
        points, d_max, BuildParams(seed=0), metric=metric).graph,
    "cagra": lambda points, d_min, d_max, metric: build_cagra_gpu(
        points, BuildParams(d_min=min(d_min, d_max), d_max=d_max, seed=0),
        metric=metric).graph,
}


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("family", sorted(FORMER_SERVING_GRAPHS))
def test_knn_and_cagra_serve_the_graphs_they_served(family, metric):
    points = _points(150, seed=6)
    want = FORMER_SERVING_GRAPHS[family](points, D_MIN, D_MAX, metric)
    _assert_same_graph(
        get_backend(family).serving_graphs((points,), D_MIN, D_MAX,
                                           metric)[0],
        want)


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("n", [2, 37, SERVING_N_BLOCKS])
def test_small_nsw_shard_is_graphcon_nsw(n, metric):
    points = _points(n, seed=n)
    _assert_same_graph(
        get_backend("nsw").serving_graphs((points,), D_MIN, D_MAX,
                                          metric)[0],
        build_nsw_cpu(points, D_MIN, D_MAX, metric=metric).graph,
        dists_rtol=None if metric == "euclidean" else 1e-12)


@pytest.mark.parametrize("family", HIERARCHICAL)
def test_hierarchical_family_has_no_serving_graph(family):
    with pytest.raises(UnsupportedOperationError,
                       match="no flat serving graph"):
        get_backend(family).serving_graphs((_points(40),), D_MIN, D_MAX)


@pytest.mark.parametrize("family", FLAT)
def test_cluster_refuses_d_min_above_d_max(family):
    with pytest.raises(ConfigurationError, match="cannot exceed"):
        ClusterEngine(_points(80), n_shards=2, n_replicas=1,
                      d_min=20, d_max=16, family=family)

