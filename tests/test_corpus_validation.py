"""Every graph builder runs the one corpus check, ``validated_points``;
``ganns_search`` refuses a non-finite corpus too."""

import warnings

import numpy as np
import pytest

from repro.baselines.hnsw_cpu import build_hnsw_cpu
from repro.baselines.nsw_cpu import build_nsw_cpu, build_nsw_multicore
from repro.cluster.engine import ClusterEngine
from repro.core.cagra import build_cagra_gpu
from repro.core import ganns
from repro.core.construction import build_nsw_gpu
from repro.core.hnsw import build_hnsw_gpu
from repro.core.knng import build_knn_graph_gpu
from repro.core.naive import build_nsw_naive_parallel, build_nsw_serial_gpu
from repro.core.params import BuildParams, SearchParams
from repro.datasets.synthetic import gaussian_mixture
from repro.errors import (ClusterError, ConstructionError,
                          MutableIndexError, SearchError)
from repro.mutable import MutableIndex

PARAMS = BuildParams(d_min=4, d_max=8, n_blocks=4)

BUILDERS = {
    "nsw_gpu": lambda p: build_nsw_gpu(p, PARAMS),
    "nsw_serial_gpu": lambda p: build_nsw_serial_gpu(p, PARAMS),
    "nsw_naive_parallel": lambda p: build_nsw_naive_parallel(p, PARAMS),
    "nsw_cpu": lambda p: build_nsw_cpu(p, 4, 8),
    "nsw_multicore": lambda p: build_nsw_multicore(p, PARAMS, n_cores=2),
    "hnsw_gpu": lambda p: build_hnsw_gpu(p, PARAMS),
    "hnsw_cpu": lambda p: build_hnsw_cpu(p, 4, 8),
    "knn_gpu": lambda p: build_knn_graph_gpu(p, 4, PARAMS),
    "cagra_gpu": lambda p: build_cagra_gpu(p, PARAMS),
    "mutable_index": lambda p: MutableIndex.build(p, PARAMS),
}


@pytest.mark.parametrize("poison", [np.nan, np.inf])
@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_non_finite_corpus_is_refused_naming_the_row(builder, poison):
    points = gaussian_mixture(300, 8, seed=0)
    points[5, 2] = poison
    with pytest.raises(ConstructionError, match="row 5 holds NaN or inf"):
        BUILDERS[builder](points)


def test_cluster_engine_refuses_a_non_finite_corpus():
    points = gaussian_mixture(300, 8, seed=0)
    points[5, 2] = np.nan
    with pytest.raises(ClusterError, match="row 5 holds NaN or inf"):
        ClusterEngine(points, n_shards=2, n_replicas=1)


@pytest.mark.parametrize("dtype", [np.complex128, object, str])
@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_non_real_corpus_is_refused_naming_the_dtype(builder, dtype):
    """Complex corpora are not silently cut to their real parts, and
    str / object matrices fail typed, not inside ``np.isfinite``."""
    points = gaussian_mixture(300, 8, seed=0).astype(dtype)
    with pytest.raises(ConstructionError,
                       match=f"real numbers, got dtype {points.dtype}"):
        BUILDERS[builder](points)


@pytest.mark.parametrize("dtype", [np.uint8, np.int32, bool])
def test_integer_and_bool_corpora_are_real_data(dtype):
    points = (gaussian_mixture(120, 8, seed=0) * 40 + 128).clip(0, 255)
    build_nsw_gpu(points.astype(dtype), PARAMS)


def test_mutable_insert_refuses_complex_rows():
    index = MutableIndex.build(gaussian_mixture(60, 8, seed=0), PARAMS)
    with pytest.raises(MutableIndexError, match="real numbers"):
        index.insert(gaussian_mixture(3, 8, seed=1).astype(np.complex128))
    assert index.n_slots == 60


@pytest.mark.parametrize("quant", [None, "int8"])
@pytest.mark.parametrize("poison", [np.nan, np.inf])
def test_search_refuses_a_non_finite_corpus_once_per_matrix(poison, quant):
    """Refused before either path traverses, without a NumPy warning;
    the scan's verdict is kept per matrix, not redone per call."""
    points = gaussian_mixture(300, 8, seed=0)
    graph = build_nsw_gpu(points, PARAMS).graph
    poisoned = points.copy()
    poisoned[5, 2] = poison
    params = SearchParams(k=5, l_n=16, quant=quant)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(2):
            with pytest.raises(SearchError, match="row 5 holds NaN or inf"):
                ganns.ganns_search(graph, poisoned, points[:4], params)

    def rescan():
        raise AssertionError("the corpus was scanned twice")

    assert ganns._NON_FINITE_ROW.get(poisoned, "rows", rescan) == 5
    ganns.ganns_search(graph, points, points[:4], params)
    assert ganns._NON_FINITE_ROW.get(points, "rows", rescan) == -1
