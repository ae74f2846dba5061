"""Dtype pinning of the search path, and proof that nothing selects it.

There is one execution path: no parameter picks another and no
environment variable changes what the library computes — searching and
building read nothing from the process environment.
"""

import os

import numpy as np
import pytest

from repro.baselines.nsw_cpu import build_nsw_cpu
from repro.core.construction import build_nsw_gpu
from repro.core.ganns import ganns_search
from repro.core.params import BuildParams, SearchParams
from repro.datasets.synthetic import gaussian_mixture
from repro.errors import GraphError, SearchError
from repro.graphs.adjacency import ProximityGraph
from repro.perf.distance import resolve_compute_dtype
from tests.oracles.merge_row import merge_row


class _RecordingEnviron(dict):
    """``os.environ`` stand-in that remembers every key looked up."""

    def __init__(self, *args):
        super().__init__(*args)
        self.reads = []

    def __getitem__(self, key):
        self.reads.append(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads.append(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.reads.append(key)
        return super().__contains__(key)


class TestNothingSelectsThePath:
    def test_search_and_build_read_no_environment(self, monkeypatch):
        environ = _RecordingEnviron(os.environ)
        monkeypatch.setattr(os, "environ", environ)
        points = gaussian_mixture(120, 8, seed=1)
        queries = gaussian_mixture(6, 8, seed=2)
        graph = build_nsw_gpu(points, BuildParams(d_min=4, d_max=8,
                                                  n_blocks=4)).graph
        ganns_search(graph, points, queries, SearchParams(k=5, l_n=16))
        ganns_search(graph, points, queries,
                     SearchParams(k=5, l_n=16, quant="pca"))
        assert environ.reads == []

    def test_search_params_has_no_backend_field(self):
        assert "backend" not in SearchParams.__dataclass_fields__
        assert len(SearchParams.__dataclass_fields__) == 6


class TestComputeDtype:
    def test_default_is_float64(self):
        pts = np.zeros((4, 3), dtype=np.float32)
        qs = np.zeros((2, 3), dtype=np.float32)
        assert resolve_compute_dtype(pts, qs) == np.dtype(np.float64)

    def test_explicit_float32(self):
        pts = np.zeros((4, 3), dtype=np.float32)
        qs = np.zeros((2, 3), dtype=np.float32)
        assert (resolve_compute_dtype(pts, qs, np.float32)
                == np.dtype(np.float32))

    def test_mixed_dtypes_raise(self):
        pts = np.zeros((4, 3), dtype=np.float32)
        qs = np.zeros((2, 3), dtype=np.float64)
        with pytest.raises(SearchError, match="mixed-dtype"):
            resolve_compute_dtype(pts, qs)

    def test_unsupported_dtype_raises(self):
        pts = np.zeros((4, 3), dtype=np.float64)
        qs = np.zeros((2, 3), dtype=np.float64)
        with pytest.raises(SearchError, match="float16"):
            resolve_compute_dtype(pts, qs, np.float16)

    def test_mixed_dtype_surfaces_through_search(self):
        pts = gaussian_mixture(60, 8, seed=1).astype(np.float32)
        qs = gaussian_mixture(4, 8, seed=2).astype(np.float64)
        graph = build_nsw_cpu(pts, d_min=4, d_max=8).graph
        with pytest.raises(SearchError, match="mixed-dtype"):
            ganns_search(graph, pts, qs, SearchParams(k=4, l_n=8))


class TestGraphDtypePinning:
    def test_default_dtype_is_float64(self):
        graph = ProximityGraph(4, 2)
        assert graph.dtype == np.dtype(np.float64)
        assert graph.neighbor_dists.dtype == np.dtype(np.float64)

    def test_float32_rows_stay_float32(self):
        graph = ProximityGraph(4, 2, dtype=np.float32)
        graph.set_row(0, [1, 2], [0.25, 0.5])
        assert graph.neighbor_dists.dtype == np.dtype(np.float32)
        merge_row(graph, 0, [3], [0.125])
        assert graph.neighbor_dists.dtype == np.dtype(np.float32)
        assert graph.copy().dtype == np.dtype(np.float32)

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(GraphError, match="dtype"):
            ProximityGraph(4, 2, dtype=np.int32)
