"""Unit and regression tests for the quantized staged search.

Covers the plumbing around the staged pipeline (the statistical bounds
live in ``test_quant_properties.py``): mode selection
(``SearchParams.quant`` and nothing else), parameter validation,
signature exclusion, determinism, the exactness of reported distances,
footprint accounting, the cost-model dimension mapping, and the
``resolve_compute_dtype`` mixed-dtype regression.
"""

import numpy as np
import pytest

from repro.baselines.nsw_cpu import build_nsw_cpu
from repro.core.ganns import ganns_search
from repro.core.params import SearchParams
from repro.datasets.synthetic import gaussian_mixture
from repro.errors import ConfigurationError, SearchError
from repro.perf.distance import resolve_compute_dtype
from repro.perf.quant import (
    QUANT_MODES,
    charged_dims,
    pca_rank,
    quantize_points,
)
from tests.test_perf_equivalence import assert_matches_oracle

N, D = 150, 24

_FIXTURE = {}


def _fixture():
    if not _FIXTURE:
        points = gaussian_mixture(N, D, n_clusters=5, cluster_std=0.3,
                                  intrinsic_dim=6, seed=11) \
            .astype(np.float32)
        queries = gaussian_mixture(12, D, n_clusters=5, cluster_std=0.4,
                                   intrinsic_dim=6, seed=12) \
            .astype(np.float32)
        _FIXTURE["graph"] = build_nsw_cpu(points, d_min=8, d_max=16).graph
        _FIXTURE["points"] = points
        _FIXTURE["queries"] = queries
    return _FIXTURE["graph"], _FIXTURE["points"], _FIXTURE["queries"]


class TestResolveQuant:
    def test_unknown_mode_raises(self):
        """``None`` is the only spelling of "exact": anything outside
        ``QUANT_MODES`` — including the retired ``"off"`` — is a typed
        error naming the valid modes."""
        for bogus in ("bogus", "off", ""):
            with pytest.raises(ConfigurationError, match="pca"):
                SearchParams(k=10, l_n=32, quant=bogus)


class TestParamsValidation:
    def test_unknown_quant_rejected(self):
        with pytest.raises(ConfigurationError):
            SearchParams(k=10, l_n=32, quant="pq4")

    @pytest.mark.parametrize("factor", [0, -1, 3, 6])
    def test_bad_rerank_factor_rejected(self, factor):
        with pytest.raises(ConfigurationError):
            SearchParams(k=10, l_n=32, rerank_factor=factor)


class TestStagedSearch:
    def test_quant_off_is_byte_identical_to_reference(self):
        """``quant=None`` is the exact search: same ids as the batched
        oracle, never a compressed traversal."""
        graph, points, queries = _fixture()
        assert_matches_oracle(graph, points, queries,
                              SearchParams(k=10, l_n=32))

    @pytest.mark.parametrize("mode", QUANT_MODES)
    def test_deterministic(self, mode):
        graph, points, queries = _fixture()
        params = SearchParams(k=10, l_n=32, quant=mode)
        first = ganns_search(graph, points, queries, params)
        second = ganns_search(graph, points, queries, params)
        assert first.ids.tobytes() == second.ids.tobytes()
        assert first.dists.tobytes() == second.dists.tobytes()

    @pytest.mark.parametrize("mode", QUANT_MODES)
    def test_reported_distances_are_exact(self, mode):
        """Whatever the compressed walk retained, stage 2 reports the
        true full-precision metric value for every returned id."""
        graph, points, queries = _fixture()
        report = ganns_search(
            graph, points, queries,
            SearchParams(k=10, l_n=32, quant=mode))
        pts64 = points.astype(np.float64)
        qs64 = queries.astype(np.float64)
        for row in range(len(queries)):
            diffs = pts64[report.ids[row]] - qs64[row]
            truth = np.einsum("kd,kd->k", diffs, diffs)
            np.testing.assert_allclose(report.dists[row], truth,
                                       rtol=1e-9)

    def test_wider_pool_widens_shared_memory(self):
        graph, points, queries = _fixture()
        narrow = ganns_search(
            graph, points, queries,
            SearchParams(k=10, l_n=32, quant="pca",
                         rerank_factor=1))
        wide = ganns_search(
            graph, points, queries,
            SearchParams(k=10, l_n=32, quant="pca",
                         rerank_factor=4))
        assert wide.shared_mem_bytes > narrow.shared_mem_bytes


class TestFootprintAndCosts:
    def test_bytes_per_vector_ordering(self):
        _, points, _ = _fixture()
        f32 = points.dtype.itemsize * D
        fp16 = quantize_points(points, "fp16").bytes_per_vector()
        int8 = quantize_points(points, "int8").bytes_per_vector()
        pca = quantize_points(points, "pca").bytes_per_vector()
        assert int8 < fp16 < f32
        assert pca < f32

    def test_charged_dims_mapping(self):
        _, points, _ = _fixture()
        assert charged_dims(quantize_points(points, "fp16")) \
            == (D + 1) // 2
        assert charged_dims(quantize_points(points, "int8")) \
            == (D + 3) // 4
        assert charged_dims(quantize_points(points, "pca")) \
            == pca_rank(D)

    def test_table_cache_reuses_by_identity(self):
        _, points, _ = _fixture()
        assert quantize_points(points, "pca") is \
            quantize_points(points, "pca")
        assert quantize_points(points, "pca") is not \
            quantize_points(points.copy(), "pca")


class TestResolveComputeDtypeRegression:
    def test_mixed_float_dtypes_raise(self):
        points = np.zeros((4, 3), dtype=np.float64)
        queries = np.zeros((2, 3), dtype=np.float32)
        with pytest.raises(SearchError, match="mixed-dtype"):
            resolve_compute_dtype(points, queries)

    def test_mixed_non_float_dtypes_raise(self):
        """The pre-fix assert only caught float/float mismatches; an
        integer query matrix slid through to a silent upcast."""
        points = np.zeros((4, 3), dtype=np.float64)
        queries = np.zeros((2, 3), dtype=np.int32)
        with pytest.raises(SearchError, match="mixed-dtype"):
            resolve_compute_dtype(points, queries)

    def test_matching_dtypes_resolve(self):
        points = np.zeros((4, 3), dtype=np.float32)
        queries = np.zeros((2, 3), dtype=np.float32)
        assert resolve_compute_dtype(points, queries) \
            == np.dtype(np.float64)
        assert resolve_compute_dtype(points, queries, np.float32) \
            == np.dtype(np.float32)

    def test_unsupported_compute_dtype_raises(self):
        points = np.zeros((4, 3), dtype=np.float32)
        with pytest.raises(SearchError, match="unsupported"):
            resolve_compute_dtype(points, points, np.int16)
