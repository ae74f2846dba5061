"""Property-based guarantees of the quantized staged search.

The staged pipeline (``docs/quantization.md``) is lossy by design, so
its contract is not id equality but a set of bounds this suite pins
with Hypothesis:

- **int8 round-trip** — the affine dequantization lands within half a
  quantization step per dimension, for arbitrary data scales and
  offsets (including constant dimensions);
- **exactness at saturation** — with ``l_n >= n`` over a fully
  reachable graph, the compressed traversal visits everything and the
  exact rerank restores brute force *exactly*, for every mode;
- **pool overlap** — at working pool widths the staged top-k keeps a
  floor of the exact top-k (the rerank can only choose from what the
  compressed walk retained, so this bounds the whole pipeline's loss);
- **cache isolation** — a result cache serves one engine, so an exact
  and a quantized serving engine never share one: the second is refused
  the first one's cache.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.nsw_cpu import build_nsw_cpu
from repro.core.ganns import ganns_search
from repro.core.params import SearchParams
from repro.datasets.ground_truth import exact_knn
from repro.datasets.synthetic import gaussian_mixture
from repro.errors import ServeError
from repro.perf.quant import QUANT_MODES, quantize_points
from repro.serve.cache import ResultCache
from repro.serve.engine import ServeEngine
from repro.serve.scheduler import BatchPolicy
from tests.oracles.graph_measures import reachable_fraction
from tests.oracles.quant import dequantize

K = 10

#: One small, fully reachable graph shared by the search properties
#: (builds dominate the suite's wall clock; everything here is
#: read-only on it).
_FIXTURE = {}


def _fixture():
    if not _FIXTURE:
        points = gaussian_mixture(150, 24, n_clusters=5, cluster_std=0.3,
                                  intrinsic_dim=6, seed=11)
        points = points.astype(np.float32)
        graph = build_nsw_cpu(points, d_min=8, d_max=16).graph
        assert reachable_fraction(graph) == 1.0
        _FIXTURE["points"] = points
        _FIXTURE["graph"] = graph
    return _FIXTURE["graph"], _FIXTURE["points"]


class TestInt8RoundTrip:
    @given(seed=st.integers(0, 10_000),
           n=st.integers(2, 40), d=st.integers(1, 24),
           scale=st.floats(1e-3, 1e3),
           offset=st.floats(-100.0, 100.0))
    @settings(max_examples=60, deadline=None)
    def test_error_within_half_step(self, seed, n, d, scale, offset):
        rng = np.random.default_rng(seed)
        source = (rng.standard_normal((n, d)) * scale + offset) \
            .astype(np.float32)
        table = quantize_points(source, "int8")
        err = np.abs(dequantize(table) - source)
        # Half a quantization step per dimension, plus float32 slack on
        # the affine reconstruction.
        bound = 0.5 * table.scales + 1e-4 * (1.0 + np.abs(table.betas))
        assert np.all(err <= bound), (
            f"worst error {err.max()} exceeds bound {bound.max()}"
        )

    @given(seed=st.integers(0, 10_000), n=st.integers(2, 20))
    @settings(max_examples=20, deadline=None)
    def test_constant_dimensions_are_exact(self, seed, n):
        rng = np.random.default_rng(seed)
        source = np.repeat(rng.standard_normal((1, 6)), n, axis=0) \
            .astype(np.float32)
        table = quantize_points(source, "int8")
        assert np.allclose(dequantize(table), source, atol=1e-5)


class TestExactnessAtSaturation:
    @given(mode=st.sampled_from(QUANT_MODES),
           rerank_factor=st.sampled_from([1, 2, 4]),
           seed=st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_saturating_pool_restores_brute_force(self, mode,
                                                  rerank_factor, seed):
        """l_n >= n + full reachability => staged search IS brute force.

        The explore window covers every vertex and the pool retains
        everything visited, so whatever order the compressed traversal
        walked in, the exact rerank sorts the full corpus — ids and
        distances must equal ``exact_knn`` exactly, for every mode and
        any over-fetch factor.
        """
        graph, points = _fixture()
        queries = gaussian_mixture(8, 24, n_clusters=5, cluster_std=0.4,
                                   intrinsic_dim=6, seed=seed) \
            .astype(np.float32)
        params = SearchParams(k=K, l_n=256, quant=mode,
                              rerank_factor=rerank_factor)
        report = ganns_search(graph, points, queries, params)
        truth_ids, truth_dists = exact_knn(points, queries, K,
                                           return_distances=True)
        np.testing.assert_array_equal(report.ids, truth_ids)
        np.testing.assert_allclose(report.dists, truth_dists, rtol=1e-5)


class TestPoolOverlap:
    @given(mode=st.sampled_from(QUANT_MODES),
           seed=st.integers(0, 1000))
    @settings(max_examples=12, deadline=None)
    def test_staged_topk_overlaps_exact_topk(self, mode, seed):
        """At working pool widths the staged top-k keeps >= 50% of the
        exact top-k (averaged over the batch) — the compressed walk may
        wander, but it must stay in the same neighborhood."""
        graph, points = _fixture()
        queries = gaussian_mixture(16, 24, n_clusters=5, cluster_std=0.4,
                                   intrinsic_dim=6, seed=seed) \
            .astype(np.float32)
        exact = ganns_search(graph, points, queries,
                             SearchParams(k=K, l_n=32))
        staged = ganns_search(
            graph, points, queries,
            SearchParams(k=K, l_n=32, quant=mode,
                         rerank_factor=2))
        overlaps = [
            len(set(exact.ids[row]) & set(staged.ids[row])) / K
            for row in range(len(queries))
        ]
        assert float(np.mean(overlaps)) >= 0.5, (
            f"quant={mode}: staged top-{K} shares only "
            f"{np.mean(overlaps):.2f} of the exact top-{K}"
        )


class TestCacheIsolation:
    @staticmethod
    def _engine(cache, quant, graph, points):
        return ServeEngine(
            graph, points,
            params=SearchParams(k=K, l_n=32, quant=quant),
            policy=BatchPolicy(max_batch=32, max_wait_seconds=0.002,
                               max_queue=4096),
            cache=cache)

    @pytest.mark.parametrize("mode", QUANT_MODES)
    def test_shared_cache_never_crosses_quant_boundary(self, mode):
        """A cache holds one engine's answers: an exact engine's cache
        is refused to a quantized engine and vice versa, so a lossy
        result can never answer an exact request."""
        graph, points = _fixture()
        for first, second in ((None, mode), (mode, None)):
            cache = ResultCache(capacity=4096)
            owner = self._engine(cache, first, graph, points)
            with pytest.raises(ServeError, match="another ServeEngine"):
                self._engine(cache, second, graph, points)
            assert cache.owner is owner
