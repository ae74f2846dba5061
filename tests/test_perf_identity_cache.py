"""The identity caches behind the distance engines and the quantizer.

Both used to flush themselves when a ninth matrix arrived, so a
round-robin over nine corpora (the cluster smoke gate runs twenty
shards) missed on every call.  Entries now leave when — and only when —
their matrix is collected.
"""

import gc

import numpy as np
import pytest

from repro.datasets.synthetic import gaussian_mixture
from repro.metrics.distance import get_metric
from repro.perf.distance import _PREPARED_CACHE, _prepare_points
from repro.perf.identity_cache import IdentityCache
from repro.perf.quant import _TABLE_CACHE, quantize_points

F64 = np.dtype(np.float64)


def _corpus(seed):
    """float64 and contiguous: with the euclidean metric the prepared
    matrix is the points themselves — the one derived value that could
    pin its own key."""
    return gaussian_mixture(60, 8, seed=seed).astype(np.float64)


def _prepare(points):
    return _prepare_points(points, get_metric("euclidean"), F64)


def _quantize(points):
    return quantize_points(points, "pca", "euclidean")


@pytest.mark.parametrize("cache, derive", [(_PREPARED_CACHE, _prepare),
                                           (_TABLE_CACHE, _quantize)])
class TestRoundRobin:
    def test_twelve_matrices_are_each_derived_once(self, cache, derive):
        corpora = [_corpus(s) for s in range(12)]
        first = [derive(points) for points in corpora]
        for _ in range(3):
            for points, value in zip(corpora, first):
                assert derive(points) is value

    def test_entry_leaves_with_its_matrix(self, cache, derive):
        gc.collect()
        before = len(cache)
        points = _corpus(99)
        derive(points)
        assert len(cache) == before + 1
        del points
        gc.collect()
        assert len(cache) == before


def test_recycled_id_never_serves_a_stale_entry():
    # Short-lived matrices of one size reuse the same address almost
    # every time; each must get norms of its own rows.
    seen_ids = set()
    recycled = 0
    for seed in range(50):
        points = _corpus(seed)
        recycled += id(points) in seen_ids
        seen_ids.add(id(points))
        np.testing.assert_array_equal(
            _prepare(points).norms, np.einsum("nd,nd->n", points, points))
        del points
    assert recycled > 0, "allocator never reused an id; test is vacuous"


def test_stale_guard_holds_even_if_the_callback_never_ran():
    cache = IdentityCache()
    first = gaussian_mixture(10, 4, seed=0)
    cache.get(first, "v", lambda: "first")
    second = gaussian_mixture(10, 4, seed=1)
    # Forge the collision: file the first matrix's entry under the
    # second's id, as if the id had been recycled with the entry intact.
    cache._entries[id(second)] = cache._entries.pop(id(first))
    assert cache.get(second, "v", lambda: "second") == "second"
    assert cache.get(first, "v", lambda: "rebuilt") == "rebuilt"


def test_unweakrefable_objects_are_served_uncached():
    cache = IdentityCache()
    key = [1, 2, 3]  # lists cannot be weakly referenced
    assert cache.get(key, "v", lambda: "a") == "a"
    assert cache.get(key, "v", lambda: "b") == "b"
    assert len(cache) == 0
