"""Deeper property tests on the bitonic networks.

The networks (``tests/oracles/bitonic.py``) are the data-parallel
primitives of GANNS phases (5)/(6) as the single-query kernel oracle
executes them; these properties pin their semantics beyond simple
sortedness.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import next_pow2
from tests.oracles.bitonic import bitonic_merge_network, bitonic_sort_network


def _random_records(rng, n):
    dists = rng.normal(size=n)
    ids = rng.permutation(n).astype(np.float64)
    return dists, ids


class TestSortProperties:
    @given(st.integers(min_value=0, max_value=5),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_multiset_preserved(self, log_n, seed):
        """Sorting permutes records; it never invents or loses one."""
        n = 1 << log_n
        rng = np.random.default_rng(seed)
        dists, ids = _random_records(rng, n)
        out_d, out_i = bitonic_sort_network(dists, ids)
        assert sorted(out_d.tolist()) == sorted(dists.tolist())
        assert sorted(out_i.tolist()) == sorted(ids.tolist())

    @given(st.integers(min_value=0, max_value=5),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_records_stay_paired(self, log_n, seed):
        """Each (dist, id) pair travels through the network intact."""
        n = 1 << log_n
        rng = np.random.default_rng(seed)
        dists, ids = _random_records(rng, n)
        pairs_in = set(zip(dists.tolist(), ids.tolist()))
        out_d, out_i = bitonic_sort_network(dists, ids)
        pairs_out = set(zip(out_d.tolist(), out_i.tolist()))
        assert pairs_in == pairs_out

    @given(st.integers(min_value=0, max_value=5),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_idempotent_on_sorted_input(self, log_n, seed):
        n = 1 << log_n
        rng = np.random.default_rng(seed)
        dists = np.sort(rng.normal(size=n))
        (once,) = bitonic_sort_network(dists)
        (twice,) = bitonic_sort_network(once)
        assert np.array_equal(once, twice)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_agrees_with_lexsort_on_duplicate_keys(self, seed):
        """With duplicate distances, the (dist, id) lexicographic order
        is the library-wide contract; the network must produce it."""
        rng = np.random.default_rng(seed)
        dists = rng.integers(0, 4, size=32).astype(np.float64)
        ids = rng.permutation(32).astype(np.float64)
        net_d, net_i = bitonic_sort_network(dists, ids)
        order = np.lexsort((ids, dists))
        assert np.array_equal(net_d, dists[order])
        assert np.array_equal(net_i, ids[order])


class TestMergeProperties:
    @given(st.integers(min_value=1, max_value=5),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_merge_equals_sort_of_concatenation(self, log_half, seed):
        half = 1 << log_half
        rng = np.random.default_rng(seed)
        a = np.sort(rng.normal(size=half))
        b = np.sort(rng.normal(size=half))
        (merged,) = bitonic_merge_network(np.concatenate([a, b]))
        assert np.array_equal(merged, np.sort(np.concatenate([a, b])))

    def test_pad_then_merge_matches_unpadded_selection(self):
        """The GANNS phase-6 path: pad T with +inf to the pool width,
        merge, truncate — identical to exact top-l_n selection."""
        rng = np.random.default_rng(1)
        pool = np.sort(rng.normal(size=64))
        buffer = np.sort(rng.normal(size=20))
        padded = np.concatenate([buffer, np.full(64 - len(buffer), np.inf)])
        merged, = bitonic_merge_network(np.concatenate([pool, padded]))
        expected = np.sort(np.concatenate([pool, buffer]))[:64]
        assert np.array_equal(merged[:64], expected)


class TestNumpyEquivalenceAcrossDtypesAndShapes:
    """The network must equal ``np.sort`` for every buffer a kernel
    would actually hold: any dtype, any row batch, any non-power-of-two
    length after padding."""

    @given(st.sampled_from(["float64", "float32", "int64", "int32"]),
           st.integers(min_value=0, max_value=6),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_sort_matches_np_sort_per_dtype(self, dtype, log_n, seed):
        n = 1 << log_n
        rng = np.random.default_rng(seed)
        if dtype.startswith("float"):
            keys = rng.normal(size=n).astype(dtype)
        else:
            keys = rng.integers(-1000, 1000, size=n).astype(dtype)
        (out,) = bitonic_sort_network(keys)
        assert out.dtype == np.dtype(dtype)
        assert np.array_equal(out, np.sort(keys))

    @given(st.integers(min_value=1, max_value=5),
           st.integers(min_value=1, max_value=4),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_sort_matches_np_sort_on_random_row_batches(
            self, log_n, n_rows, seed):
        """Batched rows (one per simulated thread block) sort exactly
        like a per-row np.sort, whatever the (rows, length) shape."""
        n = 1 << log_n
        rng = np.random.default_rng(seed)
        keys = rng.normal(size=(n_rows, n))
        (out,) = bitonic_sort_network(keys)
        assert np.array_equal(out, np.sort(keys, axis=1))

    @given(st.integers(min_value=1, max_value=70),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_non_pow2_lengths_via_padding(self, n, seed):
        """Any length: pad with +inf as the GPU buffer would be, sort,
        truncate — identical to np.sort of the raw values."""
        rng = np.random.default_rng(seed)
        keys = rng.normal(size=n)
        padded = np.concatenate([keys, np.full(next_pow2(n) - n, np.inf)])
        (out,) = bitonic_sort_network(padded)
        assert np.array_equal(out[:n], np.sort(keys))
        assert np.isinf(out[n:]).all()

    @given(st.integers(min_value=1, max_value=40),
           st.integers(min_value=1, max_value=40),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_merge_non_pow2_runs_via_padding(self, la, lb, seed):
        """Two sorted runs of arbitrary (non-pow2) lengths, each padded
        to a common power of two, bitonic-merge to np.sort of the
        concatenation."""
        rng = np.random.default_rng(seed)
        a = np.sort(rng.normal(size=la))
        b = np.sort(rng.normal(size=lb))
        width = next_pow2(max(la, lb))
        a_pad = np.concatenate([a, np.full(width - la, np.inf)])
        b_pad = np.concatenate([b, np.full(width - lb, np.inf)])
        (merged,) = bitonic_merge_network(np.concatenate([a_pad, b_pad]))
        expected = np.sort(np.concatenate([a, b]))
        assert np.array_equal(merged[:la + lb], expected)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_sort_handles_inf_and_duplicate_values(self, seed):
        rng = np.random.default_rng(seed)
        keys = rng.choice([0.0, 1.0, np.inf, -np.inf, 2.5], size=16)
        (out,) = bitonic_sort_network(keys)
        assert np.array_equal(out, np.sort(keys))
