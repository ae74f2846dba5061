"""Tests for the bitonic sorting/merging networks, incl. property tests.

The networks are the kernel oracle's (``tests/oracles/bitonic.py``); the
power-of-two helpers are the library's (``repro.core.params``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import is_pow2, next_pow2
from repro.errors import DeviceError
from tests.oracles.bitonic import bitonic_merge_network, bitonic_sort_network


class TestPow2Helpers:
    @pytest.mark.parametrize("n,expected", [
        (1, True), (2, True), (64, True), (3, False), (0, False),
        (-4, False), (96, False),
    ])
    def test_is_pow2(self, n, expected):
        assert is_pow2(n) is expected

    @pytest.mark.parametrize("n,expected", [
        (0, 1), (1, 1), (2, 2), (3, 4), (33, 64), (128, 128),
    ])
    def test_next_pow2(self, n, expected):
        assert next_pow2(n) == expected


class TestBitonicSortNetwork:
    @given(st.integers(min_value=0, max_value=6),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_sorts_any_pow2_length(self, log_n, seed):
        n = 1 << log_n
        rng = np.random.default_rng(seed)
        keys = rng.normal(size=n)
        (out,) = bitonic_sort_network(keys)
        assert np.array_equal(out, np.sort(keys))

    def test_payloads_follow_keys(self):
        keys = np.array([3.0, 1.0, 4.0, 2.0])
        ids = np.array([30.0, 10.0, 40.0, 20.0])
        out_k, out_i = bitonic_sort_network(keys, ids)
        assert np.array_equal(out_k, [1, 2, 3, 4])
        assert np.array_equal(out_i, [10, 20, 30, 40])

    def test_lexicographic_tie_break(self):
        keys = np.array([1.0, 1.0, 1.0, 0.0])
        ids = np.array([9.0, 2.0, 5.0, 7.0])
        out_k, out_i = bitonic_sort_network(keys, ids)
        assert np.array_equal(out_i, [7, 2, 5, 9])

    def test_batch_rows_sorted_independently(self):
        rng = np.random.default_rng(0)
        keys = rng.normal(size=(5, 16))
        (out,) = bitonic_sort_network(keys)
        assert np.array_equal(out, np.sort(keys, axis=1))

    def test_rejects_non_pow2(self):
        with pytest.raises(DeviceError, match="power of two"):
            bitonic_sort_network(np.zeros(6))

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(DeviceError, match="one shape"):
            bitonic_sort_network(np.zeros(4), np.zeros(8))

    def test_rejects_no_keys(self):
        with pytest.raises(DeviceError, match="at least one"):
            bitonic_sort_network()

    def test_does_not_mutate_input(self):
        keys = np.array([2.0, 1.0])
        bitonic_sort_network(keys)
        assert np.array_equal(keys, [2.0, 1.0])

    def test_length_one(self):
        (out,) = bitonic_sort_network(np.array([5.0]))
        assert np.array_equal(out, [5.0])


class TestBitonicMergeNetwork:
    @given(st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_merges_two_sorted_halves(self, log_half, seed):
        half = 1 << log_half
        rng = np.random.default_rng(seed)
        a = np.sort(rng.normal(size=half))
        b = np.sort(rng.normal(size=half))
        combined = np.concatenate([a, b])
        (out,) = bitonic_merge_network(combined)
        assert np.array_equal(out, np.sort(combined))

    def test_merge_carries_payloads(self):
        a = np.array([1.0, 3.0])
        b = np.array([2.0, 4.0])
        ids = np.array([10.0, 30.0, 20.0, 40.0])
        out_k, out_i = bitonic_merge_network(np.concatenate([a, b]), ids)
        assert np.array_equal(out_k, [1, 2, 3, 4])
        assert np.array_equal(out_i, [10, 20, 30, 40])

    def test_rejects_non_pow2(self):
        with pytest.raises(DeviceError, match="power of two"):
            bitonic_merge_network(np.zeros(12))


class TestMergeSortedTopm:
    def test_matches_faithful_network_with_unique_ids(self):
        """The compare-exchange network keeps the same top-m records as a
        lexsort of the two runs when ids are unique (the library's global
        tie-break invariant)."""
        rng = np.random.default_rng(7)
        dists = rng.normal(size=16)
        ids = rng.permutation(16).astype(np.float64)
        a_order = np.argsort(dists[:8])
        b_order = np.argsort(dists[8:]) + 8
        a_d, a_i = dists[a_order], ids[a_order]
        b_d, b_i = dists[b_order], ids[b_order]
        want = np.lexsort((ids, dists))[:8]
        net_d, net_i = bitonic_merge_network(
            np.concatenate([a_d, b_d]), np.concatenate([a_i, b_i]))
        assert np.array_equal(dists[want], net_d[:8])
        assert np.array_equal(ids[want], net_i[:8])
