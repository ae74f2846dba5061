"""Property-based correctness of the scatter-gather top-k merge.

The cluster's answer quality rests on one reduction:
:func:`repro.cluster.merge.merge_topk` must equal brute-force top-k
over the *union* of all shard candidates under ``(distance, id)``
order.  Hypothesis drives that equivalence over arbitrary shard
counts, duplicate distances (tie-breaking), ``k`` larger than any
single shard's candidate list, padded rows, and the zero-shard
degenerate case.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.merge import (
    merge_cycles_per_query,
    merge_launch,
    merge_topk,
)
from repro.errors import ClusterError
from repro.gpusim.costs import DEFAULT_COSTS


def brute_force_merge(k, shard_ids, shard_dists):
    """Reference: per-row top-k of the union by (distance, id)."""
    n_rows = shard_ids[0].shape[0]
    out_ids = np.full((n_rows, k), -1, dtype=np.int64)
    out_dists = np.full((n_rows, k), np.inf, dtype=np.float64)
    for row in range(n_rows):
        pairs = []
        for ids, dists in zip(shard_ids, shard_dists):
            for col in range(ids.shape[1]):
                if ids[row, col] >= 0:
                    pairs.append((float(dists[row, col]),
                                  int(ids[row, col])))
        pairs.sort()
        for rank, (dist, pid) in enumerate(pairs[:k]):
            out_ids[row, rank] = pid
            out_dists[row, rank] = dist
    return out_ids, out_dists


@st.composite
def shard_results(draw):
    """Random per-shard top-k runs with disjoint ids and padding."""
    n_shards = draw(st.integers(min_value=1, max_value=6))
    n_rows = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=1, max_value=12))
    # Small distance alphabet forces duplicate distances across shards.
    dist_pool = draw(st.lists(
        st.floats(min_value=0.0, max_value=4.0, width=16,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=4))
    rng_seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(rng_seed)
    next_id = 0
    shard_ids, shard_dists = [], []
    for _ in range(n_shards):
        width = draw(st.integers(min_value=1, max_value=k + 3))
        ids = np.full((n_rows, width), -1, dtype=np.int64)
        dists = np.full((n_rows, width), np.inf, dtype=np.float64)
        for row in range(n_rows):
            # Each row answers with a sorted (possibly short) run.
            n_real = int(rng.integers(0, width + 1))
            row_dists = np.sort(rng.choice(dist_pool, size=n_real))
            for col in range(n_real):
                ids[row, col] = next_id + int(rng.integers(0, 1000))
                dists[row, col] = row_dists[col]
            next_id += 2000  # keep shard id ranges disjoint
        # Make ids unique within the row (disjoint shards guarantee
        # cross-shard uniqueness; enforce within-shard uniqueness too).
        for row in range(n_rows):
            seen = set()
            for col in range(width):
                while ids[row, col] >= 0 and ids[row, col] in seen:
                    ids[row, col] += 1
                if ids[row, col] >= 0:
                    seen.add(int(ids[row, col]))
        shard_ids.append(ids)
        shard_dists.append(dists)
    return k, shard_ids, shard_dists


class TestMergeEqualsBruteForce:
    @settings(max_examples=200, deadline=None)
    @given(shard_results())
    def test_merge_matches_brute_force_over_union(self, case):
        k, shard_ids, shard_dists = case
        got_ids, got_dists = merge_topk(k, shard_ids, shard_dists)
        want_ids, want_dists = brute_force_merge(k, shard_ids,
                                                 shard_dists)
        np.testing.assert_array_equal(got_ids, want_ids)
        np.testing.assert_array_equal(got_dists, want_dists)

    @settings(max_examples=50, deadline=None)
    @given(shard_results())
    def test_merge_output_shape_and_order(self, case):
        k, shard_ids, shard_dists = case
        ids, dists = merge_topk(k, shard_ids, shard_dists)
        assert ids.shape == (shard_ids[0].shape[0], k)
        assert ids.dtype == np.int64 and dists.dtype == np.float64
        for row in range(ids.shape[0]):
            real = ids[row] >= 0
            # Padding only at the tail, sorted by (distance, id).
            assert not np.any(np.diff(real.astype(int)) > 0)
            row_d = dists[row][real]
            assert np.all(np.diff(row_d) >= 0)
            ties = np.flatnonzero(np.diff(row_d) == 0)
            for t in ties:
                assert ids[row][real][t] < ids[row][real][t + 1]

    @settings(max_examples=50, deadline=None)
    @given(shard_results())
    def test_merge_is_permutation_invariant(self, case):
        k, shard_ids, shard_dists = case
        forward = merge_topk(k, shard_ids, shard_dists)
        backward = merge_topk(k, shard_ids[::-1], shard_dists[::-1])
        np.testing.assert_array_equal(forward[0], backward[0])
        np.testing.assert_array_equal(forward[1], backward[1])


class TestMergeEdgeCases:
    def test_k_larger_than_every_shard_pads_the_tail(self):
        ids, dists = merge_topk(
            5,
            [np.array([[3]]), np.array([[7]])],
            [np.array([[0.5]]), np.array([[0.25]])])
        np.testing.assert_array_equal(ids, [[7, 3, -1, -1, -1]])
        assert np.isinf(dists[0, 2:]).all()

    def test_all_padding_rows_stay_padding(self):
        ids, dists = merge_topk(
            3,
            [np.full((2, 3), -1)],
            [np.full((2, 3), np.inf)])
        assert (ids == -1).all() and np.isinf(dists).all()

    def test_zero_shards_requires_n_queries(self):
        ids, dists = merge_topk(4, [], [], n_queries=3)
        assert ids.shape == (3, 4) and (ids == -1).all()
        with pytest.raises(ClusterError):
            merge_topk(4, [], [])

    def test_duplicate_distances_break_ties_by_id(self):
        ids, _ = merge_topk(
            4,
            [np.array([[10, 30]]), np.array([[20, 40]])],
            [np.array([[1.0, 1.0]]), np.array([[1.0, 1.0]])])
        np.testing.assert_array_equal(ids, [[10, 20, 30, 40]])

    @pytest.mark.parametrize("k", [2.5, True, 0])
    def test_k_must_be_a_positive_count(self, k):
        with pytest.raises(ClusterError, match="k must be"):
            merge_topk(k, [np.zeros((1, 3), dtype=int)], [np.zeros((1, 3))])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ClusterError):
            merge_topk(2, [np.zeros((2, 3), dtype=int)],
                       [np.zeros((3, 3))])
        with pytest.raises(ClusterError):
            merge_topk(2,
                       [np.zeros((2, 3), dtype=int),
                        np.zeros((3, 3), dtype=int)],
                       [np.zeros((2, 3)), np.zeros((3, 3))])


class TestMergeCost:
    def test_single_run_is_free(self):
        assert merge_cycles_per_query(1, 16) == 0.0
        assert merge_launch(10, 1, 16) == (0.0, 0.0)

    def test_cost_grows_linearly_in_runs(self):
        one = merge_cycles_per_query(2, 16)
        assert one == DEFAULT_COSTS.ganns_merge_cycles(16, 16, 32)
        assert merge_cycles_per_query(5, 16) == pytest.approx(4 * one)

    def test_launch_charges_every_query_block(self):
        cycles, seconds = merge_launch(8, 3, 16)
        assert cycles == pytest.approx(8 * merge_cycles_per_query(3, 16))
        assert seconds > 0.0

    def test_invalid_arguments_raise(self):
        with pytest.raises(ClusterError):
            merge_cycles_per_query(0, 16)
        with pytest.raises(ClusterError):
            merge_cycles_per_query(2, 0)
