"""Tests for warp-primitive semantics against their CUDA definitions.

The primitives are the executed forms the single-query kernel oracle is
built from (``tests/oracles/warp.py``); the library prices them by formula.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeviceError
from tests.oracles import warp


class TestShflDown:
    def test_basic_shift(self):
        values = np.arange(32, dtype=np.float64)
        out = warp.shfl_down_sync(values, 4)
        assert np.array_equal(out[:28], values[4:])
        # Lanes whose source is out of range keep their value.
        assert np.array_equal(out[28:], values[28:])

    def test_delta_zero_is_identity(self):
        values = np.arange(32, dtype=np.float64)
        assert np.array_equal(warp.shfl_down_sync(values, 0), values)

    def test_negative_delta_rejected(self):
        with pytest.raises(DeviceError, match="non-negative"):
            warp.shfl_down_sync(np.zeros(32), -1)

    def test_wrong_lane_count_rejected(self):
        with pytest.raises(DeviceError, match="32 lanes"):
            warp.shfl_down_sync(np.zeros(16), 1)

    def test_sub_warp_width(self):
        values = np.arange(8, dtype=np.float64)
        out = warp.shfl_down_sync(values, 2, warp_size=8)
        assert np.array_equal(out, [2, 3, 4, 5, 6, 7, 6, 7])


class TestReductions:
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6),
                    min_size=32, max_size=32))
    @settings(max_examples=50, deadline=None)
    def test_shfl_down_reduce_equals_sum(self, values):
        arr = np.asarray(values)
        assert warp.warp_reduce_sum(arr) == pytest.approx(arr.sum(),
                                                          rel=1e-9,
                                                          abs=1e-6)

    def test_sub_warp_reduction(self):
        arr = np.arange(4, dtype=np.float64)
        assert warp.warp_reduce_sum(arr, warp_size=4) == 6.0


class TestBallotFfs:
    def test_ballot_packs_bits(self):
        predicates = np.zeros(32, dtype=bool)
        predicates[0] = predicates[5] = True
        assert warp.ballot_sync(predicates) == (1 | (1 << 5))

    def test_ballot_empty(self):
        assert warp.ballot_sync(np.zeros(32, dtype=bool)) == 0

    def test_ffs_matches_cuda_semantics(self):
        assert warp.ffs(0) == 0
        assert warp.ffs(1) == 1
        assert warp.ffs(0b1000) == 4

    def test_ffs_rejects_negative(self):
        with pytest.raises(DeviceError, match="non-negative"):
            warp.ffs(-1)

    @given(st.integers(min_value=0, max_value=31))
    @settings(max_examples=32, deadline=None)
    def test_first_set_lane_finds_first_true(self, first):
        predicates = np.zeros(32, dtype=bool)
        predicates[first:] = True
        assert warp.first_set_lane(predicates) == first

    def test_first_set_lane_none(self):
        assert warp.first_set_lane(np.zeros(32, dtype=bool)) == -1

