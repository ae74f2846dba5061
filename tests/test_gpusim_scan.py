"""Tests for the segment-flag and CSR-offset helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeviceError
from repro.gpusim.scan import csr_offsets_from_sorted_ids, segment_starts


class TestSegmentStarts:
    def test_flags_run_starts(self):
        ids = np.array([3, 3, 5, 5, 5, 9])
        assert np.array_equal(segment_starts(ids), [1, 0, 1, 0, 0, 1])

    def test_single_run(self):
        assert np.array_equal(segment_starts(np.array([2, 2, 2])),
                              [1, 0, 0])

    def test_empty(self):
        assert segment_starts(np.zeros(0, dtype=int)).shape == (0,)

    def test_rejects_2d(self):
        with pytest.raises(DeviceError, match="1-D"):
            segment_starts(np.zeros((2, 2), dtype=int))


class TestCsrOffsets:
    def test_offsets_delimit_segments(self):
        ids = np.array([1, 1, 4, 4, 4, 7])
        offsets = csr_offsets_from_sorted_ids(ids)
        assert np.array_equal(offsets, [0, 2, 5, 6])
        # Segment s spans [offsets[s], offsets[s+1]) with one distinct id.
        for s in range(len(offsets) - 1):
            segment = ids[offsets[s]:offsets[s + 1]]
            assert len(np.unique(segment)) == 1

    @given(st.lists(st.integers(min_value=0, max_value=20),
                    min_size=1, max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_segment_lengths_match_counts(self, raw_ids):
        ids = np.sort(np.asarray(raw_ids))
        offsets = csr_offsets_from_sorted_ids(ids)
        lengths = np.diff(offsets)
        _, counts = np.unique(ids, return_counts=True)
        assert np.array_equal(lengths, counts)
        assert offsets[-1] == len(ids)
