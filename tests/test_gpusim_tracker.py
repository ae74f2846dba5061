"""Tests for per-lane, per-phase cycle accounting."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.gpusim.tracker import CycleTracker, PhaseCategory


class TestChargeSemantics:
    def test_scalar_charge_all_lanes(self):
        t = CycleTracker(4)
        t.charge("a", 10.0)
        assert np.array_equal(t.lane_cycles("a"), [10, 10, 10, 10])

    def test_boolean_mask_charge(self):
        t = CycleTracker(4)
        t.charge("a", 5.0, np.array([True, False, True, False]))
        assert np.array_equal(t.lane_cycles("a"), [5, 0, 5, 0])

    def test_index_array_charge(self):
        t = CycleTracker(4)
        t.charge("a", 3.0, np.array([1, 3]))
        assert np.array_equal(t.lane_cycles("a"), [0, 3, 0, 3])

    def test_vector_charge_on_indices(self):
        t = CycleTracker(4)
        t.charge("a", np.array([1.0, 2.0]), np.array([0, 2]))
        assert np.array_equal(t.lane_cycles("a"), [1, 0, 2, 0])

    def test_charges_accumulate(self):
        t = CycleTracker(2)
        t.charge("a", 1.0)
        t.charge("a", 2.0)
        assert np.array_equal(t.lane_cycles("a"), [3, 3])

    def test_wrong_mask_shape_rejected(self):
        t = CycleTracker(4)
        with pytest.raises(ConfigurationError, match="mask"):
            t.charge("a", 1.0, np.array([True, False]))

    def test_zero_lanes_rejected(self):
        with pytest.raises(ConfigurationError, match="positive"):
            CycleTracker(0)


class TestReadout:
    def test_unknown_phase_reads_as_zero(self):
        t = CycleTracker(3)
        assert np.array_equal(t.lane_cycles("never"), [0, 0, 0])

    def test_total_cycles_sums_lanes_and_phases(self):
        t = CycleTracker(2)
        t.charge("a", 1.0)
        t.charge("b", 2.0)
        assert t.total_cycles() == 6.0
        assert t.total_cycles("a") == 2.0

    def test_phase_totals(self):
        t = CycleTracker(2)
        t.charge("a", 1.0)
        assert t.phase_totals() == {"a": 2.0}

    def test_breakdown_sums_to_one(self):
        t = CycleTracker(1)
        t.charge("a", 3.0)
        t.charge("b", 1.0)
        breakdown = t.breakdown()
        assert sum(breakdown.values()) == pytest.approx(1.0)
        assert breakdown["a"] == pytest.approx(0.75)

    def test_breakdown_empty_tracker(self):
        assert CycleTracker(1).breakdown() == {}

    def test_lane_cycles_returns_copy(self):
        t = CycleTracker(2)
        t.charge("a", 1.0)
        arr = t.lane_cycles("a")
        arr[:] = 99
        assert t.total_cycles("a") == 2.0


class TestCategories:
    def test_registered_category(self):
        t = CycleTracker(1)
        assert t.category_of("bulk_distance") is PhaseCategory.DISTANCE
        assert t.category_of("sorting") is PhaseCategory.STRUCTURE

    def test_unknown_phase_is_other(self):
        t = CycleTracker(1)
        assert t.category_of("x") is PhaseCategory.OTHER

    def test_category_totals(self):
        t = CycleTracker(1)
        t.charge("bulk_distance", 3.0)
        t.charge("sorting", 1.0)
        t.charge("x", 2.0)
        totals = t.category_totals()
        assert totals[PhaseCategory.DISTANCE] == 3.0
        assert totals[PhaseCategory.STRUCTURE] == 1.0
        assert totals[PhaseCategory.OTHER] == 2.0


class TestTake:
    def test_take_slices_every_phase_in_order(self):
        t = CycleTracker(4)
        t.charge("q", np.array([1.0, 2.0, 3.0, 4.0]))
        t.charge("bulk_distance", np.array([10.0, 20.0, 30.0, 40.0]))
        taken = t.take([3, 0, 3])
        assert tuple(taken.phase_names) == ("q", "bulk_distance")
        assert np.array_equal(taken.lane_cycles("bulk_distance"),
                              [40, 10, 40])
        assert np.array_equal(taken.lane_cycles(), [44, 11, 44])
        assert taken.category_totals() == {PhaseCategory.OTHER: 9.0,
                                           PhaseCategory.DISTANCE: 90.0}

    def test_take_copies(self):
        t = CycleTracker(2)
        t.charge("p", 1.0)
        taken = t.take([0, 1])
        taken.charge("p", 5.0)
        assert np.array_equal(t.lane_cycles("p"), [1, 1])
