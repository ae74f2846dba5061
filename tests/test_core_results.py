"""Tests for search reports and their timing conversions."""

import numpy as np
import pytest

from repro.core.results import SearchReport
from repro.errors import SearchError
from repro.gpusim.tracker import CycleTracker, PhaseCategory


def _report(n_queries=4, cycles=1000.0):
    tracker = CycleTracker(n_queries)
    tracker.charge("bulk_distance", cycles)
    tracker.charge("sorting", cycles / 2)
    return SearchReport(
        algorithm="ganns",
        ids=np.zeros((n_queries, 10), dtype=np.int64),
        dists=np.zeros((n_queries, 10)),
        tracker=tracker,
        n_threads=32,
        shared_mem_bytes=1024,
        iterations=np.full(n_queries, 7),
        n_distance_computations=100,
    )


class TestSearchReport:
    def test_n_queries(self):
        assert _report(6).n_queries == 6

    def test_launch_and_qps_consistent(self):
        report = _report()
        launch = report.launch()
        qps = report.queries_per_second()
        assert qps == pytest.approx(report.n_queries / launch.seconds)

    def test_qps_decreases_with_more_cycles(self):
        fast = _report(cycles=100.0)
        slow = _report(cycles=10_000.0)
        assert fast.queries_per_second() > slow.queries_per_second()

    def test_category_seconds_sum_to_launch_seconds(self):
        report = _report()
        seconds = report.category_seconds()
        assert sum(seconds.values()) == pytest.approx(
            report.launch().seconds)

    def test_structure_fraction(self):
        report = _report()
        # bulk_distance 1000 (distance), sorting 500 (structure).
        assert report.structure_fraction() == pytest.approx(1 / 3)

    def test_breakdown_uses_phase_names(self):
        breakdown = _report().breakdown()
        assert set(breakdown) == {"bulk_distance", "sorting"}

    def test_ganns_tracker_categories(self):
        tracker = CycleTracker(1)
        assert tracker.category_of("bulk_distance") is PhaseCategory.DISTANCE
        for phase in ("candidate_locating", "neighborhood_exploration",
                      "lazy_check", "sorting", "candidate_update"):
            assert tracker.category_of(phase) is PhaseCategory.STRUCTURE

    def test_song_tracker_categories(self):
        tracker = CycleTracker(1)
        assert tracker.category_of("bulk_distance") is PhaseCategory.DISTANCE
        assert (tracker.category_of("candidates_locating")
                is PhaseCategory.STRUCTURE)
        assert (tracker.category_of("structures_updating")
                is PhaseCategory.STRUCTURE)


class TestTake:
    def test_total_only_report_cannot_be_sliced(self):
        with pytest.raises(SearchError, match="per-query distance"):
            _report().take([0])

    def test_take_selects_lanes_and_recounts_distances(self):
        report = _report()
        report.ids[:] = np.arange(4)[:, None]
        report.lane_distance_computations = np.array([10, 20, 30, 40])
        assert report.take([1]).lane_distance_evaluations is None
        report.lane_distance_evaluations = np.array([4, 5, 6, 7])
        taken = report.take([2, 2, 0])
        assert taken.n_queries == 3
        assert np.array_equal(taken.ids[:, 0], [2, 2, 0])
        assert taken.n_distance_computations == 70
        assert np.array_equal(taken.lane_distance_computations,
                              [30, 30, 10])
        assert np.array_equal(taken.lane_distance_evaluations, [6, 6, 4])
        assert taken.tracker.lane_cycles().shape == (3,)
        assert (taken.n_threads, taken.shared_mem_bytes) == (32, 1024)

