"""Tests for the single-core CPU timing model."""

import pytest

from repro.baselines.cpu_cost import CpuModel, CpuOpCounters, DEFAULT_CPU


class TestCounters:
    def test_default_zero(self):
        c = CpuOpCounters()
        assert c.n_distances == 0


class TestCpuModel:
    def test_distance_seconds(self):
        model = CpuModel(effective_flops=1e9)
        assert model.distance_seconds(1000, 1000) == pytest.approx(1e-3)

    def test_seconds_combines_all_costs(self):
        model = CpuModel(effective_flops=1e9, heap_op_ns=10,
                         hash_probe_ns=10, adjacency_insert_ns=10)
        counters = CpuOpCounters(n_distances=0, n_heap_ops=100,
                                 n_hash_probes=100,
                                 n_adjacency_inserts=100)
        assert model.seconds(counters, 384) == pytest.approx(3e-6)

    def test_calibration_magnitude(self):
        """The model must price one SIFT-like NSW insertion near the
        paper's measured 355 us (355 s / 1M points).  A typical insertion:
        ~50 beam iterations, ~1500 distances at 128 dims, ~3000 heap ops,
        ~1600 hash probes, 32 adjacency inserts."""
        counters = CpuOpCounters(n_distances=1500, n_heap_ops=3000,
                                 n_hash_probes=1600,
                                 n_adjacency_inserts=32)
        seconds = DEFAULT_CPU.seconds(counters, flops_per_distance=3 * 128)
        assert 150e-6 < seconds < 800e-6

    def test_distance_work_dominates(self):
        """Distance computation consumes over 95% of CPU search time
        (the SONG paper's premise, quoted in Section II-D)."""
        counters = CpuOpCounters(n_distances=1500, n_heap_ops=3000,
                                 n_hash_probes=1600,
                                 n_adjacency_inserts=32)
        total = DEFAULT_CPU.seconds(counters, flops_per_distance=3 * 128)
        distance = DEFAULT_CPU.distance_seconds(1500, 3 * 128)
        assert distance / total > 0.7
