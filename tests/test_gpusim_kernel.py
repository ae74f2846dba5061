"""Tests for kernel-launch scheduling and cycle-to-time conversion."""

import heapq
from collections import defaultdict

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.gpusim.costs import DEFAULT_COSTS
from repro.gpusim.device import QUADRO_P5000
from repro.gpusim.kernel import KernelLaunch, _makespan


class TestMakespan:
    def test_fits_in_one_wave(self):
        cycles = np.array([5.0, 3.0, 4.0])
        assert _makespan(cycles, concurrency=8) == 5.0

    def test_uniform_blocks_closed_form(self):
        cycles = np.full(10, 2.0)
        # 10 blocks over 4 slots -> 3 waves of 2 cycles.
        assert _makespan(cycles, concurrency=4) == 6.0

    def test_lpt_packing(self):
        cycles = np.array([4.0, 3.0, 2.0, 1.0])
        # Two slots: LPT gives {4,1} and {3,2} -> makespan 5.
        assert _makespan(cycles, concurrency=2) == 5.0

    def test_empty_grid(self):
        assert _makespan(np.zeros(0), concurrency=4) == 0.0

    def test_makespan_bounds(self):
        rng = np.random.default_rng(0)
        cycles = rng.uniform(1, 100, size=57)
        concurrency = 8
        result = _makespan(cycles, concurrency)
        lower = max(cycles.max(), cycles.sum() / concurrency)
        assert lower <= result <= cycles.sum()


class TestKernelLaunch:
    def test_concurrency_from_occupancy(self):
        """The device keeps ``concurrent_blocks`` blocks resident: that
        many run in one wave, one more queues behind them."""
        kernel = KernelLaunch(QUADRO_P5000, n_threads=32)
        c = QUADRO_P5000.concurrent_blocks(32)
        assert kernel.run(100.0, n_blocks=c).concurrency == c
        assert kernel.run(100.0, n_blocks=c).makespan_cycles == 100.0
        assert kernel.run(100.0, n_blocks=c + 1).makespan_cycles == 200.0

    def test_sub_warp_block_occupies_full_warp_slot(self):
        """A 4-thread block still takes a warp slot: Figure 10's n_t sweep
        changes per-block speed, not device-level concurrency."""
        small = KernelLaunch(QUADRO_P5000, n_threads=4)
        full = KernelLaunch(QUADRO_P5000, n_threads=32)
        assert (small.run(1.0, n_blocks=1).concurrency
                == full.run(1.0, n_blocks=1).concurrency)

    def test_run_scalar_cycles(self):
        kernel = KernelLaunch(QUADRO_P5000, n_threads=32)
        result = kernel.run(1000.0, n_blocks=10)
        assert result.n_blocks == 10
        assert result.total_cycles == 10_000.0
        assert result.makespan_cycles == 1000.0

    def test_run_vector_cycles(self):
        kernel = KernelLaunch(QUADRO_P5000, n_threads=32)
        result = kernel.run(np.array([100.0, 200.0]))
        assert result.n_blocks == 2
        assert result.makespan_cycles == 200.0

    def test_scalar_requires_n_blocks(self):
        kernel = KernelLaunch(QUADRO_P5000)
        with pytest.raises(ConfigurationError, match="n_blocks"):
            kernel.run(100.0)

    def test_vector_n_blocks_mismatch_rejected(self):
        kernel = KernelLaunch(QUADRO_P5000)
        with pytest.raises(ConfigurationError, match="disagrees"):
            kernel.run(np.array([1.0, 2.0]), n_blocks=3)

    def test_negative_cycles_rejected(self):
        kernel = KernelLaunch(QUADRO_P5000)
        with pytest.raises(ConfigurationError, match="non-negative"):
            kernel.run(np.array([-1.0]))

    def test_zero_threads_rejected(self):
        with pytest.raises(ConfigurationError, match="positive"):
            KernelLaunch(QUADRO_P5000, n_threads=0)

    def test_seconds_uses_time_scale(self):
        kernel = KernelLaunch(QUADRO_P5000, n_threads=32)
        seconds = kernel.cycles_to_seconds(1e9)
        expected = 1e9 * DEFAULT_COSTS.time_scale / QUADRO_P5000.clock_hz
        assert seconds == pytest.approx(expected)

    def test_queries_per_second(self):
        kernel = KernelLaunch(QUADRO_P5000, n_threads=32)
        result = kernel.run(1000.0, n_blocks=100)
        qps = kernel.queries_per_second(result)
        assert qps == pytest.approx(100 / result.seconds)

    def test_more_blocks_than_slots_queue(self):
        """Scaling work past device concurrency grows elapsed time
        linearly — the saturation regime of Figure 14."""
        kernel = KernelLaunch(QUADRO_P5000, n_threads=32)
        c = kernel.run(1.0, n_blocks=1).concurrency
        one_wave = kernel.run(100.0, n_blocks=c).seconds
        four_waves = kernel.run(100.0, n_blocks=4 * c).seconds
        assert four_waves == pytest.approx(4 * one_wave)


class TestScheduleBlocks:
    def test_schedule_is_valid_and_matches_makespan(self):
        """Placing every block, longest first, on the earliest-free slot
        gives a valid schedule whose last finish is ``_makespan``."""
        rng = np.random.default_rng(0)
        cycles = rng.uniform(1, 50, size=37)
        concurrency = 5
        slots = [(0.0, slot) for slot in range(concurrency)]
        heapq.heapify(slots)
        placed = []
        for block in np.argsort(cycles)[::-1]:
            start, slot = heapq.heappop(slots)
            end = start + float(cycles[block])
            placed.append((slot, start, end))
            heapq.heappush(slots, (end, slot))
        assert len(placed) == len(cycles)
        by_slot = defaultdict(list)
        for slot, start, end in placed:
            assert 0 <= slot < concurrency
            by_slot[slot].append((start, end))
        # No overlap within a slot.
        for spans in by_slot.values():
            spans.sort()
            for (_, end), (start, _) in zip(spans, spans[1:]):
                assert end <= start + 1e-9
        assert max(end for _, _, end in placed) == pytest.approx(
            _makespan(cycles, concurrency))
