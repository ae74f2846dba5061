"""Tests for the simulated device specification and occupancy rules."""

import pytest

from repro.errors import ConfigurationError
from repro.gpusim.device import QUADRO_P5000


class TestDeviceSpecValidation:
    def test_preset_is_valid(self):
        assert QUADRO_P5000.total_cores == 2560
        assert QUADRO_P5000.num_sms == 20
        assert QUADRO_P5000.warp_size == 32

    def test_clock_hz(self):
        assert QUADRO_P5000.clock_hz == pytest.approx(1.607e9)

    @pytest.mark.parametrize("field", [
        "num_sms", "cores_per_sm", "warp_size", "clock_ghz",
        "max_threads_per_sm", "shared_mem_per_sm_bytes",
        "pcie_bandwidth_gbps",
    ])
    def test_rejects_non_positive_fields(self, field):
        with pytest.raises(ConfigurationError, match=field):
            QUADRO_P5000.with_overrides(**{field: 0})

    def test_rejects_negative_pcie_latency(self):
        with pytest.raises(ConfigurationError, match="pcie_latency"):
            QUADRO_P5000.with_overrides(pcie_latency_us=-1.0)

    def test_rejects_non_pow2_warp(self):
        with pytest.raises(ConfigurationError, match="power of two"):
            QUADRO_P5000.with_overrides(warp_size=24)

    def test_rejects_block_not_multiple_of_warp(self):
        with pytest.raises(ConfigurationError, match="multiple"):
            QUADRO_P5000.with_overrides(max_threads_per_block=100)

    def test_rejects_block_smem_above_sm_smem(self):
        with pytest.raises(ConfigurationError, match="cannot exceed"):
            QUADRO_P5000.with_overrides(
                shared_mem_per_block_bytes=QUADRO_P5000.shared_mem_per_sm_bytes
                + 1)

    def test_with_overrides_returns_new_spec(self):
        other = QUADRO_P5000.with_overrides(num_sms=10)
        assert other.num_sms == 10
        assert QUADRO_P5000.num_sms == 20


class TestOccupancy:
    def test_thread_limited(self):
        # 2048 threads/SM at 128 threads/block -> 16 blocks/SM, 20 SMs.
        assert QUADRO_P5000.concurrent_blocks(128) == 16 * 20

    def test_slot_limited(self):
        # 32 threads/block would allow 64 by threads but slots cap at 32.
        assert QUADRO_P5000.concurrent_blocks(32) == 32 * 20

    def test_shared_memory_limited(self):
        blocks = QUADRO_P5000.concurrent_blocks(32,
                                                shared_mem_per_block=24 * 1024)
        # 96 KB / 24 KB = 4 blocks per SM.
        assert blocks == 4 * 20

    def test_zero_shared_memory_ignores_smem_bound(self):
        assert (QUADRO_P5000.concurrent_blocks(64, 0)
                == QUADRO_P5000.concurrent_blocks(64))

    def test_rejects_oversized_block(self):
        with pytest.raises(ConfigurationError, match="exceeds device limit"):
            QUADRO_P5000.concurrent_blocks(2048)

    def test_rejects_oversized_shared_memory(self):
        with pytest.raises(ConfigurationError, match="exceeds"):
            QUADRO_P5000.concurrent_blocks(32, 64 * 1024)

    def test_rejects_non_positive_threads(self):
        with pytest.raises(ConfigurationError, match="positive"):
            QUADRO_P5000.concurrent_blocks(0)

    def test_at_least_one_block_per_sm(self):
        # A maximal block still runs, one per SM.
        spec = QUADRO_P5000
        assert spec.concurrent_blocks(1024) >= spec.num_sms
