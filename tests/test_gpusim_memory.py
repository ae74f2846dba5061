"""Tests for shared-memory budgets, the PCIe transfer model and the
cluster network model."""

import pytest

from repro.errors import ConstructionError, DeviceError
from repro.gpusim.device import QUADRO_P5000
from repro.gpusim.memory import (
    POOL_ENTRY_BYTES,
    NetworkModel,
    SharedMemoryBudget,
    TransferModel,
)


class TestSharedMemoryBudget:
    def test_ganns_block_footprint(self):
        # GANNS: N + T pools only; query is register-staged.
        budget = SharedMemoryBudget(l_n=128, l_t=32)
        assert budget.total_bytes() == (128 + 32) * POOL_ENTRY_BYTES

    def test_song_block_footprint_includes_query_and_scratch(self):
        budget = SharedMemoryBudget(l_n=0, l_t=0, query_dims=128,
                                    scratch_entries=32)
        assert budget.total_bytes() == 128 * 4 + 32 * 8

    def test_validate_passes_for_paper_settings(self):
        budget = SharedMemoryBudget(l_n=128, l_t=32)
        assert budget.validate(QUADRO_P5000) == budget.total_bytes()

    def test_validate_rejects_oversized_block(self):
        budget = SharedMemoryBudget(l_n=4096 * 2, l_t=32)
        with pytest.raises(DeviceError, match="exceeds"):
            budget.validate(QUADRO_P5000)

    def test_ganns_uses_less_shared_memory_than_song(self):
        """Section III-C: GANNS avoids auxiliary buffers and register-
        stages the query, consuming less shared memory per block for
        typical settings on a high-dimensional dataset."""
        ganns = SharedMemoryBudget(l_n=64, l_t=32)
        song = SharedMemoryBudget(l_n=0, l_t=0, query_dims=960,
                                  scratch_entries=32)
        assert ganns.total_bytes() < song.total_bytes()


class TestTransferModel:
    @pytest.fixture()
    def model(self):
        return TransferModel(QUADRO_P5000)

    def test_transfer_seconds_has_latency_floor(self, model):
        assert model.transfer_seconds(0) == pytest.approx(10e-6)

    def test_transfer_scales_with_bytes(self, model):
        one_gb = model.transfer_seconds(10 ** 9)
        assert one_gb == pytest.approx(10e-6 + 0.1, rel=1e-6)

    def test_negative_bytes_rejected(self, model):
        with pytest.raises(DeviceError, match="non-negative"):
            model.transfer_seconds(-1)

    def test_paper_remark_result_size(self, model):
        """Section III-B remark: 2000 queries at k=100 produce about 1 MB
        of results, negligible against ~10 GB/s."""
        n_bytes = model.result_download_bytes(2000, 100)
        assert 1_000_000 <= n_bytes <= 2_000_000
        assert model.transfer_seconds(n_bytes) < 1e-3

    def test_round_trip_includes_both_directions(self, model):
        up = model.transfer_seconds(model.query_upload_bytes(2000, 128))
        down = model.transfer_seconds(model.result_download_bytes(2000, 10))
        assert model.round_trip_seconds(2000, 128, 10) == pytest.approx(
            up + down)

    def test_overlap_hides_transfer_behind_compute(self, model):
        assert model.overlappable(1e-3, 5e-3) == 0.0
        assert model.overlappable(5e-3, 1e-3) == pytest.approx(4e-3)

    def test_transfer_negligible_vs_search(self, model):
        """The paper's practicality claim: transfer cost is minor compared
        with querying.  A 2000-query batch's round trip must be well under
        the ~4 ms the calibrated search spends."""
        round_trip = model.round_trip_seconds(2000, 128, 10)
        assert round_trip < 0.5 * 4.3e-3


class TestNetworkModel:
    def test_network_model_validation(self):
        with pytest.raises(ConstructionError):
            NetworkModel(bandwidth_gbps=0)
        with pytest.raises(ConstructionError):
            NetworkModel(latency_ms=-1)
