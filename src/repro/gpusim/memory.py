"""Memory-side models: shared-memory budgets and data links.

Two concerns from the paper live here, plus the cluster interconnect:

- Section III-C argues GANNS keeps per-block shared memory small (``N`` and
  ``T`` only) to preserve occupancy, and stages vectors in registers.
  :class:`SharedMemoryBudget` computes the footprint of a search block and
  validates it against the device limits.
- The "Remarks" of Section III-B argue CPU-GPU transfer is negligible
  relative to querying (~1 MB of results for 2000 queries at k=100 against
  ~10 GB/s of PCIe 3.0 x16 bandwidth).  :class:`TransferModel` quantifies
  that claim so the benchmark suite can reproduce it.
- :class:`NetworkModel` prices the same ``latency + bytes / bandwidth``
  link between cluster workers: the scatter/gather of
  :mod:`repro.cluster.engine` and the repair lane of
  :mod:`repro.heal.controller`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.params import as_finite
from repro.errors import ConstructionError, DeviceError
from repro.gpusim.device import DeviceSpec


#: Bytes of one pool/buffer entry: float32 distance + int32 vertex id +
#: int32 explored flag (flags are packed into a word for alignment).
POOL_ENTRY_BYTES = 12

#: Bytes of one float32 feature-vector element.
FLOAT_BYTES = 4

#: Bytes of one int32 vertex id in an adjacency row.
ID_BYTES = 4


@dataclass(frozen=True)
class SharedMemoryBudget:
    """Shared-memory footprint of one GANNS search block.

    Attributes:
        l_n: Length of the result/candidate pool ``N``.
        l_t: Length of the neighbor buffer ``T`` (= ``d_max``).
        query_dims: Dimensions of the query vector, or 0 when the query is
            register-staged (the GANNS choice; SONG keeps it in shared
            memory).
        scratch_entries: Extra scratch entries (SONG's ``cand``/``dist``
            auxiliary arrays; 0 for GANNS).
    """

    l_n: int
    l_t: int
    query_dims: int = 0
    scratch_entries: int = 0

    def total_bytes(self) -> int:
        """Total shared-memory bytes the block requests."""
        pools = (self.l_n + self.l_t) * POOL_ENTRY_BYTES
        query = self.query_dims * FLOAT_BYTES
        scratch = self.scratch_entries * (FLOAT_BYTES + ID_BYTES)
        return pools + query + scratch

    def validate(self, device: DeviceSpec) -> int:
        """Check the footprint against the device's per-block limit.

        Returns:
            The footprint in bytes, for convenience.

        Raises:
            DeviceError: If the block would not fit.
        """
        total = self.total_bytes()
        if total > device.shared_mem_per_block_bytes:
            raise DeviceError(
                f"block shared-memory footprint {total} B exceeds the device "
                f"limit of {device.shared_mem_per_block_bytes} B "
                f"(l_n={self.l_n}, l_t={self.l_t})"
            )
        return total


@dataclass(frozen=True)
class TransferModel:
    """Host-device transfer timing over the PCIe link.

    A transfer of ``n`` bytes costs ``latency + n / bandwidth``.  The
    :meth:`overlappable` helper reflects the paper's point that CUDA streams
    let transfer overlap with kernel execution, so the *exposed* transfer
    cost of a pipelined workload is what exceeds the compute time.
    """

    device: DeviceSpec

    def transfer_seconds(self, n_bytes: int) -> float:
        """Wall time to move ``n_bytes`` across PCIe, one direction."""
        if n_bytes < 0:
            raise DeviceError(f"transfer size must be non-negative, got {n_bytes}")
        bandwidth = self.device.pcie_bandwidth_gbps * 1e9
        return self.device.pcie_latency_us * 1e-6 + n_bytes / bandwidth

    def query_upload_bytes(self, n_queries: int, n_dims: int) -> int:
        """Bytes uploaded for one batch of float32 query vectors."""
        return n_queries * n_dims * FLOAT_BYTES

    def result_download_bytes(self, n_queries: int, k: int) -> int:
        """Bytes downloaded for one batch of results (id + distance)."""
        return n_queries * k * (ID_BYTES + FLOAT_BYTES)

    def round_trip_seconds(self, n_queries: int, n_dims: int, k: int) -> float:
        """Upload queries + download results for one batch."""
        up = self.transfer_seconds(self.query_upload_bytes(n_queries, n_dims))
        down = self.transfer_seconds(self.result_download_bytes(n_queries, k))
        return up + down

    def overlappable(self, transfer_seconds: float,
                     compute_seconds: float) -> float:
        """Exposed transfer time once stream overlap hides it behind compute."""
        return max(0.0, transfer_seconds - compute_seconds)


@dataclass(frozen=True)
class NetworkModel:
    """Point-to-point cluster network.

    Attributes:
        bandwidth_gbps: Link bandwidth in gigabytes per second.
        latency_ms: One-way message latency in milliseconds.
    """

    bandwidth_gbps: float = 1.25   # ~10 GbE
    latency_ms: float = 0.05       # datacenter RTT/2

    def __post_init__(self) -> None:
        if as_finite(self.bandwidth_gbps, "bandwidth_gbps",
                     ConstructionError) <= 0:
            raise ConstructionError(
                f"bandwidth must be positive, got {self.bandwidth_gbps}"
            )
        if as_finite(self.latency_ms, "latency_ms",
                     ConstructionError) < 0:
            raise ConstructionError(
                f"latency must be non-negative, got {self.latency_ms}"
            )

    def transfer_seconds(self, n_bytes: float) -> float:
        """One message of ``n_bytes``: latency + serialization."""
        return (self.latency_ms * 1e-3
                + n_bytes / (self.bandwidth_gbps * 1e9))

    def broadcast_seconds(self, n_bytes: float, n_workers: int) -> float:
        """Binomial-tree broadcast to ``n_workers`` receivers."""
        if n_workers <= 0:
            return 0.0
        rounds = max(int(np.ceil(np.log2(n_workers + 1))), 1)
        return rounds * self.transfer_seconds(n_bytes)

    def gather_seconds(self, n_bytes_total: float,
                       n_workers: int) -> float:
        """Gather of ``n_bytes_total`` spread over the workers."""
        if n_workers <= 0:
            return 0.0
        rounds = max(int(np.ceil(np.log2(n_workers + 1))), 1)
        return (rounds * self.latency_ms * 1e-3
                + n_bytes_total / (self.bandwidth_gbps * 1e9))
