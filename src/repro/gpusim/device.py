"""Simulated GPU device specifications.

A :class:`DeviceSpec` captures the handful of hardware parameters that the
paper's complexity analysis and our cost model depend on: the number of
streaming multiprocessors (SMs), how many threads and blocks an SM can host
concurrently, warp width, clock rate, shared-memory capacity, and the PCIe
bandwidth used in the paper's data-transfer remarks.

The preset :data:`QUADRO_P5000` models the NVIDIA Quadro P5000 used in the
paper's evaluation (2560 CUDA cores across 20 SMs, 16 GB of device memory,
PCI Express 3.0 x16).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class DeviceSpec:
    """Hardware parameters of a simulated SIMT device.

    Attributes:
        name: Human-readable device name.
        num_sms: Number of streaming multiprocessors.
        cores_per_sm: CUDA cores per SM (determines peak ALU throughput).
        warp_size: Threads per warp; the SIMT execution granularity.
        clock_ghz: Core clock in GHz used to convert cycles to seconds.
        max_threads_per_sm: Resident-thread limit per SM (occupancy bound).
        max_blocks_per_sm: Resident-block limit per SM (occupancy bound).
        max_threads_per_block: Largest legal block size.
        shared_mem_per_sm_bytes: Shared memory capacity per SM.
        shared_mem_per_block_bytes: Shared memory limit for a single block.
        register_file_per_sm_bytes: Register-file size per SM.  The paper
            (Section III-C) highlights the register file as the largest SRAM
            on chip, around 256 KB per SM, and deliberately stages query and
            point vectors there.
        global_mem_bytes: Device (global) memory capacity.
        pcie_bandwidth_gbps: Host-device transfer bandwidth in GB/s.
        pcie_latency_us: Fixed per-transfer latency in microseconds.
    """

    name: str
    num_sms: int
    cores_per_sm: int
    warp_size: int
    clock_ghz: float
    max_threads_per_sm: int
    max_blocks_per_sm: int
    max_threads_per_block: int
    shared_mem_per_sm_bytes: int
    shared_mem_per_block_bytes: int
    register_file_per_sm_bytes: int
    global_mem_bytes: int
    pcie_bandwidth_gbps: float
    pcie_latency_us: float

    def __post_init__(self) -> None:
        positive_fields = (
            "num_sms",
            "cores_per_sm",
            "warp_size",
            "clock_ghz",
            "max_threads_per_sm",
            "max_blocks_per_sm",
            "max_threads_per_block",
            "shared_mem_per_sm_bytes",
            "shared_mem_per_block_bytes",
            "register_file_per_sm_bytes",
            "global_mem_bytes",
            "pcie_bandwidth_gbps",
        )
        for field_name in positive_fields:
            value = getattr(self, field_name)
            if value <= 0:
                raise ConfigurationError(
                    f"DeviceSpec.{field_name} must be positive, got {value!r}"
                )
        if self.pcie_latency_us < 0:
            raise ConfigurationError(
                f"DeviceSpec.pcie_latency_us must be non-negative, "
                f"got {self.pcie_latency_us!r}"
            )
        if self.warp_size & (self.warp_size - 1):
            raise ConfigurationError(
                f"DeviceSpec.warp_size must be a power of two, "
                f"got {self.warp_size}"
            )
        if self.max_threads_per_block % self.warp_size:
            raise ConfigurationError(
                "DeviceSpec.max_threads_per_block must be a multiple of the "
                f"warp size ({self.warp_size}), got {self.max_threads_per_block}"
            )
        if self.shared_mem_per_block_bytes > self.shared_mem_per_sm_bytes:
            raise ConfigurationError(
                "DeviceSpec.shared_mem_per_block_bytes cannot exceed "
                "shared_mem_per_sm_bytes"
            )

    @property
    def total_cores(self) -> int:
        """Total CUDA cores on the device."""
        return self.num_sms * self.cores_per_sm

    @property
    def clock_hz(self) -> float:
        """Core clock in Hz."""
        return self.clock_ghz * 1e9

    def concurrent_blocks(self, threads_per_block: int,
                          shared_mem_per_block: int = 0) -> int:
        """Number of thread blocks the device can run concurrently.

        This is the occupancy calculation: per SM, residency is limited by
        the thread budget, the block-slot budget, and (if the kernel uses
        shared memory) the shared-memory budget.  The device-wide figure is
        the per-SM figure times the SM count.

        Args:
            threads_per_block: Threads launched per block.
            shared_mem_per_block: Bytes of shared memory each block uses.

        Returns:
            The number of blocks resident at once, at least 1 per SM grid.

        Raises:
            ConfigurationError: If the block shape is not launchable at all.
        """
        if threads_per_block <= 0:
            raise ConfigurationError(
                f"threads_per_block must be positive, got {threads_per_block}"
            )
        if threads_per_block > self.max_threads_per_block:
            raise ConfigurationError(
                f"threads_per_block={threads_per_block} exceeds device limit "
                f"{self.max_threads_per_block}"
            )
        if shared_mem_per_block > self.shared_mem_per_block_bytes:
            raise ConfigurationError(
                f"shared_mem_per_block={shared_mem_per_block} exceeds device "
                f"limit {self.shared_mem_per_block_bytes}"
            )
        by_threads = self.max_threads_per_sm // threads_per_block
        by_slots = self.max_blocks_per_sm
        per_sm = min(by_threads, by_slots)
        if shared_mem_per_block > 0:
            by_smem = self.shared_mem_per_sm_bytes // shared_mem_per_block
            per_sm = min(per_sm, by_smem)
        per_sm = max(per_sm, 1)
        return per_sm * self.num_sms

    def with_overrides(self, **kwargs) -> "DeviceSpec":
        """Return a copy of this spec with some fields replaced."""
        return replace(self, **kwargs)


QUADRO_P5000 = DeviceSpec(
    name="NVIDIA Quadro P5000 (simulated)",
    num_sms=20,
    cores_per_sm=128,
    warp_size=32,
    clock_ghz=1.607,
    max_threads_per_sm=2048,
    max_blocks_per_sm=32,
    max_threads_per_block=1024,
    shared_mem_per_sm_bytes=96 * 1024,
    shared_mem_per_block_bytes=48 * 1024,
    register_file_per_sm_bytes=256 * 1024,
    global_mem_bytes=16 * 1024 ** 3,
    pcie_bandwidth_gbps=10.0,
    pcie_latency_us=10.0,
)
"""The paper's evaluation GPU: 2560 cores / 20 SMs, 16 GB, PCIe 3.0 x16."""

