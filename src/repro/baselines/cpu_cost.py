"""Single-core CPU timing model for the construction baselines.

Tables II and III compare GPU construction against *single-thread* CPU
construction (GraphCon_NSW from the SONG repository, GraphCon_HNSW from
nmslib) on a Xeon Gold 6238R at 2.2 GHz.  Re-running those C++ codes is out
of scope here, so the CPU baselines in this package count their abstract
operations (distance computations, heap operations, hash probes, adjacency
insertions) and this model prices the counts in seconds.

The model's one free parameter — the *effective* scalar throughput of the
distance loop — is calibrated to the paper's measured 355 s for SIFT1M NSW
construction (~355 us per insertion at 128 dims, d_min=16, d_max=32), which
corresponds to roughly 1.6 GFLOP/s sustained: a plausible figure for a
cache-miss-bound scalar C++ inner loop on that part.  All baselines share
the model, so every reported *ratio* is structural.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CpuOpCounters:
    """Abstract operation counts of one CPU-side run.

    Attributes:
        n_distances: Full point-to-point distance evaluations.
        n_heap_ops: Priority-queue pushes/pops (binary-heap steps).
        n_hash_probes: Visited-set membership checks/inserts.
        n_adjacency_inserts: Sorted adjacency-row insertions.
    """

    n_distances: int = 0
    n_heap_ops: int = 0
    n_hash_probes: int = 0
    n_adjacency_inserts: int = 0


@dataclass(frozen=True)
class CpuModel:
    """Timing model of one CPU core.

    Attributes:
        name: Display name.
        clock_ghz: Core clock (documentation; folded into the throughputs).
        effective_flops: Sustained FLOP/s of the distance inner loop,
            including its memory stalls.
        heap_op_ns: One binary-heap push/pop step.
        hash_probe_ns: One hash-table probe/insert.
        adjacency_insert_ns: One sorted fixed-row insertion (binary search
            plus the element shift).
    """

    name: str = "Intel Xeon Gold 6238R (single thread, modeled)"
    clock_ghz: float = 2.2
    effective_flops: float = 1.6e9
    heap_op_ns: float = 25.0
    hash_probe_ns: float = 15.0
    adjacency_insert_ns: float = 60.0

    def distance_seconds(self, n_distances: int, flops_per_distance: int) -> float:
        """Seconds spent on ``n_distances`` distance evaluations."""
        return n_distances * flops_per_distance / self.effective_flops

    def seconds(self, counters: CpuOpCounters, flops_per_distance: int) -> float:
        """Total modeled seconds for a counted run.

        Args:
            counters: Operation counts collected by a CPU baseline.
            flops_per_distance: FLOPs of one distance at the workload's
                dimensionality (ask the metric via
                :meth:`repro.metrics.distance.Metric.flops_per_distance`).
        """
        total = self.distance_seconds(counters.n_distances,
                                      flops_per_distance)
        total += counters.n_heap_ops * self.heap_op_ns * 1e-9
        total += counters.n_hash_probes * self.hash_probe_ns * 1e-9
        total += counters.n_adjacency_inserts * self.adjacency_insert_ns * 1e-9
        return total


DEFAULT_CPU = CpuModel()
"""The paper's evaluation CPU, single-threaded."""
