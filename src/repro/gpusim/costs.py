"""Cycle cost tables and per-phase cost formulas.

The paper analyses every phase of both GANNS (Section III-C) and SONG
(Section II-D) in terms of the pool length ``l_n``, the neighbor-buffer
length ``l_t``, the point dimensionality ``n_d`` and the threads-per-block
``n_t``.  This module turns those complexity formulas into cycle counts by
attaching calibrated per-step constants.

Two kinds of constants appear:

- *Microarchitectural* constants (shuffle, ballot, shared-memory access,
  compare-exchange step, global-memory word streaming) with values in the
  range published for Pascal-class GPUs.
- A single *calibration* constant, :attr:`CostTable.time_scale`, applied only
  when cycles are converted to seconds (see :mod:`repro.gpusim.kernel`).  It
  absorbs effects the model does not represent (kernel-launch overhead,
  memory-controller contention, exposed latency) and is fitted once to the
  paper's measured SIFT1M operating point (GANNS, 458.5k queries/s at recall
  0.795).  Both GANNS and SONG — and every construction kernel — share it, so
  every *ratio* the evaluation reports is produced by the model, not by the
  calibration.

All formula helpers return float cycles for a single thread block; batched
callers multiply or vectorise as needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError


def _log2_ceil(n: int) -> int:
    """Smallest ``j`` with ``2**j >= n`` (0 for ``n <= 1``)."""
    if n <= 1:
        return 0
    return int(math.ceil(math.log2(n)))


@dataclass(frozen=True)
class CostTable:
    """Per-operation cycle costs for the simulated device.

    Attributes:
        alu_cycles: One integer/logic instruction per thread.
        fma_cycles: One fused multiply-add per thread.
        shared_access_cycles: One shared-memory read or write.
        mem_word_cycles: Streaming one 4-byte word per thread from global
            memory once the access is pipelined (bandwidth-side cost).
        mem_fixed_cycles: Residual non-hidden latency charged once per
            coalesced vector load.
        shuffle_cycles: One warp shuffle (``__shfl_down_sync`` /
            ``__shfl_xor_sync``) step.
        ballot_cycles: One ``__ballot_sync`` evaluation.
        ffs_cycles: One ``__ffs`` on a 32-bit mask.
        sync_cycles: One ``__syncthreads`` barrier.
        compare_exchange_cycles: One bitonic compare-exchange step including
            its shared-memory traffic and barrier share.
        hash_probe_cycles: One open-addressing hash-table probe performed by
            SONG's host thread (global/local memory traffic dominated).
        heap_op_cycles: One sequential heap sift step on the host thread.
        host_insert_cycles: One host-thread bounded-priority-queue insertion
            step (SONG's data-structures-updating stage).
        time_scale: Cycles-to-seconds calibration multiplier (see module
            docstring).
    """

    alu_cycles: float = 1.0
    fma_cycles: float = 1.0
    shared_access_cycles: float = 3.0
    mem_word_cycles: float = 6.0
    mem_fixed_cycles: float = 8.0
    shuffle_cycles: float = 2.0
    ballot_cycles: float = 2.0
    ffs_cycles: float = 1.0
    sync_cycles: float = 6.0
    compare_exchange_cycles: float = 18.0
    hash_probe_cycles: float = 112.0
    heap_op_cycles: float = 40.0
    host_insert_cycles: float = 88.0
    time_scale: float = 6.3

    def __post_init__(self) -> None:
        for field_name, value in self.__dict__.items():
            if value <= 0:
                raise ConfigurationError(
                    f"CostTable.{field_name} must be positive, got {value!r}"
                )

    # ------------------------------------------------------------------
    # Shared building blocks
    # ------------------------------------------------------------------

    def vector_load_cycles(self, n_dims: int, n_threads: int) -> float:
        """Cost of cooperatively loading one ``n_dims`` float vector.

        The ``n_threads`` threads of the block each stream a contiguous
        sub-vector from global memory into registers (the paper stages both
        the query and candidate vectors in the register file).
        """
        words_per_thread = math.ceil(n_dims / n_threads)
        return words_per_thread * self.mem_word_cycles + self.mem_fixed_cycles

    def distance_compute_cycles(self, n_dims: int, n_threads: int) -> float:
        """Arithmetic cost of one distance once the vectors are loaded.

        Each thread handles ``ceil(n_dims / n_threads)`` dimensions (one
        subtract + one FMA per dimension for squared Euclidean; the dot
        products of cosine cost the same shape), then the warp reduces the
        partial sums with ``log2(n_threads)`` shuffle steps — the
        ``__shfl_down_sync`` aggregation of Section III-B phase (3).
        """
        dims_per_thread = math.ceil(n_dims / n_threads)
        compute = dims_per_thread * (self.alu_cycles + self.fma_cycles)
        reduce = _log2_ceil(n_threads) * self.shuffle_cycles
        return compute + reduce

    def single_distance_cycles(self, n_dims: int, n_threads: int) -> float:
        """Load + compute + reduce for one candidate point."""
        return (self.vector_load_cycles(n_dims, n_threads)
                + self.distance_compute_cycles(n_dims, n_threads))

    def bulk_distance_cycles(self, n_candidates: int, n_dims: int,
                             n_threads: int) -> float:
        """Phase (3) of GANNS / stage 2 of SONG: ``n_candidates`` distances.

        Candidates are processed one after another by the whole block, as in
        the paper: "Distances between vertices in T and q are computed one by
        one."
        """
        if n_candidates <= 0:
            return 0.0
        return n_candidates * self.single_distance_cycles(n_dims, n_threads)

    def adjacency_load_cycles(self, degree: int, n_threads: int) -> float:
        """Cooperative load of one fixed-degree adjacency row (int32 ids)."""
        words_per_thread = math.ceil(max(degree, 1) / n_threads)
        return words_per_thread * self.mem_word_cycles + self.mem_fixed_cycles

    # ------------------------------------------------------------------
    # GANNS per-iteration phases (Section III-B / III-C)
    # ------------------------------------------------------------------

    def ganns_candidate_locate_cycles(self, l_n: int, n_threads: int) -> float:
        """Phase (1): find the first unexplored vertex in ``N``.

        Threads read the ``explored`` flags in parallel, aggregate them with
        ``__ballot_sync`` and select the first set bit with ``__ffs``:
        ``O(l_n / n_t)`` rounds.
        """
        rounds = math.ceil(l_n / n_threads)
        per_round = (self.shared_access_cycles + self.ballot_cycles
                     + self.ffs_cycles + self.sync_cycles)
        return rounds * per_round

    def ganns_explore_cycles(self, l_t: int, n_threads: int) -> float:
        """Phase (2): load the exploring vertex's neighbors into ``T``.

        ``O(l_t / n_t)``: the adjacency row is streamed from global memory
        and the ``explored`` flags in ``T`` are initialised in parallel.
        """
        rounds = math.ceil(l_t / n_threads)
        flag_init = rounds * 2 * self.shared_access_cycles
        return self.adjacency_load_cycles(l_t, n_threads) + flag_init

    def ganns_lazy_check_cycles(self, l_n: int, l_t: int,
                                n_threads: int) -> float:
        """Phase (4): parallel binary search of ``T`` entries against ``N``.

        ``O(log(l_n) * l_t / n_t)``: each thread binary-searches the sorted
        pool ``N`` for one of its assigned ``T`` entries.
        """
        rounds = math.ceil(l_t / n_threads)
        per_probe = _log2_ceil(max(l_n, 2)) * (self.shared_access_cycles
                                               + self.alu_cycles)
        return rounds * per_probe + self.sync_cycles

    def ganns_sort_cycles(self, l_t: int, n_threads: int) -> float:
        """Phase (5): bitonic sort of ``T``.

        ``O(log^2(l_t) * l_t / n_t)`` compare-exchange steps (Batcher's
        network has ``log2(l_t) * (log2(l_t) + 1) / 2`` stages, each touching
        ``l_t / 2`` pairs).
        """
        if l_t <= 1:
            return 0.0
        log_l = _log2_ceil(l_t)
        stages = log_l * (log_l + 1) // 2
        pairs_per_stage = max(l_t // 2, 1)
        rounds_per_stage = math.ceil(pairs_per_stage / n_threads)
        return stages * rounds_per_stage * self.compare_exchange_cycles

    def ganns_merge_cycles(self, l_n: int, l_t: int, n_threads: int) -> float:
        """Phase (6): bitonic merge keeping the ``l_n`` best of ``N ∪ T``.

        ``O(log(l_n) * l_n / n_t)``: merging two sorted sequences with a
        bitonic merger needs ``log2`` stages over the combined length.
        """
        combined = l_n + l_t
        stages = _log2_ceil(max(combined, 2))
        rounds_per_stage = math.ceil(max(combined // 2, 1) / n_threads)
        return stages * rounds_per_stage * self.compare_exchange_cycles

    def ganns_structure_cycles(self, l_n: int, l_t: int,
                               n_threads: int) -> float:
        """All GANNS non-distance phases of one iteration, summed."""
        return (self.ganns_candidate_locate_cycles(l_n, n_threads)
                + self.ganns_explore_cycles(l_t, n_threads)
                + self.ganns_lazy_check_cycles(l_n, l_t, n_threads)
                + self.ganns_sort_cycles(l_t, n_threads)
                + self.ganns_merge_cycles(l_n, l_t, n_threads))

    # ------------------------------------------------------------------
    # SONG per-iteration stages (Section II-D; host-thread serialized)
    # ------------------------------------------------------------------

    def song_locate_cycles(self, degree: int, queue_len: int) -> float:
        """SONG stage 1 on the host thread: ``O(l_t)`` serial work.

        Extract-min from the candidate queue, the termination comparison
        against the worst of ``N``, then one hash probe per neighbor while
        filling ``cand``.  Nothing here divides by ``n_t`` — this is the
        serialization the paper identifies as SONG's bottleneck.
        """
        extract = self.heap_op_cycles * _log2_ceil(max(queue_len, 2))
        probes = degree * (self.hash_probe_cycles + self.alu_cycles)
        return extract + probes + self.alu_cycles

    def song_update_cycles(self, n_inserted: int, queue_len: int) -> float:
        """SONG stage 3 on the host thread: ``O(l_t * log(l_n))`` serial work.

        Each candidate is pushed into the bounded priority queue (a sift of
        ``log2(queue_len)`` host-thread steps) and recorded in the hash
        table.
        """
        sift = _log2_ceil(max(queue_len, 2)) * self.host_insert_cycles
        return n_inserted * (sift + self.hash_probe_cycles)

    # ------------------------------------------------------------------
    # Construction-side kernels (Section IV-C)
    # ------------------------------------------------------------------

    def backward_insert_cycles(self, d_max: int, n_threads: int) -> float:
        """Insert one vertex into a sorted fixed-degree adjacency row.

        Binary-search the position, then shift the tail — ``O(d_max)`` moves
        spread over the block's threads (local-graph-construction Step 2).
        """
        locate = _log2_ceil(max(d_max, 2)) * self.shared_access_cycles
        shift = math.ceil(d_max / n_threads) * 2 * self.shared_access_cycles
        return locate + shift + self.sync_cycles

    def bitonic_sort_cycles(self, n_items: int, n_threads: int) -> float:
        """Sort ``n_items`` records with a bitonic network across a block."""
        if n_items <= 1:
            return 0.0
        log_n = _log2_ceil(n_items)
        stages = log_n * (log_n + 1) // 2
        rounds = math.ceil(max(n_items // 2, 1) / n_threads)
        return stages * rounds * self.compare_exchange_cycles

    def prefix_sum_cycles(self, n_items: int, n_threads: int) -> float:
        """Work-efficient parallel scan over ``n_items`` flags."""
        if n_items <= 1:
            return float(self.alu_cycles)
        stages = 2 * _log2_ceil(n_items)
        rounds = math.ceil(n_items / max(n_threads, 1))
        per_step = self.shared_access_cycles * 2 + self.alu_cycles
        return stages * rounds * per_step

    def adjacency_merge_cycles(self, d_max: int, n_new: int,
                               n_threads: int) -> float:
        """Merge a batch of backward edges into one adjacency row.

        Step 3 of the merge phase: both lists sit in shared memory and a
        bitonic merger keeps the best ``d_max``.
        """
        combined = d_max + max(n_new, 1)
        stages = _log2_ceil(max(combined, 2))
        rounds = math.ceil(max(combined // 2, 1) / n_threads)
        load = self.adjacency_load_cycles(d_max, n_threads)
        return load + stages * rounds * self.compare_exchange_cycles


DEFAULT_COSTS = CostTable()
"""Cost table calibrated to the paper's Quadro P5000 measurements."""
