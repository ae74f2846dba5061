"""A tour of the simulated-GPU substrate.

The reproduction's substrate is a SIMT execution/cost model; this example
walks through the pieces the search kernels are made of, so you can see
what "running on the virtual GPU" means:

1. the warp steps (``shfl_down`` distance reduction, ``ballot``/``ffs``
   candidate locating) priced by the cost table,
2. the bitonic sort and merge networks of the candidate update,
3. a kernel launch turning per-block cycles into wall time via the
   occupancy model,
4. the PCIe transfer model behind the paper's "data transfer is
   negligible" remark,
5. the per-phase cost formulas from the paper's complexity table.

Run it with::

    python examples/gpu_cost_model_tour.py
"""

from __future__ import annotations

from repro.gpusim import (
    DEFAULT_COSTS,
    KernelLaunch,
    QUADRO_P5000,
    TransferModel,
)


def main() -> None:
    device = QUADRO_P5000
    costs = DEFAULT_COSTS
    print(f"device: {device.name}: {device.num_sms} SMs x "
          f"{device.cores_per_sm} cores @ {device.clock_ghz} GHz")

    # 1a. A 32-lane warp computes one 128-dim squared distance: each lane
    # accumulates 4 dimensions, then log2(32) = 5 shfl_down steps fold
    # the partial sums — GANNS phase (3).
    print(f"\nwarp distance (d=128, 32 lanes): "
          f"{costs.distance_compute_cycles(128, 32):.0f} cycles "
          f"(one lane alone: {costs.distance_compute_cycles(128, 1):.0f})")

    # 1b. Candidate locating: ballot over the explored flags, ffs picks
    # the first unexplored pool slot — GANNS phase (1).
    print(f"candidate locating over l_n=64 flags: "
          f"{costs.ganns_candidate_locate_cycles(64, 32):.0f} cycles")

    # 2. Bitonic sort of a 32-entry neighbor buffer by (distance, id),
    # then the bitonic merge of it into a 64-entry pool — phases (5)/(6).
    print(f"bitonic sort of l_t=32: {costs.ganns_sort_cycles(32, 32):.0f} "
          f"cycles; merge into l_n=64: "
          f"{costs.ganns_merge_cycles(64, 32, 32):.0f} cycles")

    # 3. Kernel launch: 2000 one-warp blocks, 100k cycles each.
    kernel = KernelLaunch(device, n_threads=32)
    result = kernel.run(100_000.0, n_blocks=2000)
    print(f"\nlaunch: 2000 blocks, concurrency {result.concurrency}, "
          f"makespan {result.makespan_cycles:,.0f} cycles -> "
          f"{result.seconds * 1e3:.2f} ms "
          f"({kernel.queries_per_second(result):,.0f} queries/s)")

    # 4. The Section III-B remark, quantified.
    transfer = TransferModel(device)
    round_trip = transfer.round_trip_seconds(2000, 128, 100)
    print(f"PCIe round trip for that batch (k=100): "
          f"{round_trip * 1e3:.3f} ms — "
          f"{round_trip / result.seconds:.1%} of the kernel time, and "
          f"fully hidden by stream overlap")

    # 5. The per-iteration cost table (Section III-C).
    print("\nper-iteration cycles at l_n=64, l_t=32, n_d=128:")
    for n_t in (4, 8, 16, 32):
        structure = costs.ganns_structure_cycles(64, 32, n_t)
        distance = costs.bulk_distance_cycles(32, 128, n_t)
        song_structure = (costs.song_locate_cycles(32, 64)
                          + costs.song_update_cycles(16, 64))
        print(f"  n_t={n_t:>2}: GANNS structure {structure:>7.0f}  "
              f"distance {distance:>7.0f}  |  SONG structure "
              f"{song_structure:>7.0f} (host thread, does not scale)")


if __name__ == "__main__":
    main()
