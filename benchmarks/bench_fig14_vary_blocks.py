"""Figure 14 — construction-time scaling with the number of thread blocks.

The paper builds the SIFT1M NSW graph with 50 to 800 thread blocks
(16x more) and reports ~10-13x speedup for both the distance-computation
and the data-structure components of both GGraphCon variants — close to,
but below, the theoretical 16x, because group imbalance and the serial
merge order leave gaps.
"""

from __future__ import annotations

import pytest

from repro.bench.figures import PAPER_FIG14_SPEEDUP
from repro.bench.report import format_table
from repro.gpusim.tracker import PhaseCategory

BLOCKS = (4, 8, 16, 32, 64)


@pytest.mark.parametrize("kernel", ["ganns", "song"])
def test_fig14_thread_blocks(kernel, config, build, datasets, emit,
                             benchmark, cdevice):
    dataset = datasets["sift1m"]

    rows = []
    times = {}
    for n_blocks in BLOCKS:
        params = config.build_params(n_blocks=n_blocks)
        report = build(dataset, params, f"ggc-{kernel}", cdevice)
        split = report.category_seconds
        times[n_blocks] = (report.seconds,
                           split.get(PhaseCategory.DISTANCE, 0.0),
                           split.get(PhaseCategory.STRUCTURE, 0.0))
        rows.append([n_blocks, *times[n_blocks]])

    speedup, dist_speedup, struct_speedup = (
        first / last for first, last in zip(times[BLOCKS[0]],
                                            times[BLOCKS[-1]]))
    lo, hi = PAPER_FIG14_SPEEDUP

    table = format_table(
        ["n_blocks", "total (s)", "distance (s)", "structure (s)"], rows,
        title=f"Figure 14 [sift1m, ggc_{kernel}]: construction vs blocks "
              f"(scaled device, {BLOCKS[0]}..{BLOCKS[-1]} blocks ~ paper 50..800)")
    table += (f"\n{BLOCKS[0]} -> {BLOCKS[-1]} blocks (16x): total {speedup:.1f}x, distance "
              f"{dist_speedup:.1f}x, structure {struct_speedup:.1f}x "
              f"(paper: ~{lo:g}-{hi:g}x; theoretical 16x)")
    emit(f"fig14_{kernel}", table)

    assert speedup > 3.0, "block scaling must pay off substantially"
    assert speedup < 16.5, "cannot beat the theoretical maximum"
    # Monotone improvement across the sweep.
    seconds = [times[b][0] for b in BLOCKS]
    assert all(a >= b for a, b in zip(seconds, seconds[1:]))

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
