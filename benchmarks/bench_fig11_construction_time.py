"""Figure 11 — NSW construction time across schemes.

Compares GGraphCon_GANNS, GGraphCon_SONG and GNaiveParallel (and, on the
SIFT1M stand-in, GSerial — the paper quotes its 3810 s against
GGraphCon's 8.5 s in the text).  Expected shape:

- GGraphCon_GANNS is the fastest GGraphCon variant (2-3.3x over
  GGraphCon_SONG on regular datasets, 1.4-2.2x on hard ones);
- GNaiveParallel only slightly outperforms GGraphCon_SONG — the
  merge-phase bookkeeping is cheap;
- GSerial is catastrophically slower.
"""

from __future__ import annotations

import pytest

from repro.bench.figures import PAPER_GGC_KERNEL_SPEEDUP
from repro.bench.report import format_table
from repro.bench.workloads import bench_datasets
from repro.datasets.catalog import DATASET_SPECS

DATASETS = bench_datasets()


@pytest.mark.parametrize("name", DATASETS)
def test_fig11_construction_time(name, config, build, datasets, emit,
                                 benchmark, cdevice):
    dataset = datasets[name]
    params = config.build_params()

    ganns = build(dataset, params, "ggc-ganns", cdevice)
    song = build(dataset, params, "ggc-song", cdevice)
    naive = build(dataset, params, "naive", cdevice)

    rows = [
        ["ggraphcon_ganns", ganns.seconds],
        ["ggraphcon_song", song.seconds],
        ["gnaiveparallel(song)", naive.seconds],
    ]
    kernel_speedup = song.seconds / ganns.seconds
    hard = DATASET_SPECS[name].hard
    lo, hi = PAPER_GGC_KERNEL_SPEEDUP["hard" if hard else "regular"]

    lines = [format_table(
        ["scheme", "simulated seconds"], rows,
        title=f"Figure 11 [{name}]: NSW construction time "
              f"(n={dataset.n_points}, d_max={params.d_max})")]
    lines.append(
        f"GGC_GANNS over GGC_SONG: {kernel_speedup:.2f}x "
        f"(paper band for {'hard' if hard else 'regular'} datasets: "
        f"{lo:g}-{hi:g}x)")
    lines.append(
        f"GNaiveParallel vs GGC_SONG: "
        f"{song.seconds / naive.seconds:.2f}x faster "
        f"(paper: 'only slightly outperforms')")

    if name == "sift1m":
        serial = build(dataset, params, "serial", cdevice)
        lines.append(
            f"GSerial: {serial.seconds:.1f} s — "
            f"{serial.seconds / ganns.seconds:.0f}x slower than "
            f"GGC_GANNS (paper: 3810 s vs 8.5 s ≈ 448x)")
        assert serial.seconds / ganns.seconds > 10

    emit(f"fig11_{name}", "\n".join(lines))

    if hard:
        # On hard/high-dimensional stand-ins GANNS's lazy recomputation
        # is inflated by the small scale; near-parity is the honest
        # outcome (the paper reports 1.4-2.2x at full scale).
        assert kernel_speedup > 0.7
    else:
        assert kernel_speedup > 1.2, \
            "the GANNS kernel must accelerate construction"
    assert naive.seconds < song.seconds, \
        "naive parallel must be slightly faster given the same kernel"

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
