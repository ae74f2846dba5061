"""Table II — NSW construction vs single-thread CPU, all ten datasets.

For each Table I stand-in: modeled single-thread CPU construction time
(GraphCon_NSW), simulated GGraphCon_GANNS and GGraphCon_SONG times, and
their speedups, printed next to the paper's reported values.  Absolute
seconds differ (the stand-ins are smaller); the shape to reproduce is the
speedup structure — GGC_GANNS in the tens-x over CPU on every dataset and
consistently ahead of GGC_SONG.
"""

from __future__ import annotations

from repro.bench.figures import PAPER_TABLE2, PAPER_TABLE2_SPEEDUP_BAND
from repro.bench.report import format_table
from repro.bench.workloads import ALL_DATASETS


def test_table2_nsw_construction(config, build, datasets, emit, benchmark,
                                  cdevice):
    params = config.build_params()
    rows = []
    ganns_speedups = {}
    for name in ALL_DATASETS:
        dataset = datasets[name]
        cpu = build(dataset, params, "cpu-nsw", cdevice)
        ganns = build(dataset, params, "ggc-ganns", cdevice)
        song = build(dataset, params, "ggc-song", cdevice)
        ganns_speedup = cpu.seconds / ganns.seconds
        song_speedup = cpu.seconds / song.seconds
        ganns_speedups[name] = ganns_speedup
        paper = PAPER_TABLE2[name]
        rows.append([
            name, dataset.n_points,
            cpu.seconds,
            f"{ganns.seconds:.2f} ({ganns_speedup:.0f}x)",
            f"{song.seconds:.2f} ({song_speedup:.0f}x)",
            f"{paper['cpu']:.0f}s",
            f"{paper['cpu'] / paper['ggc_ganns']:.0f}x",
            f"{paper['cpu'] / paper['ggc_song']:.0f}x",
        ])

    table = format_table(
        ["dataset", "n", "cpu (s)", "ggc_ganns", "ggc_song",
         "paper cpu", "paper ganns", "paper song"], rows,
        title="Table II: NSW construction vs single-thread CPU")
    lo, hi = PAPER_TABLE2_SPEEDUP_BAND
    measured_lo = min(ganns_speedups.values())
    measured_hi = max(ganns_speedups.values())
    table += (f"\nGGC_GANNS speedup range: {measured_lo:.0f}-"
              f"{measured_hi:.0f}x (paper: {lo:g}-{hi:g}x across datasets,"
              f" 40-50x on most)")
    emit("table2_nsw", table)

    for name, speedup in ganns_speedups.items():
        assert speedup > 3.0, f"{name}: GPU construction must win clearly"

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
