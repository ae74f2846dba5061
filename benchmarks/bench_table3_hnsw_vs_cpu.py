"""Table III — HNSW construction vs single-thread CPU, all ten datasets.

Same scheme as Table II, with the HNSW extension of Section IV-D: the GPU
builds each layer with GGraphCon level-by-level (using the ID shuffle);
the CPU baseline is the modeled single-thread GraphCon_HNSW.
"""

from __future__ import annotations

from repro.bench.figures import PAPER_TABLE3
from repro.bench.report import format_table
from repro.bench.workloads import ALL_DATASETS


def test_table3_hnsw_construction(config, build, datasets, emit, benchmark,
                                  cdevice):
    params = config.build_params()
    rows = []
    speedups = {}
    for name in ALL_DATASETS:
        dataset = datasets[name]
        cpu = build(dataset, params, "cpu-hnsw", cdevice)
        ganns = build(dataset, params, "hnsw-ganns", cdevice)
        song = build(dataset, params, "hnsw-song", cdevice)
        ganns_speedup = cpu.seconds / ganns.seconds
        song_speedup = cpu.seconds / song.seconds
        speedups[name] = ganns_speedup
        paper = PAPER_TABLE3[name]
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
        title="Table III: HNSW construction vs single-thread CPU")
    emit("table3_hnsw", table)

    for name, speedup in speedups.items():
        assert speedup > 3.0, f"{name}: GPU HNSW construction must win"

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
