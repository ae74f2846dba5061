"""Figure 6 — throughput (queries/s) vs recall, GANNS vs SONG, k = 10.

For each dataset stand-in: build the NSW graph (GGraphCon, d_max=32,
d_min=16 — the paper's defaults), sweep each algorithm's accuracy knob,
print the two curves, and compare the GANNS-over-SONG speedup at recall
0.8 against the paper's band.  On the SIFT1M stand-in the absolute GANNS
throughput at recall ~0.795 is also compared with the paper's quoted
458.5k queries/s (the calibration point).

Run the full ten-dataset version with ``REPRO_BENCH_FULL=1``.
"""

from __future__ import annotations

import pytest

from repro.bench.figures import PAPER_FIG6
from repro.bench.report import format_table, speedup_band_note
from repro.bench.runner import qps_at_recall, sweep
from repro.bench.workloads import bench_datasets

DATASETS = bench_datasets()
TARGET_RECALL = 0.8


@pytest.mark.parametrize("name", DATASETS)
def test_fig06_throughput_vs_recall(name, config, graph_of, datasets, emit,
                                    benchmark):
    dataset = datasets[name]
    params = config.build_params()
    graph = graph_of(dataset, params)

    ganns_curve = sweep(graph, dataset, config.k, "ganns",
                        config.ganns_settings)
    song_curve = sweep(graph, dataset, config.k, "song",
                       config.song_settings)

    rows = []
    for point in ganns_curve:
        rows.append(["ganns", f"l_n={point.setting[0]} e={point.setting[1]}",
                     point.recall, point.qps])
    for point in song_curve:
        rows.append(["song", f"pq={point.setting[0]}", point.recall,
                     point.qps])

    ganns_at = qps_at_recall(ganns_curve, TARGET_RECALL)
    song_at = qps_at_recall(song_curve, TARGET_RECALL)
    speedup = ganns_at / song_at if song_at else float("inf")
    paper = PAPER_FIG6[name]

    lines = [format_table(
        ["algo", "setting", "recall", "queries/s"], rows,
        title=f"Figure 6 [{name}]: throughput vs recall "
              f"(k={config.k}, n={dataset.n_points})")]
    note = speedup_band_note(paper.speedup_low - 2.0,
                             paper.speedup_high + 2.0, speedup)
    lines.append(
        f"GANNS/SONG speedup @ recall {TARGET_RECALL}: {speedup:.2f}x "
        f"({note}; paper reports "
        f"~{paper.speedup_low:g}-{paper.speedup_high:g}x)")
    if paper.ganns_qps:
        measured = qps_at_recall(ganns_curve, paper.recall)
        lines.append(
            f"GANNS throughput @ recall {paper.recall}: {measured:,.0f} "
            f"queries/s (paper: {paper.ganns_qps:,.0f})")
    emit(f"fig06_{name}", "\n".join(lines))

    assert speedup > 1.0, "GANNS must outperform SONG at matched recall"
    best_recall = max(p.recall for p in ganns_curve)
    assert best_recall > 0.7, "sweep must reach a usable recall range"

    # pytest-benchmark hook: time one mid-budget GANNS batch.
    l_n, e = config.ganns_settings[2]
    from repro.core.ganns import ganns_search
    from repro.core.params import SearchParams
    benchmark.pedantic(
        ganns_search, args=(graph, dataset.points, dataset.queries,
                            SearchParams(k=config.k, l_n=l_n, e=e)),
        rounds=1, iterations=1)
