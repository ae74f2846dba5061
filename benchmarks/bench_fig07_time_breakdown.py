"""Figure 7 — execution-time breakdown at recall ≈ 0.8.

For each dataset, pick the operating point of each algorithm nearest
recall 0.8 and split its simulated time into distance computation vs
data-structure operations.  The paper's headline: SONG spends 50-90% on
structure operations; GANNS's structure share is much smaller (and a bit
higher on the hard datasets, which keep more candidates alive).
"""

from __future__ import annotations

import pytest

from repro.bench.figures import PAPER_FIG7_SONG_STRUCTURE_SHARE
from repro.bench.report import format_table
from repro.bench.runner import closest_point, sweep
from repro.bench.workloads import bench_datasets
from repro.gpusim.tracker import PhaseCategory

DATASETS = bench_datasets()
TARGET_RECALL = 0.8


@pytest.mark.parametrize("name", DATASETS)
def test_fig07_breakdown(name, config, graph_of, datasets, emit, benchmark):
    dataset = datasets[name]
    graph = graph_of(dataset, config.build_params())

    ganns_curve = sweep(graph, dataset, config.k, "ganns",
                        config.ganns_settings)
    song_curve = sweep(graph, dataset, config.k, "song",
                       config.song_settings)
    ganns_point = closest_point(ganns_curve, TARGET_RECALL)
    song_point = closest_point(song_curve, TARGET_RECALL)

    rows = []
    for label, point in (("ganns", ganns_point), ("song", song_point)):
        seconds = point.report.category_seconds()
        distance = seconds.get(PhaseCategory.DISTANCE, 0.0)
        structure = seconds.get(PhaseCategory.STRUCTURE, 0.0)
        total = distance + structure
        rows.append([label, point.recall, distance * 1e3, structure * 1e3,
                     structure / total if total else 0.0])

    table = format_table(
        ["algo", "recall", "distance (ms)", "structure (ms)",
         "structure share"], rows,
        title=f"Figure 7 [{name}]: time breakdown near recall "
              f"{TARGET_RECALL}")
    lo, hi = PAPER_FIG7_SONG_STRUCTURE_SHARE
    song_share = rows[1][4]
    ganns_share = rows[0][4]
    table += (f"\nSONG structure share {song_share:.2f} "
              f"(paper band: {lo:.2f}-{hi:.2f}+); "
              f"GANNS structure share {ganns_share:.2f}")
    emit(f"fig07_{name}", table)

    assert song_share > 0.5, "SONG must be structure-dominated"
    assert ganns_share < song_share, \
        "GANNS must shift the balance toward distance computation"

    from repro.baselines.song import SongParams, song_search
    benchmark.pedantic(
        song_search, args=(graph, dataset.points, dataset.queries[:100],
                           SongParams(k=config.k,
                                      pq_bound=song_point.setting[0])),
        rounds=1, iterations=1)
