"""Figure 8 — throughput vs the result count k at recall ≈ 0.8.

The paper varies k from 1 to 100 on SIFT1M and GIST and reports that the
GANNS-over-SONG speedup stays roughly stable (5-5.3x on SIFT1M, 1.5-2x on
GIST).  Here the accuracy knobs are retuned per k so both algorithms sit
near the same recall, then the speedups across k are compared.
"""

from __future__ import annotations

import pytest

from repro.bench.figures import PAPER_FIG8
from repro.bench.report import format_table
from repro.bench.runner import qps_at_recall, sweep

K_VALUES = (1, 10, 50, 100)
TARGET_RECALL = 0.8


@pytest.mark.parametrize("name", ["sift1m", "gist"])
def test_fig08_vary_k(name, config, graph_of, datasets, emit, benchmark):
    dataset = datasets[name]
    graph = graph_of(dataset, config.build_params())

    rows = []
    speedups = []
    for k in K_VALUES:
        # The pool must hold at least k results; scale settings with k.
        ganns_curve = sweep(graph, dataset, k, "ganns",
                            [s for s in config.ganns_settings if s[0] >= k])
        song_curve = sweep(graph, dataset, k, "song",
                           [s for s in config.song_settings if s[0] >= k])
        ganns_at = qps_at_recall(ganns_curve, TARGET_RECALL)
        song_at = qps_at_recall(song_curve, TARGET_RECALL)
        speedup = ganns_at / song_at
        speedups.append(speedup)
        rows.append([k, ganns_at, song_at, f"{speedup:.2f}x"])

    lo, hi = PAPER_FIG8[name]
    table = format_table(
        ["k", "ganns qps@0.8", "song qps@0.8", "speedup"], rows,
        title=f"Figure 8 [{name}]: throughput vs k at recall "
              f"{TARGET_RECALL}")
    table += (f"\nspeedup range {min(speedups):.2f}-{max(speedups):.2f}x "
              f"(paper: {lo:g}-{hi:g}x)")
    emit(f"fig08_{name}", table)

    assert min(speedups) > 1.0
    # Stability: the spread across k stays within a small factor, as in
    # the paper ("the speedup remains relatively stable as k increases").
    assert max(speedups) / min(speedups) < 3.0

    from repro.core.ganns import ganns_search
    from repro.core.params import SearchParams
    benchmark.pedantic(
        ganns_search, args=(graph, dataset.points, dataset.queries[:100],
                            SearchParams(k=100, l_n=128)),
        rounds=1, iterations=1)
