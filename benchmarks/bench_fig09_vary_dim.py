"""Figure 9 — effect of dimensionality n_d on GIST at recall ≈ 0.8.

The paper truncates GIST from 960 down to 60 dimensions and finds the
GANNS-over-SONG speedup grows from ~1.5x to ~6x as dimensionality drops:
distance computation shrinks, so SONG's serialized structure operations
dominate ever harder while GANNS parallelizes them away.
"""

from __future__ import annotations

from repro.bench.figures import PAPER_FIG9
from repro.bench.report import format_table
from repro.bench.runner import qps_at_recall, sweep

DIMS = (960, 480, 240, 120, 60)
TARGET_RECALL = 0.8


def test_fig09_dimensionality(config, graph_of, datasets, emit, benchmark):
    base = datasets["gist"]

    rows = []
    speedups = {}
    for n_dims in DIMS:
        view = base.truncate_dims(n_dims)
        graph = graph_of(view, config.build_params())
        ganns_curve = sweep(graph, view, config.k, "ganns",
                            config.ganns_settings)
        song_curve = sweep(graph, view, config.k, "song",
                           config.song_settings)
        ganns_at = qps_at_recall(ganns_curve, TARGET_RECALL)
        song_at = qps_at_recall(song_curve, TARGET_RECALL)
        speedups[n_dims] = ganns_at / song_at
        rows.append([n_dims, ganns_at, song_at,
                     f"{speedups[n_dims]:.2f}x"])

    table = format_table(
        ["n_d", "ganns qps@0.8", "song qps@0.8", "speedup"], rows,
        title="Figure 9 [gist]: effect of dimensionality at recall 0.8")
    table += (f"\npaper: speedup grows from ~{PAPER_FIG9[960]:g}x at 960 "
              f"dims to ~{PAPER_FIG9[60]:g}x at 60 dims")
    emit("fig09_gist", table)

    # The paper's shape: lower dimensionality -> larger speedup.
    assert speedups[60] > speedups[960], \
        "speedup must grow as dimensionality shrinks"
    assert speedups[60] / speedups[960] > 1.5

    from repro.core.ganns import ganns_search
    from repro.core.params import SearchParams
    view = base.truncate_dims(60)
    benchmark.pedantic(
        ganns_search, args=(graph_of(view, config.build_params()),
                            view.points, view.queries,
                            SearchParams(k=config.k, l_n=64)),
        rounds=1, iterations=1)
