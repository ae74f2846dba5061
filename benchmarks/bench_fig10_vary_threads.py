"""Figure 10 — effect of threads-per-block n_t on SIFT1M.

The paper varies n_t from 4 to 32 and reports, per algorithm, the
distance-computation time and the data-structure-operation time:

- distance time improves ~4x for both (100 ms -> 24 ms);
- GANNS structure time improves ~6x (71 ms -> 12.3 ms);
- SONG structure time does not improve at all — the host thread.
"""

from __future__ import annotations

from repro.baselines.song import SongParams, song_search
from repro.bench.figures import PAPER_FIG10
from repro.bench.report import format_table
from repro.core.ganns import ganns_search
from repro.core.params import SearchParams
from repro.gpusim.tracker import PhaseCategory

THREADS = (4, 8, 16, 32)


def _category_ms(report):
    seconds = report.category_seconds()
    return (seconds.get(PhaseCategory.DISTANCE, 0.0) * 1e3,
            seconds.get(PhaseCategory.STRUCTURE, 0.0) * 1e3)


def test_fig10_threads_per_block(config, graph_of, datasets, emit,
                                 benchmark):
    dataset = datasets["sift1m"]
    graph = graph_of(dataset, config.build_params())

    rows = []
    ganns_struct = {}
    ganns_dist = {}
    song_struct = {}
    for n_t in THREADS:
        ganns = ganns_search(graph, dataset.points, dataset.queries,
                             SearchParams(k=config.k, l_n=64, e=48,
                                          n_threads=n_t))
        song = song_search(graph, dataset.points, dataset.queries,
                           SongParams(k=config.k, pq_bound=64,
                                      n_threads=n_t))
        g_dist, g_struct = _category_ms(ganns)
        s_dist, s_struct = _category_ms(song)
        ganns_dist[n_t], ganns_struct[n_t] = g_dist, g_struct
        song_struct[n_t] = s_struct
        rows.append([n_t, g_dist, g_struct, s_dist, s_struct])

    table = format_table(
        ["n_t", "ganns dist (ms)", "ganns struct (ms)",
         "song dist (ms)", "song struct (ms)"], rows,
        title="Figure 10 [sift1m]: per-stage time vs threads per block")
    paper_d = PAPER_FIG10["distance_ms"]
    paper_s = PAPER_FIG10["ganns_structure_ms"]
    table += (f"\npaper: distance {paper_d[4]:g} -> {paper_d[32]:g} ms, "
              f"GANNS structure {paper_s[4]:g} -> {paper_s[32]:g} ms, "
              f"SONG structure flat")
    emit("fig10_sift1m", table)

    # Shapes: both distance and GANNS-structure scale with n_t; SONG
    # structure does not.
    assert ganns_dist[4] / ganns_dist[32] > 2.5
    assert ganns_struct[4] / ganns_struct[32] > 3.0
    assert song_struct[4] / song_struct[32] < 1.3

    benchmark.pedantic(
        ganns_search, args=(graph, dataset.points, dataset.queries,
                            SearchParams(k=config.k, l_n=64, e=48,
                                         n_threads=4)),
        rounds=1, iterations=1)
