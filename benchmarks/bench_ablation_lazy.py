"""Ablation — the two lazy strategies that define GANNS.

Not a paper figure, but the design choices DESIGN.md calls out:

1. *Lazy check* (phase 4) on vs off: without the duplicate guard,
   re-discovered vertices flood the pool and recall collapses at the same
   budget, while distance work balloons.
2. *Lazy update vs eager queues*: GANNS's sorted-pool maintenance vs
   SONG's host-thread queue updates under the same cost model — the
   per-iteration structure-cycle gap that powers every speedup in the
   evaluation.
"""

from __future__ import annotations

from repro.baselines.song import SongParams, song_search
from repro.bench.report import format_table
from repro.core.ganns import ganns_search
from repro.core.params import SearchParams
from repro.gpusim.costs import DEFAULT_COSTS
from repro.gpusim.tracker import PhaseCategory
from repro.metrics.recall import recall_at_k


def test_ablation_lazy_check(config, graph_of, datasets, emit, benchmark):
    dataset = datasets["sift1m"]
    graph = graph_of(dataset, config.build_params())
    ground_truth = dataset.ground_truth(config.k)
    search = SearchParams(k=config.k, l_n=64)

    with_check = ganns_search(graph, dataset.points, dataset.queries,
                              search)
    without = ganns_search(graph, dataset.points, dataset.queries,
                           search, lazy_check=False)

    rows = [
        ["lazy check ON", recall_at_k(with_check.ids, ground_truth),
         with_check.n_distance_computations,
         with_check.queries_per_second()],
        ["lazy check OFF", recall_at_k(without.ids, ground_truth),
         without.n_distance_computations,
         without.queries_per_second()],
    ]
    table = format_table(
        ["variant", "recall", "distances computed", "queries/s"], rows,
        title="Ablation: GANNS phase (4) lazy check on/off (sift1m)")
    emit("ablation_lazy_check", table)

    assert rows[0][1] > rows[1][1] + 0.2, \
        "removing lazy check must collapse recall at fixed budget"

    benchmark.pedantic(
        ganns_search, args=(graph, dataset.points, dataset.queries,
                            search),
        kwargs={"lazy_check": False}, rounds=1, iterations=1)


def test_ablation_lazy_update_vs_eager_queue(config, graph_of, datasets,
                                             emit, benchmark):
    dataset = datasets["sift1m"]
    graph = graph_of(dataset, config.build_params())

    ganns = ganns_search(graph, dataset.points, dataset.queries,
                         SearchParams(k=config.k, l_n=64))
    song = song_search(graph, dataset.points, dataset.queries,
                       SongParams(k=config.k, pq_bound=64))

    def per_iteration(report):
        total_iters = max(float(report.iterations.sum()), 1.0)
        totals = report.tracker.category_totals()
        return (totals.get(PhaseCategory.STRUCTURE, 0.0) / total_iters,
                totals.get(PhaseCategory.DISTANCE, 0.0) / total_iters)

    g_struct, g_dist = per_iteration(ganns)
    s_struct, s_dist = per_iteration(song)
    rows = [
        ["ganns (lazy update)", g_struct, g_dist],
        ["song (eager queues)", s_struct, s_dist],
    ]
    table = format_table(
        ["variant", "structure cycles/iter", "distance cycles/iter"],
        rows,
        title="Ablation: lazy update vs eager queue maintenance (sift1m)")
    theory = DEFAULT_COSTS.ganns_structure_cycles(64, graph.d_max, 32)
    table += (f"\nGANNS analytic structure cycles/iteration: {theory:.0f} "
              f"(matches the charged average)")
    emit("ablation_lazy_update", table)

    assert s_struct / g_struct > 3.0, \
        "eager host-thread queues must cost several times more per " \
        "iteration"

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
