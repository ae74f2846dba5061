"""Ablation — diversity pruning on top of GGraphCon (extension).

The related-work graphs (DPG, NSG, FANNG, HNSW's heuristic) all prune
NSW-style rows for directional diversity.  This ablation composes that
refinement with the paper's pipeline — build with GGraphCon on the GPU,
prune, search with GANNS — and reports the recall-per-budget gain and
the edge reduction.
"""

from __future__ import annotations

from repro.bench.report import format_table
from repro.core.ganns import ganns_search
from repro.core.params import SearchParams
from repro.graphs.pruning import prune_diversify, pruning_stats
from repro.metrics.recall import recall_at_k


def test_ablation_diversity_pruning(config, graph_of, datasets, emit,
                                    benchmark):
    dataset = datasets["sift1m"]
    ground_truth = dataset.ground_truth(config.k)
    raw = graph_of(dataset, config.build_params())
    pruned = prune_diversify(raw, dataset.points, alpha=1.0,
                             min_degree=8)
    stats = pruning_stats(raw, pruned)

    rows = []
    gains = []
    for e in (8, 16, 32, 64):
        search = SearchParams(k=config.k, l_n=64, e=e)
        raw_report = ganns_search(raw, dataset.points, dataset.queries,
                                  search)
        pruned_report = ganns_search(pruned, dataset.points,
                                     dataset.queries, search)
        raw_recall = recall_at_k(raw_report.ids, ground_truth)
        pruned_recall = recall_at_k(pruned_report.ids, ground_truth)
        gains.append(pruned_recall - raw_recall)
        rows.append([e, raw_recall, pruned_recall,
                     raw_report.queries_per_second(),
                     pruned_report.queries_per_second()])

    table = format_table(
        ["e", "raw recall", "pruned recall", "raw q/s", "pruned q/s"],
        rows,
        title="Ablation: diversity pruning over GGraphCon (sift1m)")
    table += (f"\nedges kept: {stats['kept_fraction']:.1%} "
              f"(mean degree {stats['mean_degree_before']:.1f} -> "
              f"{stats['mean_degree_after']:.1f}); pruning trades some "
              f"recall at a fixed e for much cheaper iterations — "
              f"compare throughput at matched recall")
    emit("ablation_pruning", table)

    assert stats["kept_fraction"] < 1.0
    # The trade: every budget gets faster...
    for row in rows:
        assert row[4] > row[3], "pruned iterations must be cheaper"
    # ...and recall does not collapse.
    assert min(gains) > -0.25

    benchmark.pedantic(
        prune_diversify, args=(raw, dataset.points),
        kwargs={"alpha": 1.0, "min_degree": 8}, rounds=1, iterations=1)
