"""Graph anatomy: why NSW navigates, why KNN graphs strand, what pruning buys.

A structural tour of the proximity graphs this library builds, using
the analysis toolkit (`repro.graphs.analysis`):

1. build an NSW graph (GGraphCon) and a pure KNN graph (NN-Descent)
   over the same points,
2. compare their long-link fractions and hop distances — the
   small-world property NSW has and KNN graphs lack (Section II-B's
   short-range/long-range link distinction),
3. apply diversity pruning and show the recall-per-budget effect,
4. print each construction phase as a bar chart.

Run it with::

    python examples/graph_anatomy.py
"""

from __future__ import annotations

from repro import BuildParams, SearchParams, ganns_search, load_dataset, \
    recall_at_k
from repro.bench.report import format_phase_bars
from repro.core.construction import build_nsw_gpu
from repro.core.knng import build_knn_graph_gpu
from repro.graphs.analysis import navigability_report
from repro.graphs.pruning import prune_diversify, pruning_stats


def describe(name, graph):
    report = navigability_report(graph)
    print(f"\n{name}:")
    print(f"  out-degree {report.degrees.out_mean:.1f} mean / "
          f"{report.degrees.out_max} max; in-degree skew "
          f"{report.degrees.in_degree_skew:.1f}")
    print(f"  long links (>4x median length): "
          f"{report.long_link_fraction:.1%}")
    print(f"  mean hops from entry: {report.mean_hops_from_entry:.1f}; "
          f"unreachable: {report.unreachable_fraction:.1%}")
    print(f"  neighborhood overlap: {report.neighborhood_overlap:.2f}")
    return report


def main() -> None:
    dataset = load_dataset("sift1m", n_points=4000, n_queries=300)
    ground_truth = dataset.ground_truth(10)
    params = BuildParams(d_min=16, d_max=32, n_blocks=64)

    nsw_report = build_nsw_gpu(dataset.points, params)
    nsw = nsw_report.graph
    knn = build_knn_graph_gpu(dataset.points, k=16, params=params).graph

    nsw_anatomy = describe("NSW (GGraphCon)", nsw)
    knn_anatomy = describe("KNN graph (NN-Descent)", knn)
    print(f"\nthe navigability gap: NSW carries "
          f"{nsw_anatomy.long_link_fraction:.1%} long links vs the KNN "
          f"graph's {knn_anatomy.long_link_fraction:.1%} — those are the "
          f"small-world shortcuts greedy search rides across clusters")

    # Pruning: drop redundant same-direction edges.  At a fixed explored
    # budget some recall is traded away; what you buy is cheaper
    # iterations (fewer distances per exploration) and a 3x smaller
    # graph — compare the trade at matched throughput, not matched e.
    pruned = prune_diversify(nsw, dataset.points, alpha=1.0, min_degree=8)
    stats = pruning_stats(nsw, pruned)
    print(f"\ndiversity pruning kept {stats['kept_fraction']:.1%} of "
          f"edges (mean degree {stats['mean_degree_before']:.1f} -> "
          f"{stats['mean_degree_after']:.1f})")
    for e in (8, 16, 32):
        search = SearchParams(k=10, l_n=64, e=e)
        raw = recall_at_k(ganns_search(nsw, dataset.points,
                                       dataset.queries, search).ids,
                          ground_truth)
        slim = recall_at_k(ganns_search(pruned, dataset.points,
                                        dataset.queries, search).ids,
                           ground_truth)
        print(f"  e={e:>3}: recall {raw:.3f} (raw) vs {slim:.3f} (pruned)")

    print("\nGGraphCon phase times:")
    print(format_phase_bars(nsw_report.phase_seconds, width=30))


if __name__ == "__main__":
    main()
