"""Scalability — dataset-size sweep (evaluation goal (4) of Section V).

The paper demonstrates scalability by including 3M/8M/10M-point datasets
(UQ_V, DEEP, SIFT10M) in every table; this bench makes the size axis
explicit on one distribution: the SIFT stand-in at 2x steps.  Expected
shape: recall at a fixed budget degrades only slowly with n, search
throughput declines gently (longer walks), and construction time grows
roughly linearly in n.
"""

from __future__ import annotations

import numpy as np

from repro.bench.report import format_table
from repro.core.params import SearchParams
from repro.core.ganns import ganns_search
from repro.datasets.catalog import load_dataset
from repro.metrics.recall import recall_at_k

SIZES = (2000, 4000, 8000)


def test_scalability_dataset_size(config, build, graph_of, emit,
                                  benchmark, cdevice):
    rows = []
    recalls = []
    qps_values = []
    build_seconds = []
    for n in SIZES:
        dataset = load_dataset("sift1m", n_points=n,
                               n_queries=config.n_queries)
        params = config.build_params()
        graph = graph_of(dataset, params)
        timing = build(dataset, params, "ggc-ganns", cdevice)
        report = ganns_search(graph, dataset.points, dataset.queries,
                              SearchParams(k=config.k, l_n=128, e=96))
        recall = recall_at_k(report.ids, dataset.ground_truth(config.k))
        recalls.append(recall)
        qps_values.append(report.queries_per_second())
        build_seconds.append(timing.seconds)
        rows.append([n, recall, qps_values[-1], timing.seconds])

    table = format_table(
        ["n", "recall (l_n=128,e=96)", "queries/s", "build (s)"], rows,
        title="Scalability: SIFT stand-in size sweep")
    growth = build_seconds[-1] / build_seconds[0]
    table += (f"\nbuild-time growth over 4x points: {growth:.1f}x "
              f"(near-linear expected); recall drift: "
              f"{max(recalls) - min(recalls):.3f}")
    emit("scalability_size", table)

    # Recall at a fixed budget degrades gracefully, not off a cliff.
    assert min(recalls) > max(recalls) - 0.35
    # Construction scales sub-quadratically.
    assert growth < 4.0 * 2.5
    # Throughput declines with n but stays the same order of magnitude.
    assert qps_values[-1] > qps_values[0] / 10

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
