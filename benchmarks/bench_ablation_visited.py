"""Ablation — visited-marking strategies (the Section III-A argument).

The paper rejects the bitmap ("high latency of the random memory
accesses ... and the limited on-chip memory") and notes the bloom
filter's accuracy hazard before SONG settles on the open-addressing
hash — and GANNS then removes the structure entirely via lazy check.
This benchmark runs SONG under all three strategies plus GANNS and
shows the quantitative version of that argument.
"""

from __future__ import annotations

from repro.baselines.song import SongParams, song_search
from repro.baselines.visited import Bitmap
from repro.bench.report import format_table
from repro.core.ganns import ganns_search
from repro.core.params import SearchParams
from repro.gpusim.device import QUADRO_P5000
from repro.metrics.recall import recall_at_k


def test_ablation_visited_strategies(config, graph_of, datasets, emit,
                                     benchmark):
    dataset = datasets["sift1m"]
    graph = graph_of(dataset, config.build_params())
    ground_truth = dataset.ground_truth(config.k)

    rows = []
    qps = {}
    for strategy in ("hash", "bloom", "bitmap"):
        report = song_search(graph, dataset.points, dataset.queries,
                             SongParams(k=config.k, pq_bound=64,
                                        visited_strategy=strategy))
        qps[strategy] = report.queries_per_second()
        rows.append([f"song/{strategy}",
                     recall_at_k(report.ids, ground_truth),
                     qps[strategy], report.structure_fraction()])

    deleting = song_search(graph, dataset.points, dataset.queries,
                           SongParams(k=config.k, pq_bound=64,
                                      visited_deletion=True))
    qps["hash+deletion"] = deleting.queries_per_second()
    rows.append(["song/hash+deletion (fixed 2k H)",
                 recall_at_k(deleting.ids, ground_truth),
                 qps["hash+deletion"], deleting.structure_fraction()])

    ganns = ganns_search(graph, dataset.points, dataset.queries,
                         SearchParams(k=config.k, l_n=64))
    qps["ganns"] = ganns.queries_per_second()
    rows.append(["ganns/lazy-check",
                 recall_at_k(ganns.ids, ground_truth),
                 qps["ganns"], ganns.structure_fraction()])

    table = format_table(
        ["variant", "recall", "queries/s", "structure share"], rows,
        title="Ablation: visited-marking strategies (sift1m)")
    bitmap_mem = Bitmap(n_vertices=1_000_000).memory_bytes()
    table += (f"\nbitmap at the paper's 1M-point scale: {bitmap_mem:,} B "
              f"per query block — vs {QUADRO_P5000.shared_mem_per_block_bytes:,} B "
              f"of shared memory (Section III-A's objection)")
    emit("ablation_visited", table)

    # The paper's ranking: hash beats bitmap; lazy check beats them all.
    assert qps["hash"] > qps["bitmap"]
    assert qps["ganns"] > qps["hash"]

    benchmark.pedantic(
        song_search, args=(graph, dataset.points, dataset.queries[:50],
                           SongParams(k=config.k, pq_bound=64,
                                      visited_strategy="bitmap")),
        rounds=1, iterations=1)
