"""Capacity planning: SLO tuning, streamed serving, terminal plots.

Putting the production-facing pieces together: a service owner has a
recall SLO and a query stream, and wants to know (a) the cheapest
search setting that meets the SLO, (b) the sustained throughput when
queries arrive in batches with PCIe transfers overlapped (the paper's
stream remark), and (c) the full trade-off curve at a glance.

Run it with::

    python examples/capacity_planning.py
"""

from __future__ import annotations

from repro import BuildParams, SearchParams, load_dataset, tune_search
from repro.bench.plotting import curve_plot
from repro.bench.runner import sweep
from repro.bench.workloads import DEFAULT_CONFIG
from repro.core.construction import build_nsw_gpu
from repro.core.pipeline import stream_batches

RECALL_SLO = 0.85


def main() -> None:
    dataset = load_dataset("sift1m", n_points=6000, n_queries=400)
    graph = build_nsw_gpu(dataset.points,
                          BuildParams(d_min=16, d_max=32, n_blocks=64)
                          ).graph

    # (a) SLO tuning: binary search over the budget grid.
    result = tune_search(graph, dataset.points, dataset.queries[:200],
                         target_recall=RECALL_SLO, k=10)
    print(f"SLO recall >= {RECALL_SLO}: "
          f"{'met' if result.target_met else 'NOT met'} with "
          f"l_n={result.setting[0]}, e={result.setting[1]} "
          f"(validation recall {result.recall:.3f}, "
          f"{result.qps:,.0f} q/s) after "
          f"{len(result.evaluations)} evaluations")

    # (b) Streamed serving at the chosen setting.
    l_n, e = result.setting
    streamed = stream_batches(graph, dataset.points, dataset.queries,
                              SearchParams(k=10, l_n=l_n, e=e),
                              batch_size=100)
    print(f"\nstreamed {len(dataset.queries)} queries in "
          f"{len(streamed.batches)} batches:")
    print(f"  serial (no overlap):  {streamed.serial_seconds * 1e3:.3f} ms")
    print(f"  double-buffered:      "
          f"{streamed.overlapped_seconds * 1e3:.3f} ms "
          f"({streamed.overlap_saving:.1%} saved — the paper's remark: "
          f"transfer hides behind compute)")
    sustained = len(dataset.queries) / streamed.overlapped_seconds
    print(f"  sustained throughput: {sustained:,.0f} queries/s")

    # (c) The whole trade-off, plotted in the terminal.
    ganns_curve = sweep(graph, dataset, 10, "ganns",
                        DEFAULT_CONFIG.ganns_settings)
    song_curve = sweep(graph, dataset, 10, "song",
                       DEFAULT_CONFIG.song_settings)
    print()
    print(curve_plot({"ganns": ganns_curve, "song": song_curve},
                     width=56, height=14))


if __name__ == "__main__":
    main()
