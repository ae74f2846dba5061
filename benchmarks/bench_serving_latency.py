"""Ablation: serving latency vs throughput across micro-batch windows.

This is not a paper figure — the paper benchmarks offline batched
throughput only (Section V).  It is an ablation of the online serving
layer built on top of the same kernels; see docs/serving.md.

The serving engine's ``max_wait`` knob trades latency for batch size:
a wider window accumulates more queries per kernel launch (higher
device efficiency, fewer launches) at the cost of queue wait on every
request.  This bench replays one Poisson trace at a fixed arrival rate
under a sweep of windows and prints the trade-off curve, plus one row
with the result cache enabled to show what query repetition buys.

The cache-off sweep isolates the scheduler: every request must ride a
dispatched batch, so mean batch size and queue wait are pure functions
of the window.
"""

from __future__ import annotations

import pytest

from repro.baselines.nsw_cpu import build_nsw_cpu
from repro.bench.report import format_table
from repro.core.params import SearchParams
from repro.datasets.catalog import load_dataset
from repro.serve import BatchPolicy, ResultCache, ServeEngine, synthetic_trace

WINDOWS_MS = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
N_REQUESTS = 4000
MEAN_QPS = 50_000.0
MAX_BATCH = 512


@pytest.fixture(scope="module")
def serving_setup():
    dataset = load_dataset("sift1m", n_points=1500, n_queries=400)
    graph = build_nsw_cpu(dataset.points, d_min=8, d_max=16).graph
    params = SearchParams(k=10, l_n=64)
    trace = synthetic_trace(dataset.queries, N_REQUESTS,
                            mean_qps=MEAN_QPS, repeat_fraction=0.3,
                            seed=11)
    return dataset, graph, params, trace


def _replay(setup, window_ms: float, cache_entries: int):
    dataset, graph, params, trace = setup
    policy = BatchPolicy(max_batch=MAX_BATCH,
                         max_wait_seconds=window_ms * 1e-3,
                         max_queue=16_384)
    cache = ResultCache(cache_entries) if cache_entries else None
    engine = ServeEngine(graph, dataset.points, params, policy=policy,
                         cache=cache)
    return engine.replay(trace)


def test_serving_latency_vs_window(serving_setup, emit, benchmark):
    rows = []
    reports = []
    for window_ms in WINDOWS_MS:
        report = _replay(serving_setup, window_ms, cache_entries=0)
        reports.append(report)
        rows.append([f"{window_ms:g} ms", report.n_batches,
                     report.mean_batch_size,
                     report.p50_latency * 1e3, report.p95_latency * 1e3,
                     report.p99_latency * 1e3, report.qps,
                     f"{report.gpu_utilisation:.1%}"])
    cached = _replay(serving_setup, 1.0, cache_entries=4096)
    rows.append(["1 ms + cache", cached.n_batches,
                 cached.mean_batch_size,
                 cached.p50_latency * 1e3, cached.p95_latency * 1e3,
                 cached.p99_latency * 1e3, cached.qps,
                 f"{cached.gpu_utilisation:.1%}"])

    emit("serving_latency", format_table(
        ["window", "batches", "mean batch", "p50 ms", "p95 ms",
         "p99 ms", "queries/s", "gpu busy"],
        rows,
        title=f"Serving latency vs batch window "
              f"({N_REQUESTS} requests @ {MEAN_QPS:,.0f}/s, "
              f"max_batch={MAX_BATCH})"))

    # Wider windows aggregate more queries per dispatch...
    assert reports[-1].mean_batch_size > reports[0].mean_batch_size
    # ...at the price of queue latency on the tail (compared against the
    # narrowest *stable* window — see below for the narrowest one).
    assert reports[-1].p95_latency > reports[1].p95_latency
    # The narrowest window under-batches: per-launch overhead dominates,
    # the device saturates and queueing collapses the latency profile —
    # the reason micro-batching exists at all.
    assert reports[0].gpu_utilisation > 0.95
    assert reports[0].p95_latency > reports[-1].p95_latency
    # Every configuration serves every request (no overload here).
    assert all(r.n_rejected == 0 for r in reports)
    # The cache strictly reduces dispatched work on a repeating trace.
    assert cached.served_queries == reports[2].served_queries
    assert sum(cached.batch_sizes) < sum(reports[2].batch_sizes)

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
