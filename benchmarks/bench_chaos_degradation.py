"""Ablation: graceful degradation vs reject-only under overload + faults.

This is not a paper figure — the paper benchmarks fault-free offline
throughput (Section V).  It is an ablation of the fault-tolerance layer
(docs/fault_model.md): the same overloaded trace, the same injected
fault plan, replayed twice — once with the admission governor stepping
search quality down through its tiers under pressure, once with the
PR-1 reject-only baseline.

The table shows the trade: the governor converts rejections into
explicitly-marked degraded answers (higher completion rate), and the
quality given up is visible per tier as recall against exact ground
truth rather than hidden behind a binary served/rejected split.
"""

from __future__ import annotations

import pytest

from repro.baselines.nsw_cpu import build_nsw_cpu
from repro.bench.report import format_table
from repro.core.ganns import ganns_search
from repro.core.params import SearchParams
from repro.datasets.catalog import load_dataset
from repro.datasets.ground_truth import exact_knn
from repro.faults import AdmissionGovernor, named_fault_plan
from repro.metrics.recall import recall_at_k
from repro.serve import BatchPolicy, ServeEngine, synthetic_trace

N_REQUESTS = 4000
MEAN_QPS = 1_000_000.0  # sustained overload: arrivals outrun the device
PARAMS = SearchParams(k=10, l_n=64)


@pytest.fixture(scope="module")
def chaos_setup():
    dataset = load_dataset("sift1m", n_points=1500, n_queries=400)
    graph = build_nsw_cpu(dataset.points, d_min=8, d_max=16).graph
    trace = synthetic_trace(dataset.queries, N_REQUESTS,
                            mean_qps=MEAN_QPS, repeat_fraction=0.1,
                            seed=7)
    plan = named_fault_plan(
        "mild", horizon_seconds=2.0 * N_REQUESTS / MEAN_QPS, seed=3)
    return dataset, graph, trace, plan


def _replay(setup, governor):
    dataset, graph, trace, plan = setup
    policy = BatchPolicy(max_batch=128, max_wait_seconds=5e-4,
                         max_queue=256)
    engine = ServeEngine(graph, dataset.points, PARAMS, policy=policy,
                         faults=plan, governor=governor)
    return engine.replay(trace)


def test_degradation_vs_rejection(chaos_setup, emit, benchmark):
    dataset, graph, _, _ = chaos_setup
    governor = AdmissionGovernor.default_for(PARAMS)
    governed = _replay(chaos_setup, governor)
    baseline = _replay(chaos_setup, None)

    rows = []
    for mode, report in (("governor", governed),
                         ("reject-only", baseline)):
        tiers = report.per_tier_counts()
        rows.append([
            mode,
            f"{report.completion_rate:.1%}",
            report.n_served, report.n_rejected, report.n_failed,
            ", ".join(f"t{t}: {n}" for t, n in sorted(tiers.items())),
            report.p95_latency * 1e3,
        ])
    table_a = format_table(
        ["mode", "completed", "served", "rejected", "failed",
         "served per tier", "p95 ms"],
        rows,
        title=f"Graceful degradation vs rejection "
              f"({N_REQUESTS} requests @ {MEAN_QPS:,.0f}/s, "
              f"queue cap 256, plan 'mild')")

    # Per-tier recall against exact ground truth over the query pool:
    # what each degradation step actually costs in answer quality.
    truth = exact_knn(dataset.points, dataset.queries, PARAMS.k)
    recall_rows = []
    for tier in sorted(governed.per_tier_counts()):
        tier_params = governor.params_for(tier, PARAMS)
        found = ganns_search(graph, dataset.points, dataset.queries,
                             tier_params)
        recall_rows.append([
            f"tier {tier}", tier_params.l_n, tier_params.e,
            f"{recall_at_k(found.ids, truth):.3f}",
            governed.per_tier_counts()[tier],
        ])
    table_b = format_table(
        ["tier", "l_n", "e", f"recall@{PARAMS.k}", "requests served"],
        recall_rows,
        title="Per-tier recall (the quality the governor trades away)")

    emit("chaos_degradation", table_a + "\n\n" + table_b)

    # Degradation strictly beats rejection on completion under overload.
    assert governed.completion_rate > baseline.completion_rate
    assert governed.n_rejected < baseline.n_rejected
    # The baseline never degrades; the governor visibly does.
    assert baseline.n_degraded == 0
    assert governed.n_degraded > 0

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
