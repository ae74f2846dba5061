#!/usr/bin/env python
"""CI gate for the quantized staged search (``docs/quantization.md``).

Two halves, both computed in-process:

1. Search a d=256 fixture exactly and through ``quant="pca"``
   (``rerank_factor=1``) and gate the honest accounting:

   - recall@10 within 0.02 of the exact search on the same fixture,
   - byte-deterministic across two seeded runs,
   - a smaller resident footprint than the full-precision vectors.

   Speed is deliberately not gated here: it is the benchmark's
   ``search_highdim_quant`` vs ``search_highdim`` ``throughput``
   (``benchmarks/e2e``).

2. Replay a small quantized serving trace and reconcile the report
   against the live metric registry
   (:meth:`ServeReport.verify_against_metrics`, zero drift allowed):
   the quantized replay must publish ``quant.batches`` and the
   rerank-pool histogram; an exact replay of the same trace must
   publish **no** ``quant.*`` metrics — a quantized result must never
   masquerade as an exact one.

Exits non-zero with a diagnostic otherwise.

    PYTHONPATH=src python scripts/check_quant_smoke.py
"""

from __future__ import annotations

import argparse
import sys


def fixture_row():
    """Exact vs pca-staged search on one d=256 fixture."""
    import numpy as np

    from repro.baselines.nsw_cpu import build_nsw_cpu
    from repro.core.ganns import ganns_search
    from repro.core.params import SearchParams
    from repro.datasets.ground_truth import exact_knn
    from repro.datasets.synthetic import gaussian_mixture
    from repro.metrics.recall import recall_at_k
    from repro.perf.quant import quantize_points

    n, dims, n_queries, k = 3000, 256, 400, 10
    points = gaussian_mixture(n, dims, seed=0).astype(np.float32)
    queries = gaussian_mixture(n_queries, dims, seed=1).astype(np.float32)
    graph = build_nsw_cpu(points, d_min=8, d_max=16).graph
    truth = exact_knn(points, queries, k, graph.metric_name)

    exact = ganns_search(graph, points, queries,
                         SearchParams(k=k, l_n=64))
    staged = SearchParams(k=k, l_n=64, quant="pca", rerank_factor=1)
    quant = ganns_search(graph, points, queries, staged)
    again = ganns_search(graph, points, queries, staged)
    recall_exact = recall_at_k(exact.ids, truth)
    recall_quant = recall_at_k(quant.ids, truth)
    return {
        "deterministic": (quant.ids.tobytes() == again.ids.tobytes()
                          and quant.dists.tobytes()
                          == again.dists.tobytes()),
        "recall_exact": recall_exact,
        "recall_quant": recall_quant,
        "recall_delta": recall_exact - recall_quant,
        "bytes_per_vector_exact": float(points.dtype.itemsize * dims),
        "bytes_per_vector_quant": quantize_points(
            points, "pca", graph.metric_name).bytes_per_vector(),
    }


def check_row(row, max_recall_delta):
    """Gate the fixture row; returns an error string or None."""
    if not row["deterministic"]:
        return "quantized search is not deterministic across runs"
    if row["recall_delta"] > max_recall_delta:
        return (f"recall@10 delta {row['recall_delta']:+.4f} exceeds "
                f"{max_recall_delta:.2f} (exact {row['recall_exact']:.4f}"
                f", quant {row['recall_quant']:.4f})")
    if row["bytes_per_vector_quant"] >= row["bytes_per_vector_exact"]:
        return (f"quantized footprint "
                f"{row['bytes_per_vector_quant']:.0f} B/vec is not below "
                f"the exact {row['bytes_per_vector_exact']:.0f} B/vec")
    return None


def check_observability():
    """Replay quant + exact serving traces; returns error string or None."""
    import numpy as np

    from repro.baselines.nsw_cpu import build_nsw_cpu
    from repro.core.params import SearchParams
    from repro.datasets.synthetic import gaussian_mixture
    from repro.errors import ObservabilityError
    from repro.serve.engine import ServeEngine
    from repro.serve.scheduler import BatchPolicy
    from repro.serve.trace import synthetic_trace

    points = gaussian_mixture(600, 32, seed=0).astype(np.float32)
    pool = gaussian_mixture(200, 32, seed=1).astype(np.float32)
    graph = build_nsw_cpu(points, d_min=8, d_max=16).graph
    trace = synthetic_trace(pool, 120, mean_qps=50_000.0,
                            queries_per_request=4, seed=7)
    policy = BatchPolicy(max_batch=64, max_wait_seconds=0.002,
                         max_queue=4096)

    def replay(quant):
        engine = ServeEngine(
            graph, points,
            params=SearchParams(k=10, l_n=32, quant=quant),
            policy=policy)
        return engine.replay(trace)

    quant_report = replay("pca")
    try:
        quant_report.verify_against_metrics()
    except ObservabilityError as exc:
        return f"quantized replay drifted from its registry: {exc}"
    if quant_report.quant != "pca":
        return (f"quantized replay reports quant="
                f"{quant_report.quant!r}, expected 'pca'")
    registry = quant_report.metrics
    published = registry.value("quant.batches", default=0.0)
    if published != quant_report.n_batches or published <= 0:
        return (f"quantized replay published quant.batches={published}, "
                f"expected {quant_report.n_batches}")

    exact_report = replay(None)
    try:
        exact_report.verify_against_metrics()
    except ObservabilityError as exc:
        return f"exact replay drifted from its registry: {exc}"
    if exact_report.quant is not None:
        return (f"exact replay reports quant={exact_report.quant!r}, "
                f"expected None")
    if "quant.batches" in exact_report.metrics:
        return "exact replay published quant.* metrics"
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-recall-delta", type=float, default=0.02,
                        help="ceiling on recall@10 lost to quantization "
                        "(default 0.02)")
    args = parser.parse_args(argv)

    row = fixture_row()
    problem = check_row(row, args.max_recall_delta)
    if problem is None:
        problem = check_observability()
    if problem:
        print(f"quant smoke FAILED: {problem}", file=sys.stderr)
        return 1
    reduction = (row["bytes_per_vector_exact"]
                 / row["bytes_per_vector_quant"])
    print(f"quant smoke ok: recall@10 delta {row['recall_delta']:+.4f}, "
          f"{row['bytes_per_vector_quant']:.0f} B/vec "
          f"({reduction:.1f}x smaller), deterministic; serve metrics "
          f"reconciled")
    return 0


if __name__ == "__main__":
    sys.exit(main())
