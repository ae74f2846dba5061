"""Benchmark harness: regenerate every table and figure of the paper.

- :mod:`repro.bench.figures` — the paper's reported numbers, embedded, so
  every bench prints paper-vs-measured rows.
- :mod:`repro.bench.workloads` — scaled-down workload definitions shared by
  the benchmark files.
- :mod:`repro.bench.runner` — graph caching, recall/throughput sweeps and
  recall-targeted interpolation.
- :mod:`repro.bench.report` — plain-text table rendering.
"""

from repro.bench.workloads import BenchConfig, DEFAULT_CONFIG, bench_datasets
from repro.bench.runner import (
    GraphCache,
    ConstructionTiming,
    sweep_ganns,
    sweep_song,
    qps_at_recall,
    CurvePoint,
)
from repro.bench.report import format_table

__all__ = [
    "BenchConfig",
    "DEFAULT_CONFIG",
    "bench_datasets",
    "GraphCache",
    "ConstructionTiming",
    "sweep_ganns",
    "sweep_song",
    "qps_at_recall",
    "CurvePoint",
    "format_table",
]
