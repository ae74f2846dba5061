"""Benchmark harness: regenerate every table and figure of the paper.

- :mod:`repro.bench.figures` — the paper's reported numbers, embedded, so
  every bench prints paper-vs-measured rows.
- :mod:`repro.bench.workloads` — scaled-down workload definitions shared by
  the benchmark files, and the two environment variables that size a run.
- :mod:`repro.bench.runner` — construction by scheme name,
  recall/throughput sweeps and recall-targeted interpolation.  Nothing is
  cached on disk: every run measures the tree it runs from.
- :mod:`repro.bench.report` — plain-text table rendering.
- :mod:`repro.bench.plotting` — terminal plots of recall/throughput
  curves.
"""
