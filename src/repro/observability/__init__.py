"""Deterministic observability: clock-domain spans + metrics registry.

The serving stack's evaluation story (the paper's Fig. 7 per-phase
breakdown, the serving latency percentiles, the chaos ledger) used to
live in scattered report fields.  This package unifies it:

- :class:`SpanTracer` / :class:`Span` — nested, lane-tracked intervals
  on the *simulated* clock, serialized to byte-deterministic JSON and
  exportable to Chrome ``trace_event`` format
  (:func:`export_chrome_trace`).
- :class:`MetricsRegistry` — counters, gauges and fixed-bucket
  histograms every subsystem publishes into;
  :class:`~repro.serve.report.ServeReport` and
  :class:`~repro.faults.report.FaultReport` are views over it.

Because every timestamp is simulated, the layer is *exact*: span
durations reconcile with cycle accounting to the last bit, and two
replays with the same seeds produce byte-identical trace files — the
invariant test suite (``tests/test_observability_invariants.py``)
makes all of this falsifiable.  See ``docs/observability.md``.
"""

from repro.observability.bridge import (
    KERNEL_CYCLES_PREFIX,
    publish_tracker_totals,
)
from repro.observability.chrome import (
    export_chrome_trace,
    export_chrome_trace_bytes,
    parse_chrome_trace,
)
from repro.observability.metrics import (
    Counter,
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.observability.span import (
    DEFAULT_LANE,
    Span,
    SpanEvent,
    SpanTracer,
    jsonable_scalar,
)

__all__ = [
    "Counter",
    "DEFAULT_LANE",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "Gauge",
    "Histogram",
    "KERNEL_CYCLES_PREFIX",
    "MetricsRegistry",
    "Span",
    "SpanEvent",
    "SpanTracer",
    "export_chrome_trace",
    "export_chrome_trace_bytes",
    "jsonable_scalar",
    "parse_chrome_trace",
    "publish_tracker_totals",
]
