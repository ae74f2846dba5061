"""A deterministic metrics registry: counters, gauges, histograms.

The registry is the single publication point for every quantitative
fact the stack produces — the serving engine, the fault injector, the
kernel cycle trackers and the serving cluster all write here, and
:class:`repro.serve.report.ServeReport` /
:class:`repro.faults.report.FaultReport` are *views* whose derived
properties must reconcile with it exactly (the invariant suite enforces
this, and :meth:`ServeReport.verify_against_metrics` re-checks it at
runtime).

Unlike production metric systems there is no sampling, no clock skew
and no lossy aggregation: values are exact simulated quantities, float
operations happen in one deterministic order, and
:meth:`MetricsRegistry.to_json_bytes` is a canonical encoding — two
identical replays produce identical snapshot bytes.

Histograms use **fixed** bucket boundaries chosen at creation: the
bucket a value lands in is a pure function of the value, never of the
observation history, which keeps snapshots mergeable and byte-stable.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Dict, Iterable, List, NamedTuple, Optional, \
    Sequence, Tuple, Union

from repro.errors import ObservabilityError

Number = Union[int, float]

#: Default latency buckets (seconds): 1 us .. ~1 s, roughly 1-2-5.
DEFAULT_LATENCY_BUCKETS = (
    1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4,
    1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1, 2e-1, 5e-1, 1.0,
)

#: Default batch-size buckets (queries per dispatched batch).
DEFAULT_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

#: Metric-name prefix for *volatile* measurements (host wall-clock,
#: process RSS, …).  Everything else in the registry is an exact
#: simulated quantity that replays bit-identically; volatile metrics by
#: definition do not, so the canonical snapshot excludes them — two
#: identical replays still produce identical :meth:`to_json_bytes`.
VOLATILE_PREFIX = "perf."

#: Lines :meth:`MetricsRegistry.summary` prints before it elides the rest.
SUMMARY_MAX_LINES = 24


class MetricRow(NamedTuple):
    """One line of a report's metric table: what the registry must hold.

    Every report lists its rows once (``metric_rows()``);
    :meth:`MetricsRegistry.reconcile` checks a registry against them,
    and a report whose metrics are derived post hoc publishes from the
    same list.  ``value`` is a counter total, a gauge level, or a
    histogram's observation count.  ``sparse`` marks a counter that
    live publication creates on its first non-zero increment:
    publishing from the table skips it at zero, reconciliation reads
    an absent metric as zero.
    """

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    value: Number
    sparse: bool = False


class Counter:
    """A monotonically non-decreasing total."""

    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0.0

    def inc(self, amount: Number = 1) -> None:
        """Add ``amount`` (must be >= 0) to the total."""
        amount = float(amount)
        if amount < 0 or not math.isfinite(amount):
            raise ObservabilityError(
                f"counter {self.name!r} increment must be finite and "
                f">= 0, got {amount}"
            )
        self.value += amount

    def snapshot(self) -> Dict[str, object]:
        """Plain-data form for canonical serialization."""
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """A value that can move both ways (a level, not a total)."""

    kind = "gauge"

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0.0

    def set(self, value: Number) -> None:
        """Overwrite the level."""
        value = float(value)
        if not math.isfinite(value):
            raise ObservabilityError(
                f"gauge {self.name!r} must stay finite, got {value}"
            )
        self.value = value

    def snapshot(self) -> Dict[str, object]:
        """Plain-data form for canonical serialization."""
        return {"kind": self.kind, "value": self.value}


class Histogram:
    """Fixed-bucket histogram with exact sum and count.

    ``bounds`` are the inclusive upper edges of the finite buckets; one
    implicit overflow bucket catches everything above the last edge.
    """

    kind = "histogram"

    def __init__(self, name: str, bounds: Sequence[Number]):
        edges = tuple(float(b) for b in bounds)
        if not edges:
            raise ObservabilityError(
                f"histogram {name!r} needs at least one bucket bound"
            )
        if any(not math.isfinite(e) for e in edges):
            raise ObservabilityError(
                f"histogram {name!r} bounds must be finite"
            )
        if any(lo >= hi for lo, hi in zip(edges, edges[1:])):
            raise ObservabilityError(
                f"histogram {name!r} bounds must be strictly "
                f"increasing, got {edges}"
            )
        self.name = name
        self.bounds: Tuple[float, ...] = edges
        self.counts: List[int] = [0] * (len(edges) + 1)
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: Number) -> None:
        """Record one observation."""
        value = float(value)
        if not math.isfinite(value):
            raise ObservabilityError(
                f"histogram {self.name!r} observation must be finite, "
                f"got {value}"
            )
        index = len(self.bounds)
        for i, edge in enumerate(self.bounds):
            if value <= edge:
                index = i
                break
        self.counts[index] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> float:
        """Mean of all observations (``nan`` when empty)."""
        return self.sum / self.count if self.count else float("nan")

    def snapshot(self) -> Dict[str, object]:
        """Plain-data form for canonical serialization."""
        return {"kind": self.kind, "bounds": list(self.bounds),
                "counts": list(self.counts), "sum": self.sum,
                "count": self.count}


class MetricsRegistry:
    """Named metric instruments, get-or-create, deterministic output.

    ``counter``/``gauge``/``histogram`` return the existing instrument
    when the name is already registered (and raise on a kind clash), so
    publication sites never need to coordinate creation order.
    """

    def __init__(self):
        self._metrics: Dict[str, object] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def _get_or_create(self, name: str, kind: type, **kwargs):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise ObservabilityError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, cannot re-register as "
                    f"{kind.kind}"
                )
            return existing
        metric = kind(name, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str) -> Counter:
        """Get or create a counter."""
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get or create a gauge."""
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str,
                  bounds: Sequence[Number] = DEFAULT_LATENCY_BUCKETS
                  ) -> Histogram:
        """Get or create a fixed-bucket histogram."""
        return self._get_or_create(name, Histogram, bounds=bounds)

    def value(self, name: str, default: Optional[float] = None
              ) -> float:
        """Current value of a counter or gauge by name."""
        metric = self._metrics.get(name)
        if metric is None:
            if default is not None:
                return default
            raise ObservabilityError(f"no metric named {name!r}")
        if isinstance(metric, Histogram):
            raise ObservabilityError(
                f"{name!r} is a histogram; read .snapshot() instead"
            )
        return metric.value

    def reconcile(self, rows: Iterable[MetricRow]) -> None:
        """Assert this registry holds exactly what ``rows`` say.

        The one compare loop behind every report's
        ``verify_against_metrics``.  A metric nobody published reads as
        zero.  Raises :class:`ObservabilityError` naming the first row
        that drifted.
        """
        for row in rows:
            metric = self._metrics.get(row.name)
            # An instrument of another kind has no such field: None
            # never equals the expected number, so it reads as drift.
            field = "count" if row.kind == "histogram" else "value"
            actual = 0.0 if metric is None else getattr(metric, field,
                                                        None)
            if actual != row.value:
                raise ObservabilityError(
                    f"report/registry drift on {row.name!r}: report "
                    f"says {row.value}, registry says {actual}"
                )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Name-sorted plain-data snapshot of every instrument outside
        :data:`VOLATILE_PREFIX` (host wall-clock and friends), so the
        snapshot — and everything built on it, like
        :meth:`to_json_bytes` and :meth:`digest` — stays byte-identical
        across replays of the same run."""
        return {name: self._metrics[name].snapshot()
                for name in sorted(self._metrics)
                if not name.startswith(VOLATILE_PREFIX)}

    def to_json_bytes(self) -> bytes:
        """Canonical byte encoding of :meth:`snapshot` (no volatiles)."""
        return json.dumps({"format": "repro-metrics-v1",
                           "metrics": self.snapshot()},
                          sort_keys=True, separators=(",", ":"),
                          ensure_ascii=True).encode("ascii")

    def digest(self) -> str:
        """SHA-256 hex digest of :meth:`to_json_bytes`."""
        return hashlib.sha256(self.to_json_bytes()).hexdigest()

    def summary(self, prefix: str = "") -> str:
        """Human-readable snapshot block (what the CLI prints)."""
        lines: List[str] = []
        for name in sorted(self._metrics):
            if prefix and not name.startswith(prefix):
                continue
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                lines.append(f"  {name:<34} count={metric.count} "
                             f"mean={metric.mean:.6g}")
            else:
                lines.append(f"  {name:<34} {metric.value:g}")
        if len(lines) > SUMMARY_MAX_LINES:
            hidden = len(lines) - SUMMARY_MAX_LINES
            lines = (lines[:SUMMARY_MAX_LINES]
                     + [f"  … {hidden} more metrics"])
        return "\n".join(lines)
