"""The chaos ledger: every fault, retry, trip, and step-down, recorded.

A :class:`FaultReport` is the fault-tolerance counterpart of
:class:`repro.serve.report.ServeReport`: the engine appends one record
per injected fault, retry, breaker transition, and degradation
decision, all stamped in simulated seconds.  Because the whole stack is
deterministic, two replays of the same trace under the same plan
produce byte-identical reports — :meth:`FaultReport.to_bytes` defines
the canonical encoding the golden tests compare.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.faults.policy import BreakerTransition
from repro.observability.metrics import MetricRow


@dataclass(frozen=True)
class InjectionRecord:
    """One fault delivered into a dispatch attempt.

    Attributes:
        seconds: Simulated time of the attempt that absorbed the fault.
        kind: Fault kind (``FAULT_*`` constant).
        batch_index: Dispatched batch the fault hit.
        attempt: Attempt number within the batch (0 = first try).
        fatal: Whether the attempt failed (stalls are survivable).
    """

    seconds: float
    kind: str
    batch_index: int
    attempt: int
    fatal: bool


@dataclass(frozen=True)
class RetryRecord:
    """One backoff-and-retry decision."""

    seconds: float
    batch_index: int
    attempt: int
    backoff_seconds: float


@dataclass(frozen=True)
class DegradationRecord:
    """One dispatch served below full quality."""

    seconds: float
    batch_index: int
    tier: int
    reason: str


@dataclass
class FaultReport:
    """Accumulated fault-tolerance events of one replay.

    Attributes:
        scheduled_faults: Kernel-scope events the plan held (delivered
            or not — a short trace may end before late events arm).
        injections: Faults actually delivered, dispatch order.
        retries: Backoff decisions, dispatch order.
        breaker_transitions: Breaker state changes, time order.
        degradations: Below-full-quality dispatches, dispatch order.
        fast_failed_requests: Requests failed without dispatch because
            the breaker was open.
        deadline_dropped_requests: Requests dropped undispatched because
            their deadline expired while queued.
        probe_successes: Successful dispatches recorded while the
            breaker was half-open (with ``BreakerPolicy
            .half_open_probes > 1`` the breaker needs several of these
            in a row before it closes).
    """

    scheduled_faults: int = 0
    injections: List[InjectionRecord] = field(default_factory=list)
    retries: List[RetryRecord] = field(default_factory=list)
    breaker_transitions: List[BreakerTransition] = field(
        default_factory=list)
    degradations: List[DegradationRecord] = field(default_factory=list)
    fast_failed_requests: int = 0
    deadline_dropped_requests: int = 0
    probe_successes: int = 0

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------

    @property
    def n_injected(self) -> int:
        """Faults delivered into dispatch attempts."""
        return len(self.injections)

    @property
    def n_fatal(self) -> int:
        """Delivered faults that killed their attempt."""
        return sum(1 for record in self.injections if record.fatal)

    @property
    def n_retries(self) -> int:
        """Re-execution attempts scheduled."""
        return len(self.retries)

    @property
    def n_breaker_trips(self) -> int:
        """Transitions into the open state."""
        return sum(1 for t in self.breaker_transitions
                   if t.to_state == "open")

    @property
    def n_degraded_batches(self) -> int:
        """Dispatches served below tier 0."""
        return len(self.degradations)

    def injected_by_kind(self) -> Dict[str, int]:
        """Delivered fault counts per kind."""
        counts: Dict[str, int] = {}
        for record in self.injections:
            counts[record.kind] = counts.get(record.kind, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # Registry view
    # ------------------------------------------------------------------

    def metric_rows(self) -> List[MetricRow]:
        """The ``faults.*`` metric table: this ledger, as the registry
        must hold it."""
        totals: Dict[str, int] = {
            "faults.scheduled": self.scheduled_faults,
            "faults.injected": self.n_injected,
            "faults.fatal": self.n_fatal,
            "faults.retries": self.n_retries,
            "faults.fast_failed": self.fast_failed_requests,
            "faults.deadline_dropped": self.deadline_dropped_requests,
            "faults.degraded_batches": self.n_degraded_batches,
            "faults.breaker.probe_successes": self.probe_successes,
        }
        for kind, count in self.injected_by_kind().items():
            totals[f"faults.delivered.{kind}"] = count
        for transition in self.breaker_transitions:
            name = f"faults.breaker.{transition.to_state}"
            totals[name] = totals.get(name, 0) + 1
        return [MetricRow(name, "counter", total)
                for name, total in totals.items()]

    # ------------------------------------------------------------------
    # Rendering / canonical form
    # ------------------------------------------------------------------

    def summary(self) -> str:
        """Human-readable block appended to the serving summary."""
        kinds = self.injected_by_kind()
        kind_note = (", ".join(f"{n} {kind}" for kind, n in
                               sorted(kinds.items()))
                     if kinds else "none")
        lines = [
            f"FaultReport: {self.n_injected}/{self.scheduled_faults} "
            f"scheduled faults delivered ({kind_note})",
            f"  retries       {self.n_retries} backoffs, "
            f"{self.n_fatal} fatal attempts",
            f"  breaker       {self.n_breaker_trips} trips, "
            f"{len(self.breaker_transitions)} transitions, "
            f"{self.probe_successes} probe successes, "
            f"{self.fast_failed_requests} requests failed fast",
            f"  degradation   {self.n_degraded_batches} batches below "
            f"tier 0",
            f"  deadlines     {self.deadline_dropped_requests} requests "
            f"dropped expired",
        ]
        return "\n".join(lines)

    def to_bytes(self) -> bytes:
        """Canonical byte encoding for golden determinism comparisons."""
        parts: List[str] = [f"scheduled={self.scheduled_faults}",
                            f"fast_failed={self.fast_failed_requests}",
                            f"deadline_dropped="
                            f"{self.deadline_dropped_requests}",
                            f"probe_successes={self.probe_successes}"]
        for r in self.injections:
            parts.append(f"inject {r.seconds!r} {r.kind} "
                         f"{r.batch_index} {r.attempt} {int(r.fatal)}")
        for r in self.retries:
            parts.append(f"retry {r.seconds!r} {r.batch_index} "
                         f"{r.attempt} {r.backoff_seconds!r}")
        for t in self.breaker_transitions:
            parts.append(f"breaker {t.seconds!r} {t.from_state} "
                         f"{t.to_state}")
        for r in self.degradations:
            parts.append(f"degrade {r.seconds!r} {r.batch_index} "
                         f"{r.tier} {r.reason}")
        return "\n".join(parts).encode("utf-8")
