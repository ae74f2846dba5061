"""Delivery of scheduled faults into the kernel-dispatch path.

The :class:`FaultInjector` walks a :class:`repro.faults.plan.FaultPlan`
in schedule order and converts armed events into concrete effects at
the point :func:`repro.core.pipeline.stream_batches` assembles a batch's
timing: a stall stretches the compute time, a timeout/ECC/OOM raises the
matching :class:`repro.errors.FaultError` subclass with the simulated
seconds the doomed attempt consumed.  Consumption is strictly ordered by
the simulated clock, so replaying the same plan against the same
dispatch sequence delivers the same faults to the same batches.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.pipeline import BatchTiming
from repro.errors import (
    DeviceMemoryError,
    KernelTimeoutError,
    MemoryFaultError,
    ProcessCrashError,
)
from repro.faults.plan import (
    FAULT_ECC_BITFLIP,
    FAULT_KERNEL_STALL,
    FAULT_KERNEL_TIMEOUT,
    FAULT_MEM_EXHAUSTION,
    FaultEvent,
    FaultPlan,
)


class FaultInjector:
    """Stateful cursor over a plan's kernel-scope events.

    One injector serves one replay: each dispatch *attempt* polls the
    injector with the attempt's simulated start time and consumes at
    most one armed event (the earliest whose ``at_seconds`` has
    passed).  Events that never arm before the trace ends are simply
    not delivered — the :class:`repro.faults.report.FaultReport`
    distinguishes scheduled from delivered counts.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._pending: List[FaultEvent] = plan.kernel_events()
        self._cursor = 0
        #: Jitter stream handed to the retry policy, per the plan seed.
        self.jitter_rng: np.random.Generator = plan.rng("jitter")

    def poll(self, now: float) -> Optional[FaultEvent]:
        """Consume the earliest event armed at or before ``now``."""
        if self._cursor >= len(self._pending):
            return None
        event = self._pending[self._cursor]
        if event.at_seconds > now:
            return None
        self._cursor += 1
        return event

    def apply(self, event: FaultEvent, timing: BatchTiming) -> BatchTiming:
        """Turn one armed event into its effect on a batch attempt.

        Args:
            event: The event :meth:`poll` returned.
            timing: The attempt's fault-free timing (what the batch
                *would* have cost).

        Returns:
            A (possibly stretched) timing for survivable faults.

        Raises:
            KernelTimeoutError: The watchdog killed the kernel after
                ``event.magnitude`` seconds of compute.
            MemoryFaultError: An ECC error was detected after the full
                compute ran; the results are discarded.
            DeviceMemoryError: Allocation failed before compute.
        """
        if event.kind == FAULT_KERNEL_STALL:
            return BatchTiming(
                n_queries=timing.n_queries,
                upload_seconds=timing.upload_seconds,
                compute_seconds=timing.compute_seconds * event.magnitude,
                download_seconds=timing.download_seconds,
            )
        if event.kind == FAULT_KERNEL_TIMEOUT:
            raise KernelTimeoutError(
                f"kernel watchdog expired after {event.magnitude:g} s "
                f"(batch of {timing.n_queries} queries)",
                kind=event.kind,
                upload_seconds=timing.upload_seconds,
                compute_seconds=event.magnitude,
            )
        if event.kind == FAULT_ECC_BITFLIP:
            raise MemoryFaultError(
                f"uncorrectable ECC error detected in distance buffer "
                f"(batch of {timing.n_queries} queries); results "
                f"discarded",
                kind=event.kind,
                upload_seconds=timing.upload_seconds,
                compute_seconds=timing.compute_seconds,
            )
        if event.kind == FAULT_MEM_EXHAUSTION:
            raise DeviceMemoryError(
                f"device memory exhausted allocating buffers for "
                f"{timing.n_queries} queries",
                kind=event.kind,
                upload_seconds=timing.upload_seconds,
                compute_seconds=0.0,
            )
        raise MemoryFaultError(  # pragma: no cover - plan validates kinds
            f"unhandled kernel fault kind {event.kind!r}", kind=event.kind)

    def hook(self, now: float, sink: Optional[list] = None,
             metrics=None):
        """A ``fault_hook`` for :func:`repro.core.pipeline.stream_batches`.

        Args:
            now: Simulated start time of the dispatch attempt (arms
                events scheduled at or before it).
            sink: Optional list collecting the consumed
                :class:`FaultEvent` (also populated for survivable
                faults, which do not raise).
            metrics: Optional
                :class:`repro.observability.metrics.MetricsRegistry`;
                every delivered event increments
                ``faults.delivered.<kind>`` at the point of delivery,
                so the registry sees faults even when the raised error
                is swallowed upstream.

        Returns:
            A callable ``(batch_index, timing) -> timing`` that injects
            at most one fault into the attempt.
        """
        def _hook(_index: int, timing: BatchTiming) -> BatchTiming:
            event = self.poll(now)
            if event is None:
                return timing
            if sink is not None:
                sink.append(event)
            if metrics is not None:
                metrics.counter(f"faults.delivered.{event.kind}").inc()
            return self.apply(event, timing)
        return _hook


class CrashInjector:
    """Stateful cursor over a plan's ``crash`` events.

    The mutable index polls the injector at every named lifecycle phase
    boundary (the :data:`repro.faults.plan.CRASH_PHASES` points inside
    compaction and checkpointing).  A crash event armed at or before the
    poll time fires when its ``phase`` matches the boundary — or at the
    very next boundary of any name when its ``phase`` is empty.  Each
    event is consumed at most once, in schedule order, so replaying the
    same plan against the same workload kills the process at the same
    instants.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._pending: List[FaultEvent] = plan.mutation_events()

    def poll(self, phase: str, now: float) -> Optional[FaultEvent]:
        """Consume the earliest armed event matching ``phase``, if any."""
        for i, event in enumerate(self._pending):
            if event.at_seconds > now:
                break
            if event.phase in ("", phase):
                self._pending.pop(i)
                return event
        return None

    def check(self, phase: str, now: float,
              metrics=None) -> None:
        """Raise :class:`ProcessCrashError` if an armed event matches.

        Args:
            phase: The lifecycle phase boundary being crossed.
            now: Simulated time of the boundary.
            metrics: Optional
                :class:`repro.observability.metrics.MetricsRegistry`;
                a delivered crash increments ``faults.delivered.crash``.
        """
        event = self.poll(phase, now)
        if event is None:
            return
        if metrics is not None:
            metrics.counter(f"faults.delivered.{event.kind}").inc()
        raise ProcessCrashError(
            f"process crashed at phase {phase!r} "
            f"(event armed at t={event.at_seconds:g})",
            phase=phase, kind=event.kind)
