"""Bridge from the kernel's cycle accounting into the registry.

:func:`publish_tracker_totals` folds a finished
:class:`repro.gpusim.tracker.CycleTracker`'s per-phase totals into
registry counters (``kernel.cycles.<phase>``), one deterministic float
addition per phase per batch — the serving engine calls this after
every dispatched batch.
"""

from __future__ import annotations

from repro.gpusim.tracker import CycleTracker
from repro.observability.metrics import MetricsRegistry

#: Registry namespace for kernel phase cycles.
KERNEL_CYCLES_PREFIX = "kernel.cycles."


def publish_tracker_totals(registry: MetricsRegistry,
                           tracker: CycleTracker) -> None:
    """Add one tracker's per-phase cycle totals to registry counters.

    Phase iteration follows the tracker's charge order (insertion
    order), so repeated publication across batches sums floats in a
    reproducible order — a precondition for the byte-identical
    snapshot guarantee.
    """
    for phase, total in tracker.phase_totals().items():
        registry.counter(KERNEL_CYCLES_PREFIX + phase).inc(total)
    registry.counter(KERNEL_CYCLES_PREFIX.rstrip(".") + "_total").inc(
        tracker.total_cycles())
